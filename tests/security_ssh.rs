//! End-to-end security properties of the OpenSSH case study (§5.2).

use wedge::core::callgate::downcast_output;
use wedge::core::{Exploit, SecurityPolicy, Uid, Wedge, WedgeError};
use wedge::crypto::{RsaKeyPair, WedgeRng};
use wedge::net::duplex_pair;
use wedge::ssh::authdb::ServerConfig;
use wedge::ssh::privsep::{
    demonstrate_scratch_leak, monitor_lookup_user, probing_leak_exists, wedge_lookup_user,
};
use wedge::ssh::server::{AuthVerdict, UNPRIVILEGED_UID};
use wedge::ssh::{AuthDb, SshClient, VanillaSsh, WedgeSsh};

fn wedged_server(seed: u64) -> WedgeSsh {
    WedgeSsh::new(
        Wedge::init(),
        RsaKeyPair::generate(&mut WedgeRng::from_seed(seed)),
        &AuthDb::sample(),
        &ServerConfig::default(),
    )
    .unwrap()
}

#[test]
fn monolithic_sshd_exploit_discloses_key_and_shadow_but_wedge_does_not() {
    // Baseline: everything readable.
    let vanilla = VanillaSsh::new(
        Wedge::init(),
        RsaKeyPair::generate(&mut WedgeRng::from_seed(1)),
        AuthDb::sample(),
        ServerConfig::default(),
    )
    .unwrap();
    let key = vanilla.key_buf();
    let shadow = vanilla.shadow_buf();
    let policy = vanilla.worker_policy();
    let (got_key, got_shadow) = vanilla
        .wedge()
        .root()
        .sthread_create("exploited-monolith", &policy, move |ctx| {
            let mut e = Exploit::seize(ctx);
            (e.try_read(&key).is_ok(), e.try_read(&shadow).is_ok())
        })
        .unwrap()
        .join()
        .unwrap();
    assert!(got_key && got_shadow);

    // Wedge partitioning: the worker reaches neither.
    let server = wedged_server(2);
    let key = server.host_key_buf();
    let shadow = server.shadow_buf();
    let policy = server.worker_policy();
    let (key_denied, shadow_denied) = server
        .wedge()
        .root()
        .sthread_create("exploited-worker", &policy, move |ctx| {
            let mut e = Exploit::seize(ctx);
            (e.try_read(&key).is_err(), e.try_read(&shadow).is_err())
        })
        .unwrap()
        .join()
        .unwrap();
    assert!(key_denied && shadow_denied);
}

#[test]
fn authentication_cannot_be_bypassed_by_an_exploited_worker() {
    let server = wedged_server(3);
    let (client_link, server_link) = duplex_pair("client", "sshd");
    let handle = server.serve_connection(server_link).unwrap();
    let mut client = SshClient::new();
    client.connect(&client_link).unwrap();

    // "Skipping" authentication by never invoking a callgate leaves the
    // worker at the unprivileged uid, so commands are refused.
    let refused = client.exec(&client_link, "echo give me a shell").unwrap();
    assert_eq!(refused, "permission denied");

    // A failed authentication leaves it unprivileged too.
    let (ok, uid, _) = client.auth_password(&client_link, "alice", "nope").unwrap();
    assert!(!ok);
    assert_eq!(uid, 0);
    let refused = client.exec(&client_link, "whoami").unwrap();
    assert_eq!(refused, "permission denied");

    // Only a successful callgate authentication escalates the worker.
    let (ok, uid, _) = client
        .auth_password(&client_link, "alice", "correct horse battery")
        .unwrap();
    assert!(ok);
    assert_eq!(uid, 1001);
    let whoami = client.exec(&client_link, "whoami").unwrap();
    assert!(whoami.contains("uid=1001"));
    assert!(whoami.contains("/home/alice"));

    client.disconnect(&client_link).unwrap();
    let report = handle.join().unwrap();
    assert!(report.authenticated);
    // The kernel's view agrees: the worker's uid was changed by the callgate.
    assert_ne!(report.uid, 0);
}

#[test]
fn worker_runs_unprivileged_with_an_empty_filesystem_root() {
    let server = wedged_server(4);
    let policy = server.worker_policy();
    assert_eq!(policy.uid, UNPRIVILEGED_UID);
    assert_eq!(policy.fs_root, "/var/empty");
    assert!(
        policy.mem_grants().is_empty(),
        "no credential store is directly granted"
    );
    assert_eq!(policy.callgate_grants().len(), 4);

    // And it cannot escalate itself: a worker's `transition_identity` is
    // refused, because it is not a gate activation.
    let escalated = server
        .wedge()
        .root()
        .sthread_create("worker", &policy, |ctx| {
            ctx.transition_identity(Uid::ROOT, Some("/"))
        })
        .unwrap()
        .join()
        .unwrap();
    assert!(matches!(escalated, Err(WedgeError::IdentityDenied(_))));
}

/// Two connections overlap on one server and only A logs in: the password
/// gate escalates the worker that invoked it, so B stays unprivileged and
/// A's report agrees with what A's own worker runs as.
#[test]
fn one_clients_login_escalates_only_its_own_worker() {
    let server = wedged_server(7);
    let (a_link, a_server) = duplex_pair("client-a", "sshd");
    let (b_link, b_server) = duplex_pair("client-b", "sshd");
    let a_handle = server.serve_connection(a_server).unwrap();
    let b_handle = server.serve_connection(b_server).unwrap();
    let (mut a, mut b) = (SshClient::new(), SshClient::new());
    a.connect(&a_link).unwrap();
    b.connect(&b_link).unwrap();

    let (ok, uid, _) = a
        .auth_password(&a_link, "alice", "correct horse battery")
        .unwrap();
    assert!(ok);
    assert_eq!(uid, 1001);
    assert_eq!(b.exec(&b_link, "whoami").unwrap(), "permission denied");
    assert_eq!(
        a.exec(&a_link, "whoami").unwrap(),
        "uid=1001 root=/home/alice"
    );

    a.disconnect(&a_link).unwrap();
    b.disconnect(&b_link).unwrap();
    let a_report = a_handle.join().unwrap();
    assert!(a_report.authenticated);
    assert_eq!(a_report.uid, 1001);
    let b_report = b_handle.join().unwrap();
    assert!(!b_report.authenticated);
    assert_eq!(b_report.uid, 0);
}

/// How one client of the concurrent-login test authenticates.
enum Login {
    Password(&'static str, &'static str),
    Pubkey(&'static str, RsaKeyPair),
    Skey(&'static str, &'static str),
}

/// Eight sessions on one server, every worker spawned before any of them
/// authenticates, mixing right and wrong passwords, keys and one-time
/// passwords. Each worker ends with exactly its own client's identity or
/// unprivileged, and each report says what its `whoami` says.
#[test]
fn concurrent_logins_each_escalate_exactly_their_own_worker() {
    let carol_key = RsaKeyPair::generate(&mut WedgeRng::from_seed(11));
    let stranger_key = RsaKeyPair::generate(&mut WedgeRng::from_seed(12));
    let mut db = AuthDb::sample();
    db.add_password_user("carol", "carol's password", 1003, "/home/carol");
    db.add_authorized_key("carol", carol_key.public);
    let server = WedgeSsh::new(
        Wedge::init(),
        RsaKeyPair::generate(&mut WedgeRng::from_seed(10)),
        &db,
        &ServerConfig::default(),
    )
    .unwrap();
    let alice = Some((1001, "/home/alice"));
    let sessions = [
        (Login::Password("alice", "correct horse battery"), alice),
        (Login::Password("bob", "hunter2"), Some((1002, "/home/bob"))),
        (Login::Password("alice", "hunter2"), None),
        (Login::Password("mallory", "guess"), None),
        (
            Login::Pubkey("carol", carol_key),
            Some((1003, "/home/carol")),
        ),
        (Login::Pubkey("carol", stranger_key), None),
        (Login::Skey("alice", "otp-one"), alice),
        (Login::Skey("alice", "otp-three"), None),
    ];
    let barrier = std::sync::Barrier::new(sessions.len());
    std::thread::scope(|scope| {
        let clients: Vec<_> = sessions
            .into_iter()
            .map(|(login, expected)| {
                let (link, server_link) = duplex_pair("client", "sshd");
                let worker = server.serve_connection(server_link).unwrap();
                let barrier = &barrier;
                let client = scope.spawn(move || {
                    let mut client = SshClient::new();
                    client.connect(&link).unwrap();
                    barrier.wait();
                    let (ok, uid, _) = match &login {
                        Login::Password(user, password) => {
                            client.auth_password(&link, user, password)
                        }
                        Login::Pubkey(user, key) => client.auth_pubkey(&link, user, &key.private),
                        Login::Skey(user, otp) => client.auth_skey(&link, user, otp),
                    }
                    .unwrap();
                    barrier.wait();
                    let whoami = client.exec(&link, "whoami").unwrap();
                    client.disconnect(&link).unwrap();
                    (ok, uid, whoami)
                });
                (expected, client, worker)
            })
            .collect();
        for (expected, client, worker) in clients {
            let (ok, uid, whoami) = client.join().unwrap();
            let report = worker.join().unwrap();
            match expected {
                Some((expected_uid, home)) => {
                    assert!(ok);
                    assert_eq!(uid, expected_uid);
                    assert_eq!(whoami, format!("uid={expected_uid} root={home}"));
                    assert!(report.authenticated);
                    assert_eq!(report.uid, expected_uid);
                }
                None => {
                    assert!(!ok);
                    assert_eq!(whoami, "permission denied");
                    assert!(!report.authenticated);
                    assert_eq!(report.uid, 0);
                }
            }
        }
    });
}

/// An attacker who has seized a worker compartment gains nothing from an
/// honest client's login on the same server: its own guesses go through
/// the password gate like any client's, and the honest login escalates
/// only the honest worker.
#[test]
fn a_seized_worker_stays_unprivileged_while_another_connection_logs_in() {
    let server = wedged_server(8);
    let policy = server.worker_policy();
    let password_gate = policy
        .callgate_grants()
        .iter()
        .map(|grant| grant.entry)
        .find(|&entry| {
            server.wedge().kernel().cgate_name(entry).as_deref() == Some("password_auth")
        })
        .unwrap();
    let (seized_tx, seized) = std::sync::mpsc::channel();
    let (logged_in_tx, logged_in) = std::sync::mpsc::channel::<()>();
    let exploited = server
        .wedge()
        .root()
        .sthread_create("exploited-worker", &policy, move |ctx| {
            let mut exploit = Exploit::seize(ctx);
            let guess = exploit.try_cgate(
                password_gate,
                &SecurityPolicy::deny_all(),
                Box::new(("alice".to_string(), "guess".to_string())),
            );
            seized_tx.send(()).unwrap();
            logged_in.recv().unwrap();
            let verdict = downcast_output::<AuthVerdict>(guess.unwrap()).unwrap();
            (verdict.success, ctx.uid(), ctx.policy().fs_root)
        })
        .unwrap();
    seized.recv().unwrap();

    let (client_link, server_link) = duplex_pair("client", "sshd");
    let honest = server.serve_connection(server_link).unwrap();
    let mut client = SshClient::new();
    client.connect(&client_link).unwrap();
    let (ok, _, _) = client
        .auth_password(&client_link, "alice", "correct horse battery")
        .unwrap();
    assert!(ok);
    assert_eq!(
        client.exec(&client_link, "whoami").unwrap(),
        "uid=1001 root=/home/alice"
    );
    logged_in_tx.send(()).unwrap();
    client.disconnect(&client_link).unwrap();
    assert_eq!(honest.join().unwrap().uid, 1001);

    let (guessed, uid, fs_root) = exploited.join().unwrap();
    assert!(!guessed);
    assert_eq!(uid, UNPRIVILEGED_UID);
    assert_eq!(fs_root, "/var/empty");
}

#[test]
fn username_probing_and_pam_scratch_lessons_hold() {
    let db = AuthDb::sample();
    let shadow = AuthDb::parse_shadow(&db.serialize_shadow());
    // Privilege-separated OpenSSH's monitor leaks username validity...
    assert!(probing_leak_exists(
        |user| monitor_lookup_user(&shadow, user),
        "alice",
        "mallory"
    ));
    // ...the Wedge password callgate does not.
    assert!(!probing_leak_exists(
        |user| Some(wedge_lookup_user(&shadow, user)),
        "alice",
        "mallory"
    ));

    // Fork-inherited scratch memory leaks; callgate-private scratch does not.
    let outcome = demonstrate_scratch_leak(&Wedge::init()).unwrap();
    assert!(outcome.forked_child_reads_scratch);
    assert!(!outcome.sthread_reads_callgate_scratch);
}

#[test]
fn host_key_is_used_only_through_the_signing_callgate() {
    let server = wedged_server(5);
    let (client_link, server_link) = duplex_pair("client", "sshd");
    let handle = server.serve_connection(server_link).unwrap();
    let mut client = SshClient::new();
    let hello = client.connect(&client_link).unwrap();
    // The host proof verifies against the advertised public key, so the
    // worker did obtain a signature — but only over a hash the callgate
    // computed, never the key itself.
    assert!(hello.host_proof_valid);
    assert_eq!(hello.host_key, server.host_public());
    client.disconnect(&client_link).unwrap();
    handle.join().unwrap();
}
