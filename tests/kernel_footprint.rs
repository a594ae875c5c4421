//! Footprint soak: a connection leaves nothing behind in the kernel.
//!
//! Wedge's sthreads are process-like — the kernel tears a compartment down
//! when it exits — so what a kernel keeps resident must be a function of
//! *live* compartments, not of how many connections it has served. Each
//! soak drives thousands of sequential connections through one partitioned
//! server and holds: the compartment table and the callgate instances
//! read the same late as early, and the process's resident set stops
//! growing once it is warm. The Apache soak also holds what a connection
//! mutates (`kernel.policy.mutations`): the scrub that undoes a mid-life
//! grant, and nothing else.
//!
//! Release builds run the ISSUE's sizes (20,000 Apache connections, 2,000
//! SSH logins, 2,000 POP3 sessions; CI runs this step with `--release`);
//! debug builds run a tenth, small enough for plain `cargo test`.

use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use wedge::apache::{ApacheConfig, PageStore, WedgeApache};
use wedge::core::{CompartmentId, Kernel, MemProt, Wedge};
use wedge::crypto::{RsaKeyPair, WedgeRng};
use wedge::net::{duplex_pair, Duplex, RecvTimeout};
use wedge::pop3::{MailDb, Pop3Server};
use wedge::ssh::authdb::ServerConfig;
use wedge::ssh::{AuthDb, SshClient, WedgeSsh};
use wedge::telemetry::Telemetry;
use wedge::tls::TlsClient;

const SCALE: usize = if cfg!(debug_assertions) { 10 } else { 1 };

fn vm_rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let line = status
        .lines()
        .find(|l| l.starts_with("VmRSS:"))
        .expect("VmRSS line");
    line.split_whitespace().nth(1).unwrap().parse().unwrap()
}

/// `VmRSS` is the whole process's, so one soak at a time — held by each
/// test from its first line to its last assertion: a failing assertion
/// symbolises its backtrace (tens of MiB resident), which must not land in
/// another soak's window and fail it for a growth it did not cause.
fn one_soak_at_a_time() -> MutexGuard<'static, ()> {
    static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());
    ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner())
}

/// Drive `total` sequential connections and hold the footprint invariants.
/// The first footprint is taken after 1 % of the run (connection 200 of
/// 20,000), the resident set from 10 % on (connection 2,000 of 20,000).
fn soak(kernel: &Arc<Kernel>, total: usize, mut connection: impl FnMut(usize)) {
    let mut early = None;
    let mut warm_rss_kib = 0;
    for i in 1..=total {
        connection(i);
        if i == total / 100 {
            early = Some(kernel.footprint());
        }
        if i == total / 10 {
            warm_rss_kib = vm_rss_kib();
        }
    }
    let early = early.expect("early checkpoint");
    let late = kernel.footprint();
    assert_eq!(
        late,
        early,
        "kernel state after connection {total} vs after connection {}",
        total / 100
    );
    let grown_kib = vm_rss_kib().saturating_sub(warm_rss_kib);
    println!(
        "{total} connections: {late:?}, VmRSS +{grown_kib} KiB since connection {}",
        total / 10
    );
    assert!(
        grown_kib < 2 * 1024,
        "VmRSS grew {grown_kib} KiB between connection {} and {total}",
        total / 10
    );
}

#[test]
fn apache_connections_leave_nothing_behind() {
    let _alone = one_soak_at_a_time();
    let keypair = RsaKeyPair::generate(&mut WedgeRng::from_seed(41));
    let server = WedgeApache::new(
        Wedge::init(),
        keypair,
        PageStore::sample(),
        ApacheConfig { recycled: true },
    )
    .expect("server");
    let mut client = TlsClient::new(server.public_key(), WedgeRng::from_seed(42));
    let kernel = server.wedge().kernel().clone();
    let telemetry = Telemetry::new();
    kernel.instrument(&telemetry);
    let mutations = telemetry.counter("kernel.policy.mutations");
    let root = server.wedge().root();
    let bystander_tag = root.tag_new().expect("tag");
    // The first compartment a recycled server creates after its root.
    let handshake_sthread = CompartmentId(2);
    soak(&kernel, 20_000 / SCALE, |i| {
        // A connection on recycled sthreads mutates no policy, so every
        // other one gets a grant made to its handshake sthread mid-life:
        // the scrub that ends the connection must undo it.
        let granted = i % 2 == 0;
        if granted {
            root.grant_mem(handshake_sthread, bystander_tag, MemProt::Read)
                .expect("grant");
        }
        let mutated = mutations.get();
        // Mostly resumed; every 16th connection is a fresh client, so a
        // full handshake (and `setup_session_key`) stays on the path.
        if i % 16 == 0 {
            client = TlsClient::new(server.public_key(), WedgeRng::from_seed(1_000 + i as u64));
        }
        let (client_link, server_link) = duplex_pair("client", "server");
        let report = std::thread::scope(|scope| {
            let serving = scope.spawn(|| server.serve_connection(server_link).expect("serve"));
            let mut conn = client.connect(&client_link).expect("handshake");
            conn.send(&client_link, b"GET /index.html HTTP/1.0\r\n\r\n")
                .expect("request");
            let response = conn.recv(&client_link).expect("response");
            assert!(response.starts_with(b"HTTP/1.0 200 OK"));
            drop(client_link);
            serving.join().expect("serving thread")
        });
        assert!(report.handshake_ok);
        assert_eq!(report.requests, 1);
        assert_eq!(report.resumed, i % 16 != 0 && i > 1);
        if i > 1 {
            assert_eq!(
                mutations.get() - mutated,
                granted as u64,
                "cells bumped by connection {i} (granted: {granted})"
            );
            let policy = kernel.policy_of(handshake_sthread).expect("resident");
            assert!(policy.mem_grants().is_empty(), "connection {i}'s scrub");
        }
    });
    assert_eq!(
        kernel.name_of(handshake_sthread).expect("resident"),
        "worker:ssl-handshake"
    );
    // Root, the two recycled sthreads and the six recycled gate workers,
    // however long the run.
    assert_eq!(kernel.live_compartments(), 9);
}

#[test]
fn ssh_logins_leave_nothing_behind() {
    let _alone = one_soak_at_a_time();
    let keypair = RsaKeyPair::generate(&mut WedgeRng::from_seed(43));
    let server = WedgeSsh::new(
        Wedge::init(),
        keypair,
        &AuthDb::sample(),
        &ServerConfig::default(),
    )
    .expect("sshd");
    soak(&server.wedge().kernel().clone(), 2_000 / SCALE, |_| {
        let (client_link, server_link) = duplex_pair("ssh-client", "sshd");
        let worker = server.serve_connection(server_link).expect("worker");
        let mut client = SshClient::new();
        assert!(
            client
                .connect(&client_link)
                .expect("hello")
                .host_proof_valid
        );
        let (ok, _uid, _detail) = client
            .auth_password(&client_link, "alice", "correct horse battery")
            .expect("auth");
        assert!(ok);
        assert!(!client
            .exec(&client_link, "whoami")
            .expect("exec")
            .is_empty());
        client.disconnect(&client_link).expect("bye");
        worker.join().expect("worker exit");
    });
    assert_eq!(server.wedge().kernel().live_compartments(), 1);
}

fn pop3_command(client: &Duplex, cmd: &str) -> String {
    client.send(cmd.as_bytes()).expect("send");
    let reply = client
        .recv(RecvTimeout::After(Duration::from_secs(5)))
        .expect("reply");
    String::from_utf8_lossy(&reply).to_string()
}

#[test]
fn pop3_sessions_leave_nothing_behind() {
    let _alone = one_soak_at_a_time();
    let server = Pop3Server::new(Wedge::init(), &MailDb::sample()).expect("server");
    soak(&server.wedge().kernel().clone(), 2_000 / SCALE, |_| {
        let (client, server_link) = duplex_pair("pop3-client", "pop3-server");
        let session = server.serve_connection(server_link).expect("connection");
        let greeting = client
            .recv(RecvTimeout::After(Duration::from_secs(5)))
            .expect("greeting");
        assert!(greeting.starts_with(b"+OK"));
        assert!(pop3_command(&client, "USER alice").starts_with("+OK"));
        assert!(pop3_command(&client, "PASS wonderland").starts_with("+OK"));
        assert!(pop3_command(&client, "RETR 1").contains("Subject"));
        assert!(pop3_command(&client, "QUIT").starts_with("+OK"));
        let stats = session.join().expect("join").expect("session");
        assert!(stats.logged_in);
    });
    assert_eq!(server.wedge().kernel().live_compartments(), 1);
}
