//! End-to-end security properties of the Apache/OpenSSL case study (§5.1):
//! what an exploit can and cannot reach under each partitioning, and what a
//! man-in-the-middle attacker gains in combination with an exploit.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use wedge::apache::attacks::{decrypt_observed_client_records, plaintexts_contain};
use wedge::apache::{ApacheConfig, PageStore, SimpleApache, VanillaApache, WedgeApache};
use wedge::core::{Exploit, Wedge};
use wedge::crypto::{RsaKeyPair, WedgeRng};
use wedge::net::{duplex_pair, Mitm};
use wedge::tls::TlsClient;

fn keypair(seed: u64) -> RsaKeyPair {
    RsaKeyPair::generate(&mut WedgeRng::from_seed(seed))
}

/// Both columns of Table 2: per-connection sthreads with standard
/// callgates, and recycled sthreads with recycled callgates. Every attack
/// on the hardened partitioning must fail closed under each.
const BOTH_CONFIGS: [ApacheConfig; 2] = [
    ApacheConfig { recycled: false },
    ApacheConfig { recycled: true },
];

#[test]
fn vanilla_apache_exploit_discloses_the_private_key() {
    let server = VanillaApache::new(Wedge::init(), keypair(1), PageStore::sample()).unwrap();
    let key_buf = server.key_buf();
    let policy = server.worker_policy();
    let leaked = server
        .wedge()
        .root()
        .sthread_create("exploited-monolith", &policy, move |ctx| {
            let mut exploit = Exploit::seize(ctx);
            let _ = exploit.try_read(&key_buf);
            exploit.loot_contains(b"RSA-PRIVATE-KEY")
        })
        .unwrap()
        .join()
        .unwrap();
    assert!(
        leaked,
        "the monolithic server's worker holds the private key"
    );
}

#[test]
fn simple_partitioning_protects_the_private_key_but_leaks_the_session_key() {
    let server = SimpleApache::new(Wedge::init(), keypair(2), PageStore::sample()).unwrap();
    let key_buf = server.key_buf();
    let policy = server.worker_policy();
    // Exploited worker: no path to the private key.
    let key_denied = server
        .wedge()
        .root()
        .sthread_create("exploited-worker", &policy, move |ctx| {
            Exploit::seize(ctx).try_read(&key_buf).is_err()
        })
        .unwrap()
        .join()
        .unwrap();
    assert!(key_denied);

    // But the worker legitimately holds the session keys, so under a passive
    // man in the middle the attacker who exploits it can decrypt the
    // client's traffic — the residual weakness §5.1.2 addresses.
    let (client_link, mitm, server_link) = Mitm::interpose();
    let mitm = Arc::new(parking_lot::Mutex::new(mitm));
    let stop = Arc::new(AtomicBool::new(false));
    let pump = {
        let mitm = mitm.clone();
        let stop = stop.clone();
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                mitm.lock().forward_all_pending();
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        })
    };
    let handle = server.serve_connection(server_link).unwrap();
    let mut client = TlsClient::new(server.public_key(), WedgeRng::from_seed(3));
    let mut conn = client.connect(&client_link).unwrap();
    conn.send(&client_link, b"GET /account HTTP/1.0\r\n\r\n")
        .unwrap();
    let response = conn.recv(&client_link).unwrap();
    assert!(response.starts_with(b"HTTP/1.0 200"));
    drop(conn);
    drop(client_link);
    let (report, leaked_keys) = handle.join().unwrap();
    stop.store(true, Ordering::Relaxed);
    pump.join().unwrap();
    assert!(report.handshake_ok);

    let mitm = Arc::try_unwrap(mitm).expect("sole owner").into_inner();
    assert!(
        mitm.observed().entries().len() >= 5,
        "the attacker saw the whole exchange"
    );
    let keys = leaked_keys.expect("the worker holds the session keys");
    let recovered = decrypt_observed_client_records(&keys.material, &mitm);
    assert!(
        plaintexts_contain(&recovered, b"GET /account"),
        "with the leaked session key the attacker reads the client's request"
    );
}

#[test]
fn hardened_partitioning_denies_the_attacker_key_material_and_oracles() {
    // Side by side: each run ends on `ssl_read`'s 5 s timeout, because
    // the attacker in the middle never closes its half of the link.
    std::thread::scope(|scope| {
        for config in BOTH_CONFIGS {
            scope.spawn(move || hardened_partitioning_denies_the_attacker(config));
        }
    });
}

fn hardened_partitioning_denies_the_attacker(config: ApacheConfig) {
    let server = WedgeApache::new(Wedge::init(), keypair(4), PageStore::sample(), config).unwrap();

    // The exploited network-facing compartment can reach neither the private
    // key nor the session-key region nor the finished state.
    let policy = server.handshake_policy();
    let key_buf = server.key_buf();
    let session_buf = server.session_state_buf();
    let finished_buf = server.finished_state_buf();
    let (key_denied, session_denied, finished_denied) = server
        .wedge()
        .root()
        .sthread_create("exploited-handshake", &policy, move |ctx| {
            let mut exploit = Exploit::seize(ctx);
            (
                exploit.try_read(&key_buf).is_err(),
                exploit.try_read(&session_buf).is_err(),
                exploit.try_read(&finished_buf).is_err(),
            )
        })
        .unwrap()
        .join()
        .unwrap();
    assert!(key_denied && session_denied && finished_denied);

    // End to end through a passive MITM: the handshake completes, the client
    // is served, and nothing the attacker observed decrypts without keys it
    // never obtained.
    let (client_link, mitm, server_link) = Mitm::interpose();
    let mitm = Arc::new(parking_lot::Mutex::new(mitm));
    let stop = Arc::new(AtomicBool::new(false));
    let pump = {
        let mitm = mitm.clone();
        let stop = stop.clone();
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                mitm.lock().forward_all_pending();
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        })
    };
    let report = std::thread::scope(|scope| {
        let server_ref = &server;
        let handle = scope.spawn(move || server_ref.serve_connection(server_link).unwrap());
        let mut client = TlsClient::new(server.public_key(), WedgeRng::from_seed(5));
        let mut conn = client.connect(&client_link).unwrap();
        conn.send(&client_link, b"GET /account HTTP/1.0\r\n\r\n")
            .unwrap();
        let response = conn.recv(&client_link).unwrap();
        assert!(response.starts_with(b"HTTP/1.0 200"));
        drop(conn);
        drop(client_link);
        handle.join().unwrap()
    });
    stop.store(true, Ordering::Relaxed);
    pump.join().unwrap();
    assert!(report.handshake_ok);
    assert_eq!(report.requests, 1);

    let mitm = Arc::try_unwrap(mitm).expect("sole owner").into_inner();
    // The attacker saw everything on the wire but holds no keys; a guess at
    // key material recovers nothing.
    let wrong_keys = wedge::crypto::kdf::derive_key_block(b"guess", b"cr", b"sr");
    let recovered = decrypt_observed_client_records(&wrong_keys, &mitm);
    assert!(!plaintexts_contain(&recovered, b"GET /account"));
    // The plaintext never crossed the wire in the clear either.
    assert!(!mitm.saw_bytes(b"account balance"));
}

#[test]
fn injected_records_are_rejected_before_reaching_the_client_handler() {
    for config in BOTH_CONFIGS {
        injected_records_are_rejected(config);
    }
}

fn injected_records_are_rejected(config: ApacheConfig) {
    let server = WedgeApache::new(Wedge::init(), keypair(6), PageStore::sample(), config).unwrap();
    let (client_link, server_link) = duplex_pair("client", "server");
    let report = std::thread::scope(|scope| {
        let server_ref = &server;
        let handle = scope.spawn(move || server_ref.serve_connection(server_link).unwrap());
        let mut client = TlsClient::new(server.public_key(), WedgeRng::from_seed(7));
        let mut conn = client.connect(&client_link).unwrap();
        // The attacker injects garbage "ciphertext" into the established
        // connection before the real request.
        client_link
            .send(b"attacker-injected-record-without-a-valid-mac")
            .unwrap();
        conn.send(&client_link, b"GET /index.html HTTP/1.0\r\n\r\n")
            .unwrap();
        let response = conn.recv(&client_link).unwrap();
        assert!(response.starts_with(b"HTTP/1.0 200"));
        drop(conn);
        drop(client_link);
        handle.join().unwrap()
    });
    assert!(report.handshake_ok);
    assert_eq!(
        report.rejected_records, 1,
        "the injected record was dropped by ssl_read"
    );
    assert_eq!(
        report.requests, 1,
        "the legitimate request was still served"
    );
}

/// Retirement closes the window an exploit could otherwise keep open: a
/// context copied out of the network-facing `ssl_handshake` compartment is
/// live only as long as that compartment is. Once the sthread has exited —
/// and connections have come and gone since — it can invoke none of the
/// handshake callgates it was granted, read nothing, and is not confused
/// with any later connection's compartment. (Per-connection sthreads; the
/// recycled trade-off is the next test.)
#[test]
fn an_exploited_handshake_context_is_useless_once_the_sthread_exits() {
    use wedge::core::{SecurityPolicy, SthreadCtx, WedgeError};

    let server = WedgeApache::new(
        Wedge::init(),
        keypair(8),
        PageStore::sample(),
        ApacheConfig::default(),
    )
    .unwrap();
    let kernel = server.wedge().kernel().clone();
    let policy = server.handshake_policy();
    let begin_handshake = policy.callgate_grants()[0].entry;
    let key_buf = server.key_buf();
    let no_extra = SecurityPolicy::deny_all();

    // The exploit: the handshake compartment leaks its own context. While
    // it lives the gate is reachable (it rejects the junk argument itself).
    let (smuggle, smuggled) = std::sync::mpsc::channel::<SthreadCtx>();
    let exploited = server
        .wedge()
        .root()
        .sthread_create("exploited-handshake", &policy, move |ctx| {
            smuggle.send(ctx.clone()).unwrap();
            ctx.cgate(
                begin_handshake,
                &SecurityPolicy::deny_all(),
                Box::new("junk"),
            )
            .map(|_| ())
        })
        .unwrap();
    let exploited_id = exploited.id();
    assert_eq!(
        exploited.join().unwrap(),
        Err(WedgeError::BadCallgateValue),
        "a live handshake compartment reaches its gate"
    );
    let ghost = smuggled.recv().unwrap();

    // A legitimate connection is served in between.
    let (client_link, server_link) = duplex_pair("client", "server");
    let report = std::thread::scope(|scope| {
        let serving = scope.spawn(|| server.serve_connection(server_link).unwrap());
        let mut client = TlsClient::new(server.public_key(), WedgeRng::from_seed(9));
        let mut conn = client.connect(&client_link).unwrap();
        conn.send(&client_link, b"GET /index.html HTTP/1.0\r\n\r\n")
            .unwrap();
        assert!(conn
            .recv(&client_link)
            .unwrap()
            .starts_with(b"HTTP/1.0 200"));
        drop(client_link);
        serving.join().unwrap()
    });
    assert!(report.handshake_ok);
    assert_eq!(
        kernel.live_compartments(),
        1,
        "serve_connection left nothing but the root behind"
    );

    // The leaked context names a compartment that no longer exists.
    kernel.clear_violations();
    assert!(matches!(
        ghost.cgate(begin_handshake, &no_extra, Box::new("junk")),
        Err(WedgeError::CallgateDenied { .. })
    ));
    assert_eq!(
        ghost.read_all(&key_buf),
        Err(WedgeError::UnknownCompartment(exploited_id))
    );
    assert!(Exploit::seize(&ghost).try_read(&key_buf).is_err());
    assert!(ghost
        .sthread_create("accomplice", &no_extra, |_| ())
        .is_err());
    let violations = kernel.violations();
    assert_eq!(violations.len(), 2, "both reads are on the record");
    assert!(violations.iter().all(|v| v.compartment == exploited_id));
    assert!(kernel.name_of(exploited_id).is_err());
}

/// One verified request over a fresh link; `during` runs on the client's
/// side once the session is established, while the server still holds
/// that connection's session and finished state.
fn serve_one(server: &WedgeApache, client_seed: u64, during: impl FnOnce()) {
    let (client_link, server_link) = duplex_pair("client", "server");
    let report = std::thread::scope(|scope| {
        let serving = scope.spawn(|| server.serve_connection(server_link).unwrap());
        let mut client = TlsClient::new(server.public_key(), WedgeRng::from_seed(client_seed));
        let mut conn = client.connect(&client_link).unwrap();
        during();
        conn.send(&client_link, b"GET /index.html HTTP/1.0\r\n\r\n")
            .unwrap();
        assert!(conn
            .recv(&client_link)
            .unwrap()
            .starts_with(b"HTTP/1.0 200"));
        drop(client_link);
        serving.join().unwrap()
    });
    assert!(report.handshake_ok);
    assert_eq!(report.requests, 1);
}

/// The recycled trade-off, from the attacker's side. A recycled handshake
/// worker — a compartment under exactly the `ssl_handshake` policy — is
/// exploited while serving connection N: it stashes the client's bytes in
/// private scratch and in a tag of its own, and leaks its context. Its
/// compartment is *not* retired (that is what recycling gives up: the id
/// and the baseline's four gate grants outlive the principal), but the
/// scrub that ends connection N leaves the stash unreadable, and neither
/// during connection N+1 nor after it can the leaked context read that
/// connection's session keys, its finished state or the private key.
#[test]
fn a_recycled_handshake_worker_carries_nothing_from_one_connection_to_the_next() {
    use wedge::core::callgate::typed_entry;
    use wedge::core::{RecycledSthread, SBuf, SecurityPolicy, SthreadCtx, WedgeError};

    let server = WedgeApache::new(
        Wedge::init(),
        keypair(10),
        PageStore::sample(),
        ApacheConfig { recycled: true },
    )
    .unwrap();
    let kernel = server.wedge().kernel().clone();
    let (smuggle, smuggled) = std::sync::mpsc::channel::<(SthreadCtx, SBuf, SBuf)>();
    let exploited_body = kernel.cgate_register(
        "exploited-ssl-handshake",
        typed_entry(move |ctx, _trusted, client_bytes: Vec<u8>| {
            let scratch = ctx.malloc(client_bytes.len())?;
            ctx.write(&scratch, 0, &client_bytes)?;
            let tagged = ctx.smalloc_init(ctx.tag_new()?, &client_bytes)?;
            // While the principal is being served the stash is readable.
            assert_eq!(ctx.read_all(&scratch)?, client_bytes);
            smuggle.send((ctx.clone(), scratch, tagged)).unwrap();
            Ok(())
        }),
    );
    let worker = RecycledSthread::new(
        &server.wedge().root(),
        exploited_body,
        &server.handshake_policy(),
        None,
    );

    // Connection N.
    worker
        .run(Box::new(
            b"connection N: client hello, key exchange".to_vec(),
        ))
        .unwrap();
    let (ghost, scratch, tagged) = smuggled.recv().unwrap();
    assert!(
        kernel.name_of(ghost.id()).is_ok(),
        "a recycled compartment outlives its principal"
    );

    let secrets = [
        server.key_buf(),
        server.session_state_buf(),
        server.finished_state_buf(),
    ];
    let reaches_nothing = || {
        for buf in secrets.iter().chain([&scratch, &tagged]) {
            assert!(
                matches!(ghost.read_all(buf), Err(WedgeError::ProtectionFault { .. })),
                "the leaked context read {buf:?}"
            );
            assert!(Exploit::seize(&ghost).try_read(buf).is_err());
        }
        // No privilege to pass on either.
        let mut wanted = SecurityPolicy::deny_all();
        wanted.sc_mem_add(secrets[1].tag, wedge::core::MemProt::Read);
        assert!(ghost.sthread_create("accomplice", &wanted, |_| ()).is_err());
    };
    // Connection N+1 on the server's own recycled sthreads: probed while
    // its session is live, and again once it is over.
    serve_one(&server, 11, reaches_nothing);
    reaches_nothing();
    serve_one(&server, 12, || {});

    // What is resident: the root, the server's two recycled sthreads, its
    // six recycled gate workers and the exploited worker — nothing per
    // connection.
    assert_eq!(kernel.live_compartments(), 10);
    assert_eq!(kernel.stats().sthreads_created, 3);
}

/// A handshake body that crashes (here: a Crowbar sink that panics inside
/// the `ssl_handshake` frame, once) fails that one connection closed; the
/// worker it crashed in is retired, and the next connection is served by a
/// fresh one.
#[test]
fn a_crashed_recycled_handshake_worker_fails_one_connection_and_is_replaced() {
    use wedge::core::trace::{AccessSink, CallEvent};

    struct CrashOnce(AtomicBool);
    impl AccessSink for CrashOnce {
        fn on_call(&self, event: &CallEvent) {
            if event.function == "ssl_handshake" && !self.0.swap(true, Ordering::SeqCst) {
                panic!("exploit crashed the handshake body");
            }
        }
    }

    let server = WedgeApache::new(
        Wedge::init(),
        keypair(13),
        PageStore::sample(),
        ApacheConfig { recycled: true },
    )
    .unwrap();
    let kernel = server.wedge().kernel().clone();
    kernel.set_tracer(Some(Arc::new(CrashOnce(AtomicBool::new(false)))));

    let (client_link, server_link) = duplex_pair("client", "server");
    let report = std::thread::scope(|scope| {
        let serving = scope.spawn(|| server.serve_connection(server_link).unwrap());
        let mut client = TlsClient::new(server.public_key(), WedgeRng::from_seed(14));
        assert!(client.connect(&client_link).is_err(), "no server hello");
        serving.join().unwrap()
    });
    assert!(!report.handshake_ok, "a crashed handshake is a failed one");
    assert_eq!(report.requests, 0);

    kernel.set_tracer(None);
    serve_one(&server, 15, || {});
    // Two handshake workers (the crashed one and its replacement) and one
    // client handler were ever created.
    assert_eq!(kernel.stats().sthreads_created, 3);
}
