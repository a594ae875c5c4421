//! The man-in-the-middle + exploit attack of §5.1.2, against both the
//! simple (§5.1.1) and the hardened (§5.1.2) partitionings.
//!
//! Run with `cargo run --example mitm_attack`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use wedge::apache::attacks::{decrypt_observed_client_records, plaintexts_contain};
use wedge::apache::{ApacheConfig, PageStore, SimpleApache, WedgeApache};
use wedge::core::{Exploit, Wedge};
use wedge::crypto::{RsaKeyPair, WedgeRng};
use wedge::net::Mitm;
use wedge::tls::TlsClient;

/// Run a legitimate client against a server through a passive MITM, pumping
/// the interposer from a helper thread. Returns the MITM (with everything it
/// observed) and the session keys the *worker* ended up holding (only the
/// simple partitioning hands keys to the worker).
fn run_simple_through_mitm() -> (Mitm, Option<wedge::tls::SessionKeys>) {
    let keypair = RsaKeyPair::generate(&mut WedgeRng::from_seed(41));
    let server = SimpleApache::new(Wedge::init(), keypair, PageStore::sample()).expect("server");
    let (client_link, mitm, server_link) = Mitm::interpose();
    let mitm = Arc::new(parking_lot::Mutex::new(mitm));
    let stop = Arc::new(AtomicBool::new(false));

    // Pump the interposer (the attacker passively forwarding traffic).
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

    let handle = server.serve_connection(server_link).expect("serve");
    let mut client = TlsClient::new(server.public_key(), WedgeRng::from_seed(42));
    let mut conn = client.connect(&client_link).expect("handshake");
    conn.send(&client_link, b"GET /account HTTP/1.0\r\n\r\n")
        .expect("send");
    let _response = conn.recv(&client_link).expect("recv");
    drop(conn);
    drop(client_link);
    let (_report, worker_keys) = handle.join().expect("worker");
    stop.store(true, Ordering::Relaxed);
    pump.join().expect("pump");
    let mitm = Arc::try_unwrap(mitm).expect("sole owner").into_inner();
    (mitm, worker_keys)
}

fn main() {
    println!("=== §5.1.1 simple partitioning under MITM + exploited worker ===");
    let (mitm, worker_keys) = run_simple_through_mitm();
    println!("attacker observed {}", mitm.observed().summary());
    let keys = worker_keys.expect("the simple partitioning hands the worker the session keys");
    println!("exploited worker leaks the session key to the attacker...");
    let recovered = decrypt_observed_client_records(&keys.material, &mitm);
    let got_plaintext = plaintexts_contain(&recovered, b"GET /account");
    println!("attacker decrypts the client's request: {got_plaintext}");
    assert!(
        got_plaintext,
        "the simple partitioning falls to this attack"
    );

    println!();
    println!("=== §5.1.2 hardened partitioning: the exploited compartment has nothing to leak ===");
    let keypair = RsaKeyPair::generate(&mut WedgeRng::from_seed(43));
    for recycled in [false, true] {
        hardened_compartment_has_nothing_to_leak(keypair, ApacheConfig { recycled });
    }
    println!();
    println!("Result: the attack that defeats the coarse partitioning is stopped by the fine-grained one.");
}

/// The network-facing compartment's policy is the same whether the server
/// gives each connection a fresh sthread or serves them all on a recycled
/// one: neither key region is reachable from it.
fn hardened_compartment_has_nothing_to_leak(keypair: RsaKeyPair, config: ApacheConfig) {
    println!("-- {config:?}");
    let server =
        WedgeApache::new(Wedge::init(), keypair, PageStore::sample(), config).expect("server");
    let policy = server.handshake_policy();
    let key_buf = server.key_buf();
    let session_buf = server.session_state_buf();
    let outcome = server
        .wedge()
        .root()
        .sthread_create("exploited-ssl-handshake", &policy, move |ctx| {
            let mut exploit = Exploit::seize(ctx);
            (
                exploit.try_read(&key_buf).is_err(),
                exploit.try_read(&session_buf).is_err(),
            )
        })
        .expect("spawn")
        .join()
        .expect("join");
    println!(
        "private key unreachable from the network-facing sthread: {}",
        outcome.0
    );
    println!(
        "session key unreachable from the network-facing sthread:  {}",
        outcome.1
    );
    assert!(outcome.0 && outcome.1);
}
