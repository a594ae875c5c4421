//! A dropped server takes its recycled workers with it.
//!
//! Recycled-callgate workers hold their kernel (`Arc<Kernel>`) and the
//! kernel's control table holds the workers, so before `Drop for
//! WedgeApache` broke the cycle every dropped server — a shard restart does
//! exactly this — leaked its kernel and six worker threads. The two
//! recycled sthreads are owned by the server itself and go with it. This is
//! the only test in the binary because it reads the process-wide `Threads:`
//! count.

use std::sync::Arc;
use std::time::{Duration, Instant};

use wedge::apache::{
    ApacheConfig, ConcurrentApache, ConcurrentApacheConfig, PageStore, WedgeApache,
};
use wedge::core::Wedge;
use wedge::crypto::{RsaKeyPair, WedgeRng};
use wedge::net::duplex_pair;
use wedge::telemetry::Telemetry;
use wedge::tls::TlsClient;

fn threads() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let line = status
        .lines()
        .find(|l| l.starts_with("Threads:"))
        .expect("Threads line");
    line.split_whitespace().nth(1).unwrap().parse().unwrap()
}

/// The worker loops notice their closed channels asynchronously, and the
/// threads are detached: there is no handle to join, only the outcome to
/// wait for.
fn eventually(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(20);
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting until {what}");
        std::thread::yield_now();
    }
}

#[test]
fn dropped_servers_leak_neither_threads_nor_kernels() {
    let keypair = RsaKeyPair::generate(&mut WedgeRng::from_seed(77));
    let threads_at_start = threads();

    // One bare server: the kernel itself must go.
    let server = WedgeApache::new(
        Wedge::init(),
        keypair,
        PageStore::sample(),
        ApacheConfig { recycled: true },
    )
    .expect("server");
    let kernel = Arc::downgrade(server.wedge().kernel());
    let mut client = TlsClient::new(server.public_key(), WedgeRng::from_seed(78));
    for _ in 0..4 {
        let (client_link, server_link) = duplex_pair("client", "server");
        std::thread::scope(|scope| {
            let serving = scope.spawn(|| server.serve_connection(server_link).expect("serve"));
            client.connect(&client_link).expect("handshake");
            drop(client_link);
            assert!(serving.join().expect("serving thread").handshake_ok);
        });
    }
    // No request was sent, so `ssl_write` never ran: five of the six gates
    // and both recycled sthreads have a long-lived worker by now (the root
    // is the other compartment).
    let workers = server.wedge().kernel().live_compartments() as u64 - 1;
    assert_eq!(workers, 7);
    assert!(threads() >= threads_at_start + workers);
    drop(server);
    eventually("the bare server's kernel is freed", || {
        kernel.upgrade().is_none()
    });

    // Fifty sharded fronts, four connections each, all on one registry: the
    // kernels' collectors hold them weakly, so the resident gauge counts
    // exactly the kernels still alive.
    let telemetry = Telemetry::new();
    for round in 0..50u64 {
        let front = ConcurrentApache::new(
            keypair,
            PageStore::sample(),
            ConcurrentApacheConfig {
                shards: 2,
                ..ConcurrentApacheConfig::default()
            },
        )
        .expect("front");
        front.instrument(&telemetry);
        let mut client = TlsClient::new(front.public_key(), WedgeRng::from_seed(100 + round));
        for _ in 0..4 {
            let (client_link, server_link) = duplex_pair("client", "server");
            let handle = front.serve(server_link).expect("submit");
            client.connect(&client_link).expect("handshake");
            drop(client_link);
            assert!(handle.join().expect("serve").handshake_ok);
        }
        assert!(
            telemetry.snapshot().counter("kernel.compartments.resident") >= 2,
            "this front's kernels are on the registry"
        );
    }
    // A freed kernel's collector reports nothing, so with every kernel
    // gone no collector names the gauge at all.
    eventually("every front's kernel is freed", || {
        telemetry
            .snapshot()
            .get("kernel.compartments.resident")
            .is_none()
    });
    eventually("the thread count is back where it started", || {
        threads() == threads_at_start
    });
}
