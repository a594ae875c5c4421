//! Integration tests for the sharded front-end: shard failure with
//! re-routing, and TLS session resumption that survives landing on a
//! different shard.

use std::time::{Duration, Instant};

use wedge::apache::{ConcurrentApache, ConcurrentApacheConfig, PageStore};
use wedge::crypto::{RsaKeyPair, WedgeRng};
use wedge::net::duplex_pair;
use wedge::sched::AcceptPolicy;
use wedge::telemetry::Telemetry;
use wedge::tls::TlsClient;

/// An affinity key that the acceptor's hash lands on `shard` of `n`.
fn affinity_key(shard: usize, n: usize) -> u64 {
    (0u64..)
        .find(|k| wedge::sched::shard_for_key(*k, n) == shard)
        .expect("key")
}

fn sharded_server(seed: u64, config: ConcurrentApacheConfig) -> ConcurrentApache {
    let keypair = RsaKeyPair::generate(&mut WedgeRng::from_seed(seed));
    ConcurrentApache::new(keypair, PageStore::sample(), config).expect("sharded server")
}

/// Kill one shard while it is serving one link and holding three more in
/// its queue: the queued links must re-route to the surviving shard, the
/// in-flight link must finish, no connection may be dropped, and the
/// aggregate counters must balance (submitted = completed + rejected).
#[test]
fn killing_a_shard_mid_batch_reroutes_queued_links() {
    let server = sharded_server(
        7,
        ConcurrentApacheConfig {
            shards: 2,
            queue_capacity: 8,
            recycled: true,
            policy: AcceptPolicy::SessionAffinity,
            supervisor: None,
        },
    );
    let telemetry = Telemetry::new();
    server.instrument(&telemetry);
    let to_zero = affinity_key(0, 2);
    let public_key = server.public_key();

    // The held connection: handshakes immediately, then thinks long enough
    // for us to queue work behind it and kill the shard under it.
    let (held_client_link, held_server_link) = duplex_pair("held-client", "held-server");
    let held_client = std::thread::spawn(move || {
        let mut client = TlsClient::new(public_key, WedgeRng::from_seed(100));
        let mut conn = client.connect(&held_client_link).expect("handshake");
        std::thread::sleep(Duration::from_millis(300));
        conn.send(&held_client_link, b"GET /index.html HTTP/1.0\r\n\r\n")
            .expect("send");
        let response = conn.recv(&held_client_link).expect("response");
        assert!(response.starts_with(b"HTTP/1.0 200 OK"));
    });
    let held = server
        .serve_with_key(held_server_link, to_zero)
        .expect("submit held");

    // Wait until shard 0 is actually *serving* the held link (its
    // handshake sthread exists), so the next submissions queue behind it.
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.shard_stats()[0].kernel.sthreads_created == 0 {
        assert!(Instant::now() < deadline, "shard 0 never started serving");
        std::thread::sleep(Duration::from_millis(2));
    }

    // Three more links, all pinned to the doomed shard.
    let mut queued_clients = Vec::new();
    let mut queued = Vec::new();
    for i in 0..3 {
        let (client_link, server_link) = duplex_pair("queued-client", "queued-server");
        queued_clients.push(std::thread::spawn(move || {
            let mut client = TlsClient::new(public_key, WedgeRng::from_seed(200 + i));
            let mut conn = client.connect(&client_link).expect("handshake");
            conn.send(&client_link, b"GET /index.html HTTP/1.0\r\n\r\n")
                .expect("send");
            let response = conn.recv(&client_link).expect("response");
            assert!(response.starts_with(b"HTTP/1.0 200 OK"));
        }));
        queued.push(
            server
                .serve_with_key(server_link, to_zero)
                .expect("submit queued"),
        );
    }
    assert_eq!(server.shard_stats()[0].depth, 4, "1 serving + 3 queued");

    // Kill the shard under the batch.
    let kill = server.kill_shard(0);
    assert_eq!(
        kill.rerouted, 3,
        "every queued link moves to the live shard"
    );
    assert_eq!(kill.failed, 0);
    assert!(!server.shard_stats()[0].healthy);

    // No connection is silently dropped: the re-routed links serve on
    // shard 1, the in-flight one finishes on shard 0.
    for handle in queued {
        let report = handle.join().expect("re-routed connection served");
        assert!(report.handshake_ok && report.requests == 1);
        assert_eq!(report.shard, 1, "re-routed links must serve on shard 1");
    }
    let held_report = held.join().expect("held connection served");
    assert!(held_report.handshake_ok && held_report.requests == 1);
    assert_eq!(
        held_report.shard, 0,
        "the in-flight link finishes where it started"
    );
    held_client.join().expect("held client");
    for client in queued_clients {
        client.join().expect("queued client");
    }

    // Aggregate accounting still balances.
    let snapshot = telemetry.snapshot();
    assert_eq!(snapshot.counter("sched.submitted"), 4);
    assert_eq!(snapshot.counter("sched.completed"), 4);
    assert_eq!(snapshot.counter("sched.rejected"), 0);
    assert_eq!(
        snapshot.counter("sched.stolen"),
        3,
        "the three re-routes are visible"
    );

    // The front door still works — through the surviving shard.
    let (client_link, server_link) = duplex_pair("after-client", "after-server");
    let after_client = std::thread::spawn(move || {
        let mut client = TlsClient::new(public_key, WedgeRng::from_seed(300));
        let conn = client.connect(&client_link).expect("handshake");
        drop(conn);
    });
    let report = server
        .serve_with_key(server_link, to_zero)
        .expect("post-kill submit")
        .join()
        .expect("post-kill serve");
    assert_eq!(report.shard, 1);
    after_client.join().expect("after client");
}

/// A connection that handshakes and then holds its shard until `release`
/// is sent. Returns once the handshake is done, i.e. once a shard worker
/// is serving the link.
fn held_connection(
    server: &ConcurrentApache,
    key: u64,
    seed: u64,
) -> (
    wedge::sched::ShardJobHandle<wedge::apache::partitioned::ConnectionReport>,
    std::sync::mpsc::Sender<()>,
    std::thread::JoinHandle<()>,
) {
    let (client_link, server_link) = duplex_pair("held-client", "held-server");
    let (handshaken_tx, handshaken) = std::sync::mpsc::channel();
    let (release, released) = std::sync::mpsc::channel::<()>();
    let public_key = server.public_key();
    let client = std::thread::spawn(move || {
        let mut client = TlsClient::new(public_key, WedgeRng::from_seed(seed));
        let mut conn = client.connect(&client_link).expect("handshake");
        handshaken_tx.send(()).unwrap();
        released.recv().unwrap();
        conn.send(&client_link, b"GET /index.html HTTP/1.0\r\n\r\n")
            .expect("send");
        let response = conn.recv(&client_link).expect("response");
        assert!(response.starts_with(b"HTTP/1.0 200 OK"));
    });
    let handle = server.serve_with_key(server_link, key).expect("held");
    handshaken.recv().expect("handshake done");
    (handle, release, client)
}

/// A shard whose queue is full is skipped — the acceptor only surfaces
/// `ResourceExhausted` when *every* shard rejects.
#[test]
fn saturated_shard_is_skipped_until_total_exhaustion() {
    let server = sharded_server(
        8,
        ConcurrentApacheConfig {
            shards: 2,
            queue_capacity: 1,
            recycled: true,
            policy: AcceptPolicy::SessionAffinity,
            supervisor: None,
        },
    );
    let telemetry = Telemetry::new();
    server.instrument(&telemetry);
    let to_zero = affinity_key(0, 2);
    // Each shard saturates with one connection in service and one silent
    // client filling its single queue slot.
    let (first, release_first, first_client) = held_connection(&server, to_zero, 801);
    assert_eq!(first.placed_on(), 0);
    let (silent_a, server_a) = duplex_pair("silent-a", "server-a");
    let queued_a = server.serve_with_key(server_a, to_zero).expect("queued a");
    assert_eq!(queued_a.placed_on(), 0);
    let (second, release_second, second_client) = held_connection(&server, to_zero, 802);
    assert_eq!(second.placed_on(), 1, "saturated shard 0 must be skipped");
    let (silent_b, server_b) = duplex_pair("silent-b", "server-b");
    let queued_b = server
        .serve_with_key(server_b, affinity_key(1, 2))
        .expect("queued b");
    assert_eq!(queued_b.placed_on(), 1);
    // Now every shard rejects.
    let (_c, s) = duplex_pair("extra", "server-extra");
    let err = server.serve_with_key(s, to_zero).unwrap_err();
    assert!(matches!(
        err,
        wedge::core::WedgeError::ResourceExhausted { .. }
    ));
    let snapshot = telemetry.snapshot();
    assert_eq!(snapshot.counter("sched.rejected"), 1);
    assert_eq!(snapshot.counter("sched.stolen"), 1);
    release_first.send(()).unwrap();
    release_second.send(()).unwrap();
    first_client.join().expect("first client");
    second_client.join().expect("second client");
    drop((silent_a, silent_b));
    for handle in [first, queued_a, second, queued_b] {
        handle.join().expect("resolved");
    }
    let snapshot = telemetry.snapshot();
    assert_eq!(
        snapshot.counter("sched.submitted"),
        snapshot.counter("sched.completed") + snapshot.counter("sched.rejected")
    );
}

/// The ISSUE acceptance criterion for the shared session cache: a client
/// handshakes on shard A, reconnects, lands on shard B via round-robin,
/// and still gets the abbreviated handshake (cache hit) with identical
/// derived-key fingerprints on both sides.
#[test]
fn resumption_survives_landing_on_a_different_shard() {
    let server = sharded_server(
        9,
        ConcurrentApacheConfig {
            shards: 2,
            ..ConcurrentApacheConfig::default()
        },
    );
    let public_key = server.public_key();
    let mut client = TlsClient::new(public_key, WedgeRng::from_seed(500));

    let run_connection = |client: &mut TlsClient| {
        let (client_link, server_link) = duplex_pair("roaming-client", "server");
        let handle = server.serve(server_link).expect("submit");
        let conn = client.connect(&client_link).expect("handshake");
        // Hang up so the shard's client handler finishes.
        drop(client_link);
        let report = handle.join().expect("serve");
        (conn, report)
    };

    // First connection: full handshake on shard A.
    let (first_conn, first_report) = run_connection(&mut client);
    assert!(first_report.handshake_ok);
    assert!(!first_report.resumed && !first_conn.resumed);
    assert_eq!(
        first_report.key_fingerprint,
        first_conn.keys.fingerprint(),
        "client and serving shard must derive identical keys"
    );

    // Second connection: round-robin lands the *other* shard, which never
    // saw the original handshake — the shared cache still resumes it.
    let (second_conn, second_report) = run_connection(&mut client);
    assert!(second_report.handshake_ok);
    assert_ne!(
        second_report.shard, first_report.shard,
        "round-robin must land the reconnect on a different shard"
    );
    assert!(
        second_report.resumed && second_conn.resumed,
        "the abbreviated handshake must work cross-shard"
    );
    assert_eq!(
        second_report.key_fingerprint,
        second_conn.keys.fingerprint(),
        "resumed keys must match on both sides"
    );
    // Same session, fresh randoms: same premaster, different keys.
    assert_eq!(second_conn.session_id, first_conn.session_id);
    assert_ne!(
        second_conn.keys.fingerprint(),
        first_conn.keys.fingerprint()
    );

    // The shared lookup service saw exactly one insert and one hit.
    let (hits, misses) = server.session_cache().stats();
    assert_eq!(hits, 1, "shard B must hit the session shard A cached");
    assert_eq!(misses, 0);
    assert_eq!(server.session_cache().len(), 1);

    // Both shards did real work: one full handshake each side.
    let per_shard = server.shard_stats();
    assert!(per_shard.iter().all(|s| s.kernel.sthreads_created > 0));
    assert!(per_shard.iter().all(|s| s.healthy));
    assert_eq!(server.shards(), 2);
}
