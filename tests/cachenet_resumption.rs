//! Integration tests for the distributed session-cache protocol: TLS
//! resumption across *machines* (independent sharded front-ends that
//! share nothing but a cache ring), cache-node failure with miss-through,
//! epoch invalidation after a node restart, and the release-mode
//! acceptance run with a node killed mid-traffic and zero hung links.

use std::sync::Arc;
use std::time::{Duration, Instant};

use wedge::apache::partitioned::ConnectionReport;
use wedge::apache::{ConcurrentApache, ConcurrentApacheConfig, PageStore};
use wedge::cachenet::{CacheNode, CacheNodeConfig, CacheRing, CacheRingConfig};
use wedge::crypto::{RsaKeyPair, WedgeRng};
use wedge::net::{duplex_pair, SourceAddr};
use wedge::telemetry::Telemetry;
use wedge::tls::TlsClient;

/// Spin up a 3-node cache ring's server side.
fn cache_nodes() -> Vec<CacheNode> {
    (0..3)
        .map(|n| CacheNode::spawn(CacheNodeConfig::named(&format!("cache-{n}"))))
        .collect()
}

/// A ring client for one machine, quick enough for tests: short bounded
/// op timeout, circuit opens on the first failure.
fn ring_for(nodes: &[CacheNode], machine: u8) -> Arc<CacheRing> {
    Arc::new(CacheRing::new(
        nodes.iter().map(CacheNode::endpoint).collect(),
        CacheRingConfig {
            source: SourceAddr::new([10, 50, 0, machine], 45_000),
            op_timeout: Duration::from_millis(200),
            breaker_threshold: 1,
            breaker_cooldown: Duration::from_millis(100),
            local_capacity: 256,
        },
    ))
}

/// One "machine": an independent sharded HTTPS front-end whose shards
/// consult `ring` instead of a process-local cache.
fn machine(keypair: RsaKeyPair, ring: Arc<CacheRing>) -> ConcurrentApache {
    ConcurrentApache::with_session_store(
        keypair,
        PageStore::sample(),
        ConcurrentApacheConfig {
            shards: 2,
            queue_capacity: 16,
            ..ConcurrentApacheConfig::default()
        },
        ring,
    )
    .expect("machine front-end")
}

/// Drive one connection through `front`: handshake, then hang up.
fn run_connection(front: &ConcurrentApache, client: &mut TlsClient) -> (bool, ConnectionReport) {
    let (client_link, server_link) = duplex_pair("roaming-client", "server");
    let handle = front.serve(server_link).expect("submit");
    let conn = client.connect(&client_link).expect("handshake");
    drop(client_link);
    let report = handle.join().expect("serve");
    assert!(report.handshake_ok, "handshake must complete");
    assert_eq!(
        report.key_fingerprint,
        conn.keys.fingerprint(),
        "client and server must derive identical keys"
    );
    (conn.resumed, report)
}

/// The tentpole story: a session established through machine A resumes
/// with the **abbreviated handshake** through machine B — two fully
/// independent front-ends (own kernels, own shards, own acceptors) that
/// share nothing but the cache ring.
#[test]
fn session_established_on_machine_a_resumes_on_machine_b() {
    let nodes = cache_nodes();
    let ring_a = ring_for(&nodes, 1);
    let ring_b = ring_for(&nodes, 2);
    let keypair = RsaKeyPair::generate(&mut WedgeRng::from_seed(77));
    let machine_a = machine(keypair, ring_a.clone());
    let machine_b = machine(keypair, ring_b.clone());
    let (telemetry_a, telemetry_b) = (Telemetry::new(), Telemetry::new());
    ring_a.instrument(&telemetry_a);
    ring_b.instrument(&telemetry_b);

    let mut client = TlsClient::new(machine_a.public_key(), WedgeRng::from_seed(700));

    // Full handshake through machine A.
    let (resumed, _report) = run_connection(&machine_a, &mut client);
    assert!(!resumed, "first contact is a full handshake");
    assert_eq!(
        telemetry_a.snapshot().counter("cachenet.write_throughs"),
        1,
        "the premaster was written through to a cache node"
    );
    let resident: usize = nodes.iter().map(CacheNode::len).sum();
    assert_eq!(resident, 1, "exactly one node owns the session");

    // Abbreviated handshake through machine B — which never saw the
    // original handshake and shares no memory with machine A.
    let (resumed, _report) = run_connection(&machine_b, &mut client);
    assert!(resumed, "machine B must resume via the cache ring");
    assert_eq!(telemetry_b.snapshot().counter("cachenet.remote_hits"), 1);
    assert_eq!(
        machine_b.resumption_hit_rate(),
        Some(1.0),
        "the front-end exposes the ring's resumption health"
    );
    // Machine A's ring never looked anything up (fresh handshake only).
    assert_eq!(machine_a.resumption_hit_rate(), None);
}

/// Kill the cache node that owns a session: the next reconnect pays a
/// bounded miss (full handshake — never a hang), the key re-routes to a
/// surviving node, and the session after that resumes again.
#[test]
fn node_death_degrades_to_full_handshake_then_recovers() {
    let nodes = cache_nodes();
    let ring_a = ring_for(&nodes, 1);
    let ring_b = ring_for(&nodes, 2);
    let keypair = RsaKeyPair::generate(&mut WedgeRng::from_seed(78));
    let machine_a = machine(keypair, ring_a.clone());
    let machine_b = machine(keypair, ring_b);

    let mut client = TlsClient::new(machine_a.public_key(), WedgeRng::from_seed(800));
    let (_, _) = run_connection(&machine_a, &mut client);
    let session_id = client.cached_session.as_ref().expect("cached").0;
    let owner = ring_a.route_of(&session_id).expect("routed");
    nodes[owner].kill();

    // Machine B's lookup fails over (bounded) and misses: full handshake,
    // no hang, and the *new* session write-through lands on a survivor.
    let started = Instant::now();
    let (resumed, _report) = run_connection(&machine_b, &mut client);
    assert!(!resumed, "owner dead, B local tier cold: full handshake");
    assert!(
        started.elapsed() < Duration::from_secs(3),
        "node death must never hang the handshake path"
    );

    // The replacement session resumes — through B's warmed tiers or the
    // surviving owner-by-rendezvous.
    let (resumed, _report) = run_connection(&machine_b, &mut client);
    assert!(
        resumed,
        "the ring must recover after one degraded handshake"
    );
    let survivors: usize = nodes
        .iter()
        .enumerate()
        .filter(|(idx, _)| *idx != owner)
        .map(|(_, node)| node.len())
        .sum();
    assert!(survivors >= 1, "the key re-routed to a surviving node");
}

/// Epoch invalidation: a cache node that comes back from a restart with
/// pre-restart entries must *invalidate* them on first touch, not serve
/// them — the reconnect sees a clean miss and a full handshake.
#[test]
fn restarted_node_invalidates_stale_entries_instead_of_serving_them() {
    let nodes = cache_nodes();
    let ring_a = ring_for(&nodes, 1);
    let ring_b = ring_for(&nodes, 2);
    let keypair = RsaKeyPair::generate(&mut WedgeRng::from_seed(79));
    let machine_a = machine(keypair, ring_a.clone());
    let machine_b = machine(keypair, ring_b.clone());
    let telemetry = Telemetry::new();
    ring_b.instrument(&telemetry);
    for node in &nodes {
        node.instrument(&telemetry);
    }

    let mut client = TlsClient::new(machine_a.public_key(), WedgeRng::from_seed(900));
    let (_, _) = run_connection(&machine_a, &mut client);
    let session_id = client.cached_session.as_ref().expect("cached").0;
    let owner = ring_a.route_of(&session_id).expect("routed");
    assert_eq!(nodes[owner].len(), 1, "owner holds the session");

    // Restart the owner: epoch 1 → 2, the entry physically survives.
    nodes[owner].kill();
    nodes[owner].restart();
    assert_eq!(nodes[owner].epoch(), 2);
    assert_eq!(nodes[owner].len(), 1, "stale entry still resident");

    // Machine B routes to the restarted owner, which refuses to serve
    // the stale premaster: miss, invalidation, full handshake.
    let (resumed, _report) = run_connection(&machine_b, &mut client);
    assert!(!resumed, "a stale pre-restart entry must never be served");
    let snapshot = telemetry.snapshot();
    assert_eq!(
        snapshot.counter("cachenet.node.stale_invalidated"),
        1,
        "the stale entry was invalidated on first touch"
    );
    assert!(
        snapshot.counter("cachenet.remote_misses") >= 1,
        "B observed the miss, not an error"
    );
    // The fresh session (inserted under epoch 2) resumes normally.
    let (resumed, _report) = run_connection(&machine_b, &mut client);
    assert!(resumed, "post-restart sessions serve normally");
}

/// The acceptance run: `sessions` clients handshake through machine A
/// and then resume through machine B while one cache node is killed
/// mid-run. Every connection on both machines must resolve (zero hung or
/// silently dropped links), the accounting must balance, and resumption
/// must keep working for sessions whose owner survived.
fn cross_machine_traffic_with_node_kill(sessions: usize) {
    let nodes = cache_nodes();
    let ring_a = ring_for(&nodes, 1);
    let ring_b = ring_for(&nodes, 2);
    let keypair = RsaKeyPair::generate(&mut WedgeRng::from_seed(80));
    let machine_a = machine(keypair, ring_a.clone());
    let machine_b = machine(keypair, ring_b.clone());
    let (telemetry_a, telemetry_b) = (Telemetry::new(), Telemetry::new());
    machine_a.instrument(&telemetry_a);
    machine_b.instrument(&telemetry_b);
    ring_b.instrument(&telemetry_b);

    // Phase 1: full handshakes through machine A.
    let mut clients: Vec<TlsClient> = (0..sessions)
        .map(|i| {
            TlsClient::new(
                machine_a.public_key(),
                WedgeRng::from_seed(1_000 + i as u64),
            )
        })
        .collect();
    for client in &mut clients {
        let (resumed, _) = run_connection(&machine_a, client);
        assert!(!resumed);
    }
    let resident: usize = nodes.iter().map(CacheNode::len).sum();
    assert_eq!(resident, sessions, "every session written through");

    // Phase 2: resume through machine B, killing cache node 0 mid-run.
    let mut resumed_count = 0usize;
    let mut full_count = 0usize;
    let kill_at = sessions / 2;
    // Session ids come from OS entropy: in a small run every session resumed
    // after the kill may belong to a surviving node, and then the ring never
    // asks the dead one.
    let dead_node_is_asked = clients[kill_at..].iter().any(|client| {
        let session_id = client.cached_session.as_ref().expect("cached").0;
        ring_b.route_of(&session_id) == Some(0)
    });
    for (i, client) in clients.iter_mut().enumerate() {
        if i == kill_at {
            nodes[0].kill();
        }
        let started = Instant::now();
        let (resumed, _report) = run_connection(&machine_b, client);
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "no handshake may hang on the dead cache node"
        );
        if resumed {
            resumed_count += 1;
        } else {
            full_count += 1;
        }
    }
    assert_eq!(resumed_count + full_count, sessions, "every link resolved");
    assert!(
        resumed_count > 0,
        "sessions owned by surviving nodes must keep resuming"
    );

    // Zero silently dropped links on either machine: every submission
    // completed (none rejected, none unaccounted).
    for (name, telemetry) in [("A", &telemetry_a), ("B", &telemetry_b)] {
        let snapshot = telemetry.snapshot();
        let read = |counter: &str| snapshot.counter(&format!("sched.{counter}"));
        assert_eq!(read("submitted"), sessions as u64, "machine {name}");
        assert_eq!(read("completed"), sessions as u64, "machine {name}");
        assert_eq!(read("rejected"), 0, "machine {name}");
    }
    // The kill is visible in the ring's failure accounting (bounded
    // failures, then the breaker short-circuits the dead node).
    if dead_node_is_asked {
        let failures = telemetry_b.snapshot().counter("cachenet.failures");
        assert!(
            failures >= 1,
            "a mid-run kill surfaces as ring failures: {failures}"
        );
    }
}

/// The ISSUE acceptance criterion, release-mode: a 60-session
/// cross-machine run over a 3-node ring with a cache node killed
/// mid-run, zero hung or dropped links.
#[cfg(not(debug_assertions))]
#[test]
fn sixty_sessions_resume_cross_machine_through_a_node_kill() {
    cross_machine_traffic_with_node_kill(60);
}

/// Debug-build variant of the same scenario, small enough for plain
/// `cargo test`.
#[cfg(debug_assertions)]
#[test]
fn cross_machine_traffic_survives_a_node_kill() {
    cross_machine_traffic_with_node_kill(12);
}
