//! Cross-machine TLS resumption through a distributed cache ring: two
//! independent sharded HTTPS front-ends ("machines") share a 3-node
//! session-cache ring. Clients handshake on machine A and resume with
//! the abbreviated handshake on machine B; mid-run one cache node is
//! killed (circuit-breaking + miss-through) and restarted (epoch bump —
//! its stale entries are invalidated, not served).
//!
//! Run with `cargo run --release --example cachenet_ring`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use wedge::apache::{ConcurrentApache, ConcurrentApacheConfig, PageStore};
use wedge::cachenet::{CacheNode, CacheNodeConfig, CacheRing, CacheRingConfig};
use wedge::crypto::{RsaKeyPair, WedgeRng};
use wedge::net::{duplex_pair, SourceAddr};
use wedge::tls::TlsClient;

const SESSIONS: usize = 24;

fn ring_for(nodes: &[CacheNode], machine: u8) -> Arc<CacheRing> {
    Arc::new(CacheRing::new(
        nodes.iter().map(CacheNode::endpoint).collect(),
        CacheRingConfig {
            source: SourceAddr::new([10, 60, 0, machine], 45_000),
            op_timeout: Duration::from_millis(200),
            breaker_threshold: 1,
            breaker_cooldown: Duration::from_millis(100),
            ..CacheRingConfig::default()
        },
    ))
}

fn machine(keypair: RsaKeyPair, ring: Arc<CacheRing>) -> ConcurrentApache {
    ConcurrentApache::with_session_store(
        keypair,
        PageStore::sample(),
        ConcurrentApacheConfig {
            shards: 2,
            ..ConcurrentApacheConfig::default()
        },
        ring,
    )
    .expect("machine front-end")
}

/// One connection through `front`; returns whether it resumed.
fn connect_once(front: &ConcurrentApache, client: &mut TlsClient) -> bool {
    let (client_link, server_link) = duplex_pair("client", "server");
    let handle = front.serve(server_link).expect("submit");
    let conn = client.connect(&client_link).expect("handshake");
    drop(client_link);
    let report = handle.join().expect("serve");
    assert!(report.handshake_ok);
    assert_eq!(report.key_fingerprint, conn.keys.fingerprint());
    conn.resumed
}

fn main() {
    let nodes: Vec<CacheNode> = (0..3)
        .map(|n| CacheNode::spawn(CacheNodeConfig::named(&format!("cache-{n}"))))
        .collect();
    let ring_a = ring_for(&nodes, 1);
    let ring_b = ring_for(&nodes, 2);
    let keypair = RsaKeyPair::generate(&mut WedgeRng::from_seed(2026));
    let machine_a = machine(keypair, ring_a.clone());
    let machine_b = machine(keypair, ring_b.clone());

    // One registry observes both machines, both ring clients and all
    // three cache nodes; same-named metrics merge additively.
    let telemetry = wedge::telemetry::Telemetry::new();
    machine_a.instrument(&telemetry);
    machine_b.instrument(&telemetry);
    ring_a.instrument(&telemetry);
    ring_b.instrument(&telemetry);
    for node in &nodes {
        node.instrument(&telemetry);
    }

    println!("two 2-shard machines sharing a 3-node cache ring; {SESSIONS} roaming clients\n");

    // Phase 1: full handshakes on machine A.
    let started = Instant::now();
    let mut clients: Vec<TlsClient> = (0..SESSIONS)
        .map(|i| {
            TlsClient::new(
                machine_a.public_key(),
                WedgeRng::from_seed(9_000 + i as u64),
            )
        })
        .collect();
    for client in &mut clients {
        assert!(!connect_once(&machine_a, client), "first contact is full");
    }
    let resident: usize = nodes.iter().map(CacheNode::len).sum();
    println!(
        "phase 1  machine A: {SESSIONS} full handshakes, {resident} sessions written \
         through to the ring ({:?})",
        started.elapsed()
    );

    // Phase 2: the same clients roam to machine B; kill cache-0 mid-run.
    let mut resumed = 0usize;
    for (i, client) in clients.iter_mut().enumerate() {
        if i == SESSIONS / 2 {
            nodes[0].kill();
            println!("phase 2  !! cache-0 killed mid-run");
        }
        if connect_once(&machine_b, client) {
            resumed += 1;
        }
    }
    println!("phase 2  machine B: {resumed}/{SESSIONS} abbreviated handshakes");
    assert!(resumed > 0, "cross-machine resumption must work");

    // Phase 3: restart cache-0 — epoch bumps, its surviving pre-restart
    // entries are stale. A *fresh* machine C (cold ring, cold local
    // tier) touches them: each is invalidated and answered Miss, never
    // served — those clients pay one full handshake; everyone else keeps
    // resuming.
    nodes[0].restart();
    let ring_c = ring_for(&nodes, 3);
    ring_c.instrument(&telemetry);
    let machine_c = machine(keypair, ring_c);
    machine_c.instrument(&telemetry);
    let mut resumed_after = 0usize;
    for client in clients.iter_mut() {
        if connect_once(&machine_c, client) {
            resumed_after += 1;
        }
    }
    // Every layer — shards, TLS handshakes, both ring clients, all three
    // cache nodes — lands in one unified snapshot.
    let snapshot = telemetry.snapshot();
    // Only cache-0 restarted, so every stale entry was one of its own.
    let stale = snapshot.counter("cachenet.node.stale_invalidated");
    println!(
        "phase 3  cache-0 restarted at epoch {} — machine C: {stale} stale entries \
         invalidated (full handshakes), {resumed_after}/{SESSIONS} resumed",
        nodes[0].epoch(),
    );
    assert!(
        stale > 0,
        "some sessions were still owned by cache-0 and must invalidate"
    );
    println!("\ntelemetry snapshot:\n{}", snapshot.to_text());

    assert_eq!(
        snapshot.counter("sched.submitted"),
        snapshot.counter("sched.completed") + snapshot.counter("sched.rejected")
    );
    assert!(snapshot.counter("tls.handshake.abbreviated") >= resumed as u64);
    assert!(snapshot.counter("cachenet.remote_hits") > 0);
    let lookup = snapshot.histogram("cachenet.lookup").expect("ring latency");
    assert!(lookup.count > 0 && lookup.p99_nanos >= lookup.p50_nanos);
    println!("OK: sessions roam machines through the cache ring, node death degrades");
    println!("    to bounded full handshakes, and a restarted node never serves stale keys.");
}
