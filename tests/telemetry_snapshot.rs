//! The observability acceptance run: one `Telemetry` registry observes
//! the whole serving stack at once — a rate-limited listener, two
//! sharded HTTPS "machines" sharing a cachenet ring (with a node killed
//! mid-run), TLS full-vs-abbreviated handshakes, and a standalone
//! kernel producing a policy violation — and a single
//! `TelemetrySnapshot` must carry populated metrics from every layer,
//! including p50/p99/p999 serve and lookup latency.
//!
//! The snapshot is also written as JSON to `TELEMETRY_snapshot.json`
//! (override with `WEDGE_TELEMETRY_JSON`), the artifact CI uploads next
//! to the `BENCH_*.json` files.

use std::sync::Arc;
use std::time::Duration;

use wedge::apache::{ConcurrentApache, ConcurrentApacheConfig, PageStore};
use wedge::cachenet::{CacheNode, CacheNodeConfig, CacheRing, CacheRingConfig};
use wedge::crypto::{RsaKeyPair, WedgeRng};
use wedge::net::{duplex_pair, Listener, RateLimitConfig, SourceAddr};
use wedge::telemetry::Telemetry;
use wedge::tls::{SessionId, SessionStore, TlsClient};

const SESSIONS: usize = 12;

fn ring_for(nodes: &[CacheNode], machine: u8) -> Arc<CacheRing> {
    Arc::new(CacheRing::new(
        nodes.iter().map(CacheNode::endpoint).collect(),
        CacheRingConfig {
            source: SourceAddr::new([10, 80, 0, machine], 45_000),
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

/// One direct connection through `front`; returns whether it resumed.
fn connect_direct(front: &ConcurrentApache, client: &mut TlsClient) -> bool {
    let (client_link, server_link) = duplex_pair("client", "server");
    let handle = front.serve(server_link).expect("submit");
    let conn = client.connect(&client_link).expect("handshake");
    drop(client_link);
    let report = handle.join().expect("serve");
    assert!(report.handshake_ok);
    conn.resumed
}

/// Where the JSON artifact goes: `WEDGE_TELEMETRY_JSON`, defaulting to
/// `TELEMETRY_snapshot.json` at the workspace root.
fn artifact_path() -> String {
    std::env::var("WEDGE_TELEMETRY_JSON")
        .unwrap_or_else(|_| format!("{}/TELEMETRY_snapshot.json", env!("CARGO_MANIFEST_DIR")))
}

#[test]
fn one_snapshot_observes_every_layer() {
    let telemetry = Telemetry::new();

    // --- cachenet ring + two machines, all on the one registry.
    let nodes: Vec<CacheNode> = (0..3)
        .map(|n| CacheNode::spawn(CacheNodeConfig::named(&format!("telemetry-cache-{n}"))))
        .collect();
    for node in &nodes {
        node.instrument(&telemetry);
    }
    let ring_a = ring_for(&nodes, 1);
    let ring_b = ring_for(&nodes, 2);
    ring_a.instrument(&telemetry);
    ring_b.instrument(&telemetry);
    let keypair = RsaKeyPair::generate(&mut WedgeRng::from_seed(8086));
    let machine_a = Arc::new(machine(keypair, ring_a));
    let machine_b = machine(keypair, ring_b.clone());
    machine_a.instrument(&telemetry);
    machine_b.instrument(&telemetry);
    // Post-boot: one root compartment per shard kernel, nothing else.
    let booted = telemetry.snapshot();
    assert_eq!(booted.counter("kernel.compartments.resident"), 4);
    assert_eq!(booted.counter("kernel.compartments.retired"), 0);

    // --- machine A's connections arrive through a rate-limited listener.
    let listener = Listener::bind_rate_limited(
        "tls-edge",
        SESSIONS,
        RateLimitConfig {
            burst: 2,
            refill_per_sec: 0.0,
        },
    );
    listener.instrument(&telemetry);
    let serve = {
        let machine_a = machine_a.clone();
        let listener = listener.clone();
        std::thread::spawn(move || machine_a.serve_listener(&listener, 8))
    };
    let mut clients: Vec<TlsClient> = (0..SESSIONS)
        .map(|i| {
            TlsClient::new(
                machine_a.public_key(),
                WedgeRng::from_seed(7_000 + i as u64),
            )
        })
        .collect();
    for (i, client) in clients.iter_mut().enumerate() {
        // Distinct hosts, so the per-source limiter never bites real
        // traffic (burst 2, one connect each).
        let source = SourceAddr::new([10, 81, 0, i as u8], 40_000 + i as u16);
        let link = listener.connect(source).expect("connect");
        let conn = client.connect(&link).expect("handshake");
        assert!(!conn.resumed, "first contact is a full handshake");
    }
    // One host floods: its 2 burst tokens admit dead links (dropped at
    // once, so their serves fail fast on EOF rather than hanging the
    // accept loop), then the empty bucket refuses every further connect
    // before any link is built.
    let flood = SourceAddr::new([10, 82, 0, 1], 50_000);
    drop(listener.connect(flood).expect("first burst token"));
    drop(listener.connect(flood).expect("second burst token"));
    let mut rate_limited_refusals = 0;
    for _ in 0..6 {
        if listener.connect(flood).is_err() {
            rate_limited_refusals += 1;
        }
    }
    assert_eq!(
        rate_limited_refusals, 6,
        "empty bucket refuses every connect"
    );
    listener.close();
    let outcomes = serve.join().expect("accept loop");
    // The 12 real sessions handshook; the 2 burst flood links carried no
    // client and fail their serve — still accounted, never dropped.
    assert_eq!(outcomes.len(), SESSIONS + 2);
    assert_eq!(
        outcomes
            .iter()
            .filter(|o| o.as_ref().is_ok_and(|r| r.handshake_ok))
            .count(),
        SESSIONS,
        "every real session handshakes; the two dead flood links do not"
    );

    // --- the clients roam to machine B; a cache node dies mid-run, so
    // lookups split into remote hits, failures (opening a breaker) and
    // local misses.
    let mut resumed = 0usize;
    for (i, client) in clients.iter_mut().enumerate() {
        if i == SESSIONS / 2 {
            nodes[0].kill();
        }
        if connect_direct(&machine_b, client) {
            resumed += 1;
        }
    }
    assert!(
        resumed > 0,
        "cross-machine resumption must survive the kill"
    );
    // Whether any roamed session's id ranks the killed node first is up
    // to this run's session ids — drive a spread of fixed probe ids
    // through ring B so at least one lookup deterministically routes to
    // the dead node, fails, and opens its breaker.
    for probe in 0..16u8 {
        let _ = SessionStore::lookup(
            ring_b.as_ref(),
            &SessionId::from_bytes(&[probe; 16]).expect("16 bytes"),
        );
    }

    // --- a standalone kernel on the same plane produces a violation.
    let wedge = wedge::core::Wedge::init();
    wedge.kernel().instrument(&telemetry);
    let root = wedge.root();
    let tag = root.tag_new().expect("tag");
    let buf = root.smalloc_init(tag, b"secret").expect("buf");
    let snoop = root
        .sthread_create(
            "snoop",
            &wedge::core::SecurityPolicy::deny_all(),
            move |ctx| ctx.read(&buf, 0, 6).is_err(),
        )
        .expect("spawn");
    assert!(snoop.join().expect("snoop"), "deny-all read must fault");

    // --- one snapshot, every layer populated.
    let snapshot = telemetry.snapshot();

    // Listener: accepts, refusals, and specifically rate-limited ones.
    assert_eq!(snapshot.counter("listener.accept"), (SESSIONS + 2) as u64);
    assert_eq!(snapshot.counter("listener.refused"), 6);
    assert_eq!(snapshot.counter("listener.rate_limited"), 6);

    // Placement + queue depth.
    let submitted = snapshot.counter("sched.submitted");
    assert!(
        submitted >= (2 * SESSIONS + 2) as u64,
        "both machines observed"
    );
    assert_eq!(
        submitted,
        snapshot.counter("sched.completed") + snapshot.counter("sched.rejected")
    );
    assert!(snapshot.get("shard.queue_depth").is_some());
    assert!(snapshot.counter("shard.queue_depth.peak") >= 1);
    assert_eq!(
        snapshot.counter("shard.healthy"),
        4,
        "2 shards x 2 machines"
    );

    // TLS: full on machine A (and post-kill misses on B), abbreviated on B.
    assert!(snapshot.counter("tls.handshake.full") >= SESSIONS as u64);
    assert_eq!(
        snapshot.counter("tls.handshake.abbreviated"),
        resumed as u64
    );

    // Cachenet: hits, misses and breaker state after the node kill.
    assert!(snapshot.counter("cachenet.write_throughs") >= SESSIONS as u64);
    assert!(snapshot.counter("cachenet.remote_hits") >= resumed as u64);
    assert!(
        snapshot.counter("cachenet.failures") >= 1,
        "lookups against the killed node must fail"
    );
    assert!(snapshot.counter("cachenet.circuit_opens") >= 1);
    assert!(snapshot.get("cachenet.breaker_open").is_some());
    assert!(snapshot.counter("cachenet.node.inserts") >= SESSIONS as u64);

    // Kernel: reads flowed and the violation was recorded.
    assert!(snapshot.counter("kernel.read") >= 1);
    assert!(snapshot.counter("kernel.violations") >= 1);

    // Kernel footprint: the machines run recycled, so a connection creates
    // and retires nothing — the only sthread that ever exited (and exiting
    // retires) is the standalone kernel's `snoop`. Every other sthread ever
    // created is a recycled one, still resident next to the post-boot
    // roots (plus the standalone kernel's) and the long-lived recycled-gate
    // workers, which on a recycled server are the only callgate activations
    // ever registered; nothing else, however many connections were served.
    let retired = snapshot.counter("kernel.compartments.retired");
    assert_eq!(retired, 1, "the gate is void if nothing retired");
    let recycled_sthreads = snapshot.counter("kernel.sthreads") - retired;
    assert!(
        (4..=8).contains(&recycled_sthreads),
        "1-2 on each of 4 shards"
    );
    let gate_workers = machine_a.kernel_stats().callgate_invocations
        + machine_b.kernel_stats().callgate_invocations;
    assert_eq!(
        snapshot.counter("kernel.compartments.resident"),
        booted.counter("kernel.compartments.resident") + 1 + gate_workers + recycled_sthreads
    );
    // Two bodies ran per completed handshake, one per dead flood link.
    assert_eq!(
        snapshot.counter("kernel.sthreads.recycled_runs"),
        (2 * 2 * SESSIONS + 2) as u64
    );
    assert!(snapshot.get("kernel.policy.mutations").is_some());
    assert!(snapshot.get("kernel.permcache.flushes").is_some());
    assert_eq!(snapshot.counter("kernel.violations.dropped"), 0);

    // Latency distributions: shard serve and ring lookup.
    let serve = snapshot.histogram("shard.serve").expect("serve latency");
    assert_eq!(serve.count, submitted);
    assert!(serve.p50_nanos > 0);
    assert!(serve.p99_nanos >= serve.p50_nanos);
    assert!(serve.p999_nanos >= serve.p99_nanos);
    assert!(serve.max_nanos >= serve.p999_nanos);
    let lookup = snapshot
        .histogram("cachenet.lookup")
        .expect("lookup latency");
    assert!(lookup.count >= SESSIONS as u64);
    assert!(lookup.p999_nanos >= lookup.p99_nanos && lookup.p99_nanos >= lookup.p50_nanos);

    // --- export: the CI artifact, and a sanity pass over the JSON shape.
    let json = snapshot.to_json();
    assert!(json.starts_with(r#"{"telemetry":{"#));
    assert!(json.contains(r#""shard.serve":{"count":"#));
    assert!(json.contains(r#""p999_ns":"#));
    assert_eq!(json.matches('{').count(), json.matches('}').count());
    let path = artifact_path();
    std::fs::write(&path, format!("{json}\n")).expect("write telemetry artifact");
    println!("wrote {path}");
    println!("{}", snapshot.to_text());
}
