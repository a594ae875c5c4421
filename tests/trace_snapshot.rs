//! The tracing acceptance run: one `Tracer` on one `Telemetry` registry
//! observes a full request path — listener accept, shard queue + serve,
//! kernel policy mutations, the TLS handshake, and the cachenet
//! write-through to a remote cache node — and at least one retained
//! trace must carry causally-linked spans from **every** one of those
//! layers, with its sequential phases summing to within the trace
//! total.
//!
//! The retained traces are also written as JSON to
//! `TRACES_snapshot.json` (override with `WEDGE_TRACES_JSON`), the
//! flight-recorder artifact CI uploads next to `TELEMETRY_snapshot.json`
//! and the `BENCH_*.json` files.

use std::sync::Arc;
use std::time::Duration;

use wedge::apache::{ConcurrentApache, ConcurrentApacheConfig, PageStore};
use wedge::cachenet::{CacheNode, CacheNodeConfig, CacheRing, CacheRingConfig};
use wedge::crypto::{RsaKeyPair, WedgeRng};
use wedge::net::{Listener, SourceAddr};
use wedge::telemetry::{SpanKind, Telemetry, Tracer, TracerConfig};
use wedge::tls::TlsClient;

const SESSIONS: usize = 8;

/// Where the JSON artifact goes: `WEDGE_TRACES_JSON`, defaulting to
/// `TRACES_snapshot.json` at the workspace root.
fn artifact_path() -> String {
    std::env::var("WEDGE_TRACES_JSON")
        .unwrap_or_else(|_| format!("{}/TRACES_snapshot.json", env!("CARGO_MANIFEST_DIR")))
}

#[test]
fn one_retained_trace_spans_every_layer() {
    let telemetry = Telemetry::new();
    // Zero total-SLO: every completed trace is "slow", so the tail
    // sampler retains everything this run produces (up to capacity) and
    // the test never races the latency of a loaded CI machine.
    let tracer = Tracer::new(TracerConfig {
        slo_total: Duration::ZERO,
        retain_capacity: 2 * SESSIONS,
        ..TracerConfig::default()
    });
    telemetry.install_tracer(tracer.clone());

    // The second "machine" of the ring: cache nodes serving over the
    // wire protocol, instrumented on the same registry so their
    // server-side spans land in the same tracer the edge machine uses.
    let nodes: Vec<CacheNode> = (0..2)
        .map(|n| CacheNode::spawn(CacheNodeConfig::named(&format!("trace-cache-{n}"))))
        .collect();
    for node in &nodes {
        node.instrument(&telemetry);
    }
    let ring = Arc::new(CacheRing::new(
        nodes.iter().map(CacheNode::endpoint).collect(),
        CacheRingConfig {
            source: SourceAddr::new([10, 90, 0, 1], 45_000),
            op_timeout: Duration::from_millis(500),
            ..CacheRingConfig::default()
        },
    ));
    ring.instrument(&telemetry);

    let keypair = RsaKeyPair::generate(&mut WedgeRng::from_seed(0x7ace));
    let machine = Arc::new(
        ConcurrentApache::with_session_store(
            keypair,
            PageStore::sample(),
            ConcurrentApacheConfig {
                shards: 2,
                ..ConcurrentApacheConfig::default()
            },
            ring,
        )
        .expect("machine front-end"),
    );
    machine.instrument(&telemetry);

    // Roots are minted at accept, so every connection through the
    // listener becomes one causal trace.
    let listener = Listener::bind("trace-edge", SESSIONS);
    listener.instrument(&telemetry);
    let serve = {
        let machine = machine.clone();
        let listener = listener.clone();
        std::thread::spawn(move || machine.serve_listener(&listener, 4))
    };
    for i in 0..SESSIONS {
        let mut client =
            TlsClient::new(machine.public_key(), WedgeRng::from_seed(9_000 + i as u64));
        let source = SourceAddr::new([10, 91, 0, i as u8], 40_000 + i as u16);
        let link = listener.connect(source).expect("connect");
        let conn = client.connect(&link).expect("handshake");
        assert!(!conn.resumed, "first contact is a full handshake");
    }
    listener.close();
    let outcomes = serve.join().expect("accept loop");
    assert_eq!(outcomes.len(), SESSIONS);

    // --- the registry-level trace counters moved.
    let snapshot = telemetry.snapshot();
    assert!(snapshot.counter("trace.started") >= SESSIONS as u64);
    assert!(snapshot.counter("trace.retained") >= 1);
    let serve_spans = snapshot.histogram("trace.serve").expect("serve spans");
    assert!(serve_spans.count >= SESSIONS as u64);

    // --- at least one retained trace crosses every layer: accept →
    // park → queue → serve on the edge machine, policy mutations in the kernel,
    // the handshake, and a cachenet round trip whose server half joined
    // over the wire extension.
    let retained = tracer.retained();
    assert!(!retained.is_empty(), "the tail sampler retained traces");
    let full = retained
        .iter()
        .find(|t| {
            [
                SpanKind::Accept,
                SpanKind::Park,
                SpanKind::Queue,
                SpanKind::Serve,
                SpanKind::Handshake,
                SpanKind::KernelApply,
                SpanKind::Cachenet,
                SpanKind::CachenetServe,
            ]
            .iter()
            .all(|&k| t.spans.iter().any(|s| s.kind == k))
        })
        .expect("one trace spanning accept → serve → kernel → cachenet → remote node");
    assert_eq!(full.reason, "slow", "zero SLO promotes every trace");

    // Causality across the wire: the node's server span is parented on
    // the ring client span whose frame carried the trace extension.
    let client_span = full
        .spans
        .iter()
        .find(|s| s.kind == SpanKind::Cachenet)
        .expect("ring client span");
    assert!(
        full.spans
            .iter()
            .any(|s| s.kind == SpanKind::CachenetServe && s.parent_id == client_span.span_id),
        "the remote serve span hangs under the ring client span"
    );

    // The sequential request phases partition the root: their durations
    // sum to within the trace total. (Handshake, kernel and cachenet
    // spans nest *inside* serve, so they are excluded from the sum.)
    let sequential = full.phase_ns(SpanKind::Accept)
        + full.phase_ns(SpanKind::Park)
        + full.phase_ns(SpanKind::Queue)
        + full.phase_ns(SpanKind::Serve);
    assert!(
        sequential <= full.total_ns,
        "accept + park + queue + serve ({sequential} ns) exceed the trace total ({} ns)",
        full.total_ns
    );
    // ...and leave no hole: the wait for the client's first byte is the
    // `park` span now, not 20 ms nobody measured.
    assert!(
        full.total_ns - sequential <= full.total_ns / 10,
        "{} of {} ns unattributed",
        full.total_ns - sequential,
        full.total_ns
    );
    assert!(full.phase_ns(SpanKind::Serve) > 0, "serve took real time");
    // And every span of the trace belongs to it.
    assert!(full.spans.iter().all(|s| s.trace_id == full.trace_id));

    // --- export: the CI artifact, and a sanity pass over the JSON shape.
    let json = tracer.to_json();
    assert!(json.starts_with(r#"{"traces":{"retained":"#));
    assert!(json.contains(r#""kind":"cachenet.serve""#));
    assert_eq!(json.matches('{').count(), json.matches('}').count());
    let path = artifact_path();
    std::fs::write(&path, format!("{json}\n")).expect("write traces artifact");
    println!("wrote {path}");
}
