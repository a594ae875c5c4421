//! Distributed session-cache measurements: remote lookup latency vs the
//! in-process cache, and cross-machine resumption rates at 1 vs 3 cache
//! nodes when a node dies mid-run.
//!
//! The companion bench target (`benches/cachenet.rs`) emits the
//! machine-readable artifact `BENCH_cachenet.json`, in the shape
//! [`crate::report`] gives every bench artifact.

use std::sync::Arc;
use std::time::{Duration, Instant};

use wedge_apache::partitioned::ConnectionReport;
use wedge_apache::{ConcurrentApache, ConcurrentApacheConfig, PageStore};
use wedge_cachenet::{CacheNode, CacheNodeConfig, CacheRing, CacheRingConfig};
use wedge_crypto::{RsaKeyPair, WedgeRng};
use wedge_net::{duplex_pair, SourceAddr};
use wedge_tls::{SessionId, SessionStore, SharedSessionCache, TlsClient};

/// Sizing of the cachenet measurements.
#[derive(Debug, Clone, Copy)]
pub struct CachenetWorkload {
    /// Sessions driven through the cross-machine resumption runs.
    pub sessions: usize,
    /// Lookups timed for the latency comparison.
    pub lookups: usize,
}

impl Default for CachenetWorkload {
    fn default() -> Self {
        CachenetWorkload {
            sessions: 30,
            lookups: 512,
        }
    }
}

fn test_id(n: usize) -> SessionId {
    let mut bytes = [0u8; 16];
    bytes[..8].copy_from_slice(&(n as u64).to_le_bytes());
    bytes[8] = 0xBE;
    SessionId::from_bytes(&bytes).expect("16 bytes")
}

/// Spin up `count` cache nodes.
pub fn spawn_nodes(count: usize) -> Vec<CacheNode> {
    (0..count)
        .map(|n| CacheNode::spawn(CacheNodeConfig::named(&format!("bench-cache-{n}"))))
        .collect()
}

/// A quick ring client over `nodes` for simulated machine `machine`.
pub fn ring_for(nodes: &[CacheNode], machine: u8) -> Arc<CacheRing> {
    Arc::new(CacheRing::new(
        nodes.iter().map(CacheNode::endpoint).collect(),
        CacheRingConfig {
            source: SourceAddr::new([10, 70, 0, machine], 45_000),
            op_timeout: Duration::from_millis(200),
            breaker_threshold: 1,
            breaker_cooldown: Duration::from_millis(100),
            ..CacheRingConfig::default()
        },
    ))
}

/// Local-vs-remote lookup cost.
#[derive(Debug, Clone, Copy)]
pub struct LatencyComparison {
    /// Mean in-process `SharedSessionCache` lookup (the PR 3 baseline).
    pub local_avg: Duration,
    /// Mean `CacheRing` lookup answered remotely by a cache node (dial
    /// amortised over a persistent link, one protocol round trip each).
    pub remote_avg: Duration,
    /// `remote_avg / local_avg` — what crossing the simulated wire costs
    /// over touching process memory.
    pub overhead: f64,
}

/// Time `lookups` hits against the in-process cache and against a
/// 3-node ring (every ring lookup is a remote round trip — the local
/// tier is only a fallback, so the measurement isolates the protocol).
pub fn measure_lookup_latency(lookups: usize) -> LatencyComparison {
    let lookups = lookups.max(1);
    let keys: Vec<SessionId> = (0..64).map(test_id).collect();

    let local = SharedSessionCache::with_capacity(256);
    for key in &keys {
        local.insert(*key, b"premaster-secret".to_vec());
    }
    let started = Instant::now();
    for n in 0..lookups {
        assert!(local.lookup(&keys[n % keys.len()]).is_some());
    }
    let local_avg = started.elapsed() / lookups as u32;

    let nodes = spawn_nodes(3);
    // A deliberately *lenient* ring for the latency measurement: a long
    // op timeout and an effectively-disabled breaker, so one OS
    // scheduling stall on a loaded 1-core CI box cannot open a circuit
    // and silently reroute the timed lookups to the local tier (the
    // assertion below pins that every timed lookup stayed remote).
    let ring = CacheRing::new(
        nodes.iter().map(CacheNode::endpoint).collect(),
        CacheRingConfig {
            source: SourceAddr::new([10, 70, 0, 1], 45_000),
            op_timeout: Duration::from_secs(5),
            breaker_threshold: u32::MAX,
            breaker_cooldown: Duration::from_millis(100),
            ..CacheRingConfig::default()
        },
    );
    for key in &keys {
        ring.insert(*key, b"premaster-secret".to_vec());
    }
    let started = Instant::now();
    for n in 0..lookups {
        assert!(ring.lookup(&keys[n % keys.len()]).is_some());
    }
    let remote_avg = started.elapsed() / lookups as u32;
    assert!(
        ring.stats().remote_hits >= lookups as u64,
        "every timed ring lookup must be served remotely"
    );

    LatencyComparison {
        local_avg,
        remote_avg,
        overhead: remote_avg.as_secs_f64() / local_avg.as_secs_f64().max(f64::EPSILON),
    }
}

/// Batch sizes of the per-key latency ablation (and the depths of the
/// pipelined-vs-serial sweep).
pub const BATCH_SIZES: [usize; 3] = [1, 4, 16];

/// Wire-v2 economics against one cache node: what batching and
/// pipelining buy over serial single-op round trips.
#[derive(Debug, Clone, Copy)]
pub struct BatchedComparison {
    /// Per-**key** wall cost of a remote `lookup_batch` at
    /// [`BATCH_SIZES`] keys per frame (min over rounds — scheduler noise
    /// only adds time). `per_key[0]` is the single-op baseline the batch
    /// sizes amortise against.
    pub per_key: [Duration; 3],
    /// Wall per op with [`BATCH_SIZES`]`[i]` callers pipelining
    /// concurrently on the node's one persistent link.
    pub pipelined_per_op: [Duration; 3],
    /// Wall per op for the same op totals issued serially (the v1
    /// one-in-flight discipline).
    pub serial_per_op: [Duration; 3],
}

/// Measure [`BatchedComparison`] over `rounds` interleaved rounds with
/// `ops` remote lookups per configuration per round. Uses one node and a
/// breaker-disabled, long-timeout ring so every timed op is a genuine
/// remote round trip (asserted), never a local-tier fallback.
pub fn measure_batched(rounds: usize, ops: usize) -> BatchedComparison {
    let rounds = rounds.max(1);
    let ops = ops.max(BATCH_SIZES[2]);
    let nodes = spawn_nodes(1);
    let ring = CacheRing::new(
        nodes.iter().map(CacheNode::endpoint).collect(),
        CacheRingConfig {
            source: SourceAddr::new([10, 70, 0, 9], 45_100),
            op_timeout: Duration::from_secs(5),
            breaker_threshold: u32::MAX,
            breaker_cooldown: Duration::from_millis(100),
            ..CacheRingConfig::default()
        },
    );
    let keys: Vec<SessionId> = (0..64).map(test_id).collect();
    for key in &keys {
        ring.insert(*key, b"premaster-secret".to_vec());
    }
    // Warm the persistent link so no configuration pays the dial.
    assert!(ring.lookup(&keys[0]).is_some());

    let mut per_key = [Duration::MAX; 3];
    let mut pipelined_per_op = [Duration::MAX; 3];
    let mut serial_per_op = [Duration::MAX; 3];
    for _ in 0..rounds {
        for (slot, &batch) in BATCH_SIZES.iter().enumerate() {
            let reps = (ops / batch).max(1);
            let started = Instant::now();
            for rep in 0..reps {
                let chunk: Vec<SessionId> = (0..batch)
                    .map(|i| keys[(rep * batch + i) % keys.len()])
                    .collect();
                let results = ring.lookup_batch(&chunk);
                assert!(results.iter().all(Option::is_some), "warm keys must hit");
            }
            per_key[slot] = per_key[slot].min(started.elapsed() / (reps * batch) as u32);
        }
        for (slot, &depth) in BATCH_SIZES.iter().enumerate() {
            let per_thread = (ops / depth).max(1);
            let total = (per_thread * depth) as u32;
            let started = Instant::now();
            std::thread::scope(|scope| {
                for t in 0..depth {
                    let ring = &ring;
                    let keys = &keys;
                    scope.spawn(move || {
                        for n in 0..per_thread {
                            assert!(ring
                                .lookup(&keys[(t * per_thread + n) % keys.len()])
                                .is_some());
                        }
                    });
                }
            });
            pipelined_per_op[slot] = pipelined_per_op[slot].min(started.elapsed() / total);
            let started = Instant::now();
            for n in 0..total {
                assert!(ring.lookup(&keys[n as usize % keys.len()]).is_some());
            }
            serial_per_op[slot] = serial_per_op[slot].min(started.elapsed() / total);
        }
    }
    assert_eq!(
        ring.stats().local_hits,
        0,
        "every timed op must be served remotely, not by the local tier"
    );
    BatchedComparison {
        per_key,
        pipelined_per_op,
        serial_per_op,
    }
}

/// Outcome of one cross-machine resumption run.
#[derive(Debug, Clone, Copy)]
pub struct ResumptionRun {
    /// Cache nodes in the ring.
    pub cache_nodes: usize,
    /// Sessions driven (handshake on machine A, reconnect on machine B).
    pub sessions: usize,
    /// Reconnects served with the abbreviated handshake.
    pub resumed: usize,
    /// `resumed / sessions`.
    pub rate: f64,
    /// Wall time for the reconnect phase.
    pub elapsed: Duration,
}

fn drive(front: &ConcurrentApache, client: &mut TlsClient) -> ConnectionReport {
    let (client_link, server_link) = duplex_pair("bench-client", "server");
    let handle = front.serve(server_link).expect("submit");
    let conn = client.connect(&client_link).expect("handshake");
    drop(client_link);
    let report = handle.join().expect("serve");
    assert!(report.handshake_ok);
    assert_eq!(report.key_fingerprint, conn.keys.fingerprint());
    report
}

/// Handshake `sessions` clients through machine A, then reconnect each
/// through machine B — with `cache_nodes` in the ring, and (when
/// `kill_one`) one cache node killed between the phases. The resumption
/// rate is the fraction of reconnects machine B served abbreviated;
/// every connection must complete either way (a dead cache node degrades
/// to full handshakes, never to failures).
pub fn run_cross_machine(sessions: usize, cache_nodes: usize, kill_one: bool) -> ResumptionRun {
    let sessions = sessions.max(1);
    let nodes = spawn_nodes(cache_nodes.max(1));
    let keypair = RsaKeyPair::generate(&mut WedgeRng::from_seed(4242));
    let machine_a = ConcurrentApache::with_session_store(
        keypair,
        PageStore::sample(),
        ConcurrentApacheConfig {
            shards: 2,
            ..ConcurrentApacheConfig::default()
        },
        ring_for(&nodes, 1),
    )
    .expect("machine A");
    let machine_b = ConcurrentApache::with_session_store(
        keypair,
        PageStore::sample(),
        ConcurrentApacheConfig {
            shards: 2,
            ..ConcurrentApacheConfig::default()
        },
        ring_for(&nodes, 2),
    )
    .expect("machine B");

    let mut clients: Vec<TlsClient> = (0..sessions)
        .map(|i| {
            TlsClient::new(
                machine_a.public_key(),
                WedgeRng::from_seed(5_000 + i as u64),
            )
        })
        .collect();
    for client in &mut clients {
        let report = drive(&machine_a, client);
        assert!(!report.resumed);
    }
    if kill_one {
        nodes[0].kill();
    }
    let started = Instant::now();
    let mut resumed = 0usize;
    for client in &mut clients {
        if drive(&machine_b, client).resumed {
            resumed += 1;
        }
    }
    let elapsed = started.elapsed();
    ResumptionRun {
        cache_nodes: nodes.len(),
        sessions,
        resumed,
        rate: resumed as f64 / sessions as f64,
        elapsed,
    }
}

/// The `BENCH_cachenet.json` artifact, emitted through the shared
/// [`crate::report`] writer (the offline build has no serde).
pub fn cachenet_bench_json(
    workload: CachenetWorkload,
    latency: &LatencyComparison,
    batched: &BatchedComparison,
    single_node: &ResumptionRun,
    three_node: &ResumptionRun,
) -> String {
    let resumption = |w: &mut wedge_telemetry::JsonWriter, run: &ResumptionRun| {
        w.field_u64("nodes", run.cache_nodes as u64);
        w.field_u64("resumed", run.resumed as u64);
        w.field_f64("rate", run.rate);
    };
    crate::report::bench_artifact("cachenet", |w| {
        w.nested("workload", |w| {
            w.field_u64("sessions", workload.sessions as u64);
            w.field_u64("lookups", workload.lookups as u64);
        });
        w.nested("lookup_latency", |w| {
            w.field_f64("local_us", crate::report::micros(latency.local_avg));
            w.field_f64("remote_us", crate::report::micros(latency.remote_avg));
            w.field_f64("remote_over_local", latency.overhead);
        });
        w.nested("batched", |w| {
            for (slot, &batch) in BATCH_SIZES.iter().enumerate() {
                w.field_f64(
                    &format!("per_key_us_batch{batch}"),
                    crate::report::micros(batched.per_key[slot]),
                );
            }
            w.field_f64(
                "batch16_speedup",
                batched.per_key[0].as_secs_f64()
                    / batched.per_key[2].as_secs_f64().max(f64::EPSILON),
            );
            w.nested("pipeline_sweep", |w| {
                for (slot, &depth) in BATCH_SIZES.iter().enumerate() {
                    w.nested(&format!("depth{depth}"), |w| {
                        w.field_f64(
                            "pipelined_us_per_op",
                            crate::report::micros(batched.pipelined_per_op[slot]),
                        );
                        w.field_f64(
                            "serial_us_per_op",
                            crate::report::micros(batched.serial_per_op[slot]),
                        );
                    });
                }
            });
        });
        w.nested("resumption_under_node_kill", |w| {
            w.nested("single_node", |w| resumption(w, single_node));
            w.nested("three_node", |w| resumption(w, three_node));
        });
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_comparison_is_sane() {
        let comparison = measure_lookup_latency(64);
        assert!(comparison.local_avg > Duration::ZERO);
        assert!(comparison.remote_avg > Duration::ZERO);
        assert!(
            comparison.remote_avg >= comparison.local_avg,
            "a protocol round trip cannot beat a process-local lookup: {comparison:?}"
        );
        assert!(comparison.overhead >= 1.0);
    }

    /// The ISSUE acceptance criterion for wire v2: amortising framing
    /// and round trips over a 16-key batch must cut per-key remote
    /// latency to at most a quarter of the single-op cost. Min over
    /// interleaved rounds, like the fast-path gate — scheduler noise on
    /// a loaded 1-core runner only adds time. Release-only: a debug
    /// build's fixed interpreter-grade overhead dilutes the per-frame
    /// costs batching removes.
    #[cfg(not(debug_assertions))]
    #[test]
    fn batch16_per_key_is_at_most_a_quarter_of_single_op() {
        let batched = measure_batched(5, 64);
        let single = batched.per_key[0];
        let batch16 = batched.per_key[2];
        assert!(
            batch16 * 4 <= single,
            "batch-16 per-key cost must be ≤ 1/4 of single-op remote latency: {batched:?}"
        );
    }

    /// Debug-build sanity bound on the same measurement, so plain
    /// `cargo test` still guards the batching win.
    #[cfg(debug_assertions)]
    #[test]
    fn batching_amortises_per_key_cost_even_unoptimised() {
        let batched = measure_batched(3, 32);
        assert!(
            batched.per_key[2] < batched.per_key[0],
            "a 16-key frame must beat 16 single-op frames per key: {batched:?}"
        );
    }

    #[test]
    fn cross_machine_run_accounts_every_session() {
        let run = run_cross_machine(6, 3, false);
        assert_eq!(run.sessions, 6);
        assert_eq!(
            run.resumed, 6,
            "with every node healthy every reconnect resumes"
        );
        assert!((run.rate - 1.0).abs() < f64::EPSILON);
    }

    /// The distribution argument, asserted: with the only cache node
    /// dead, cross-machine resumption collapses; with 3 nodes, killing
    /// one leaves roughly two-thirds of the sessions resumable. Release
    /// bound (`cargo test --release -p wedge-bench -q cachenet`); the
    /// debug build only orders the two rates.
    #[test]
    fn three_nodes_survive_a_kill_where_one_node_cannot() {
        let sessions = if cfg!(debug_assertions) { 10 } else { 30 };
        let single = run_cross_machine(sessions, 1, true);
        let three = run_cross_machine(sessions, 3, true);
        assert_eq!(
            single.resumed, 0,
            "sole node dead ⇒ no remote resumption possible"
        );
        assert!(
            three.rate > single.rate,
            "distribution must help: {three:?} vs {single:?}"
        );
        #[cfg(not(debug_assertions))]
        assert!(
            three.rate >= 0.35,
            "≈2/3 of sessions live on surviving nodes; got {three:?}"
        );
    }

    #[test]
    fn bench_json_is_well_formed() {
        let workload = CachenetWorkload {
            sessions: 4,
            lookups: 8,
        };
        let latency = LatencyComparison {
            local_avg: Duration::from_micros(2),
            remote_avg: Duration::from_micros(40),
            overhead: 20.0,
        };
        let run = ResumptionRun {
            cache_nodes: 3,
            sessions: 4,
            resumed: 3,
            rate: 0.75,
            elapsed: Duration::from_millis(10),
        };
        let batched = BatchedComparison {
            per_key: [
                Duration::from_micros(40),
                Duration::from_micros(15),
                Duration::from_micros(5),
            ],
            pipelined_per_op: [Duration::from_micros(40); 3],
            serial_per_op: [Duration::from_micros(40); 3],
        };
        let json = cachenet_bench_json(workload, &latency, &batched, &run, &run);
        for key in [
            "\"bench\":\"cachenet\"",
            "\"lookup_latency\"",
            "\"remote_over_local\"",
            "\"batched\"",
            "\"per_key_us_batch1\"",
            "\"per_key_us_batch16\"",
            "\"batch16_speedup\"",
            "\"pipeline_sweep\"",
            "\"depth16\"",
            "\"resumption_under_node_kill\"",
            "\"single_node\"",
            "\"three_node\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "balanced braces"
        );
    }
}
