//! Think-time throughput of the forked-shard front-end: against a
//! sequential server, and against itself at other shard counts.
//!
//! The workload is the simulated Apache one: full TLS handshake + one GET
//! per connection against §5.1.2-partitioned servers with recycled
//! callgates, with a per-client **think time** between handshake and
//! request standing in for WAN latency. A sequential server
//! ([`run_sequential`]) eats that latency once per connection; the
//! [`ConcurrentApache`] front-end ([`run_sharded`]) overlaps it across its
//! shards — the only honest source of speedup on a single-core CI box,
//! where CPU-bound work cannot run in parallel. Every shard owns an
//! independent simulated kernel and serves its queue sequentially, so
//! aggregate connections/sec should scale with shards for
//! think-time-dominated connections. The tests pin ≥2× over sequential at
//! 4 shards and ≥1.8× (release) for 4 shards over 1.

use std::time::{Duration, Instant};

use wedge_apache::{
    ApacheConfig, ConcurrentApache, ConcurrentApacheConfig, PageStore, WedgeApache,
};
use wedge_core::Wedge;
use wedge_crypto::{RsaKeyPair, RsaPublicKey, WedgeRng};
use wedge_net::{duplex_pair, Duplex};
use wedge_telemetry::{Telemetry, TelemetrySnapshot};
use wedge_tls::TlsClient;

/// The sharded-Apache connection workload.
#[derive(Debug, Clone, Copy)]
pub struct ShardedWorkload {
    /// Connections to serve.
    pub connections: usize,
    /// Per-client think time between handshake and request (WAN latency).
    pub think_time: Duration,
    /// RNG seed for the shared certificate keypair.
    pub seed: u64,
}

impl Default for ShardedWorkload {
    fn default() -> Self {
        ShardedWorkload {
            connections: 16,
            think_time: Duration::from_millis(10),
            seed: 91,
        }
    }
}

/// One client: handshake, think, one GET, check the reply.
fn spawn_client(
    public_key: RsaPublicKey,
    link: Duplex,
    think_time: Duration,
    seed: u64,
) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        let mut client = TlsClient::new(public_key, WedgeRng::from_seed(seed));
        let mut conn = client.connect(&link).expect("handshake");
        std::thread::sleep(think_time);
        conn.send(&link, b"GET /index.html HTTP/1.0\r\n\r\n")
            .expect("send");
        let response = conn.recv(&link).expect("response");
        assert!(response.starts_with(b"HTTP/1.0 200 OK"));
    })
}

/// Serve the workload on one recycled-callgate instance, one connection at
/// a time (the pre-scheduler behaviour). Returns the elapsed wall time.
pub fn run_sequential(workload: ShardedWorkload) -> Duration {
    let keypair = RsaKeyPair::generate(&mut WedgeRng::from_seed(workload.seed));
    let server = WedgeApache::new(
        Wedge::init(),
        keypair,
        PageStore::sample(),
        ApacheConfig { recycled: true },
    )
    .expect("sequential server");
    let started = Instant::now();
    for i in 0..workload.connections {
        let (client_link, server_link) = duplex_pair("seq-client", "seq-server");
        let client = spawn_client(
            server.public_key(),
            client_link,
            workload.think_time,
            workload.seed + 1000 + i as u64,
        );
        let report = server.serve_connection(server_link).expect("serve");
        assert!(report.handshake_ok && report.requests == 1);
        client.join().expect("client");
    }
    started.elapsed()
}

/// Outcome of one sharded run.
#[derive(Debug, Clone)]
pub struct ShardedRun {
    /// Wall time from first submission to last report.
    pub elapsed: Duration,
    /// Aggregate connections/sec.
    pub throughput: f64,
    /// The front-end's telemetry at the end of the run (`sched.*`, ...).
    pub telemetry: TelemetrySnapshot,
}

/// Serve the workload through a [`ConcurrentApache`] front-end of
/// `shards` forked shards.
pub fn run_sharded(workload: ShardedWorkload, shards: usize) -> ShardedRun {
    let keypair = RsaKeyPair::generate(&mut WedgeRng::from_seed(workload.seed));
    let server = ConcurrentApache::new(
        keypair,
        PageStore::sample(),
        ConcurrentApacheConfig {
            shards,
            queue_capacity: workload.connections.max(1),
            ..ConcurrentApacheConfig::default()
        },
    )
    .expect("sharded server");
    let mut server_links = Vec::with_capacity(workload.connections);
    let mut clients = Vec::with_capacity(workload.connections);
    let started = Instant::now();
    for i in 0..workload.connections {
        let (client_link, server_link) = duplex_pair("shard-client", "shard-server");
        clients.push(spawn_client(
            server.public_key(),
            client_link,
            workload.think_time,
            workload.seed + 3000 + i as u64,
        ));
        server_links.push(server_link);
    }
    for report in server.serve_all(server_links) {
        let report = report.expect("serve");
        assert!(report.handshake_ok && report.requests == 1);
    }
    let elapsed = started.elapsed();
    for client in clients {
        client.join().expect("client");
    }
    // Registered after the timed run: the front-end keeps its counters
    // either way, and the live serve histogram would add to what is timed.
    let telemetry = Telemetry::new();
    server.instrument(&telemetry);
    ShardedRun {
        elapsed,
        throughput: workload.connections as f64 / elapsed.as_secs_f64().max(f64::EPSILON),
        telemetry: telemetry.snapshot(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Wall times of the same workload on one shard and on `shards`
    /// shards.
    fn compare_sharded(workload: ShardedWorkload, shards: usize) -> (Duration, Duration) {
        (
            run_sharded(workload, 1).elapsed,
            run_sharded(workload, shards).elapsed,
        )
    }

    fn scaling_workload() -> ShardedWorkload {
        // Think time well above the per-connection CPU cost (~2-3 ms on
        // the 1-core CI box): the scaling bound needs think-time overlap
        // to dominate even when the CPU portions fully serialise.
        ShardedWorkload {
            connections: 16,
            think_time: Duration::from_millis(25),
            seed: 91,
        }
    }

    /// Noise-robust estimate: scheduler noise on a loaded 1-core runner
    /// only ever *adds* wall time, so the minimum over rounds is the best
    /// estimate of each configuration's true cost.
    fn measured_speedup(rounds: usize) -> (f64, Duration, Duration) {
        let outcomes: Vec<_> = (0..rounds)
            .map(|_| compare_sharded(scaling_workload(), 4))
            .collect();
        let single = outcomes.iter().map(|r| r.0).min().expect("rounds");
        let sharded = outcomes.iter().map(|r| r.1).min().expect("rounds");
        (
            single.as_secs_f64() / sharded.as_secs_f64().max(f64::EPSILON),
            single,
            sharded,
        )
    }

    /// The front-end overlaps think time a sequential server pays
    /// serially: ≥2× sequential throughput at 4 shards. Think time is set
    /// well above the per-connection CPU cost (~2-3 ms on the 1-core CI
    /// box): the 2× bound needs CPU ≤ think_time/2 even when the CPU
    /// portions fully serialise, so 25 ms leaves a wide margin against a
    /// loaded runner.
    #[test]
    fn front_end_beats_sequential_by_2x_at_4_shards() {
        let workload = ShardedWorkload {
            connections: 16,
            think_time: Duration::from_millis(25),
            seed: 77,
        };
        let sequential = run_sequential(workload);
        let run = run_sharded(workload, 4);
        assert_eq!(run.telemetry.counter("sched.completed"), 16);
        let speedup = sequential.as_secs_f64() / run.elapsed.as_secs_f64().max(f64::EPSILON);
        assert!(
            speedup >= 2.0,
            "expected ≥2x speedup at 4 shards, got {speedup:.2}x \
             (sequential {sequential:?}, 4 shards {:?})",
            run.elapsed
        );
    }

    /// Aggregate connections/sec scales with shard count — ≥1.8× at 4
    /// shards vs 1 shard on the same box.
    /// Release-only, like the `fast_path` gate (CI runs it via
    /// `cargo test --release -p wedge-bench -q sharded`).
    #[cfg(not(debug_assertions))]
    #[test]
    fn sharded_beats_single_shard_by_1_8x_at_4_shards() {
        let (speedup, single, sharded) = measured_speedup(3);
        assert!(
            speedup >= 1.8,
            "expected ≥1.8x aggregate throughput at 4 shards, got {speedup:.2}x \
             (1 shard {single:?}, 4 shards {sharded:?})"
        );
    }

    /// Debug-build sanity bound for the same workload, so plain
    /// `cargo test` still guards against a scaling regression.
    #[cfg(debug_assertions)]
    #[test]
    fn sharded_beats_single_shard_even_unoptimised() {
        let (speedup, single, sharded) = measured_speedup(2);
        assert!(
            speedup >= 1.3,
            "expected ≥1.3x at 4 shards in a debug build, got {speedup:.2}x \
             (1 shard {single:?}, 4 shards {sharded:?})"
        );
    }

    /// Every connection completes and lands on some shard, whatever the
    /// shard count.
    #[test]
    fn sharded_run_accounts_every_connection() {
        let run = run_sharded(
            ShardedWorkload {
                connections: 8,
                think_time: Duration::from_millis(2),
                seed: 92,
            },
            2,
        );
        assert_eq!(run.telemetry.counter("sched.submitted"), 8);
        assert_eq!(run.telemetry.counter("sched.completed"), 8);
        assert_eq!(run.telemetry.counter("sched.rejected"), 0);
        assert!(run.throughput > 0.0);
    }
}
