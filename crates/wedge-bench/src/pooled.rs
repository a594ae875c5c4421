//! Sequential-vs-concurrent-front-end throughput drivers.
//!
//! The workload is the simulated Apache one: full TLS handshake + one GET
//! per connection against the §5.1.2 partitioned server with recycled
//! callgates. Each client inserts a configurable **think time** between
//! its handshake and its request — the WAN round-trip / slow-client
//! latency that dominates real connection lifetimes. A sequential server
//! eats that latency once per connection; the concurrent front-end (today
//! the forked-shard `ShardSet` behind an acceptor) overlaps it across
//! `workers` in-flight connections — the only honest source of speedup on
//! a single-core CI box, where CPU-bound work cannot run in parallel.
//!
//! This module pins the *sequential server vs front-end* gap; the
//! [`crate::sharded`] module (whose harness the concurrent leg delegates
//! to) pins how that front-end's aggregate throughput *scales with shard
//! count*.

use std::time::{Duration, Instant};

use wedge_apache::{ApacheConfig, PageStore, WedgeApache};
use wedge_core::Wedge;
use wedge_crypto::{RsaKeyPair, WedgeRng};
use wedge_net::{duplex_pair, Duplex};
use wedge_telemetry::TelemetrySnapshot;
use wedge_tls::TlsClient;

/// The simulated-Apache connection workload.
#[derive(Debug, Clone, Copy)]
pub struct PooledWorkload {
    /// Connections to serve.
    pub connections: usize,
    /// Per-client think time between handshake and request (WAN latency).
    pub think_time: Duration,
    /// RNG seed for the shared certificate keypair.
    pub seed: u64,
}

impl Default for PooledWorkload {
    fn default() -> Self {
        PooledWorkload {
            connections: 16,
            think_time: Duration::from_millis(10),
            seed: 77,
        }
    }
}

fn spawn_client(
    public_key: wedge_crypto::RsaPublicKey,
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
pub fn run_sequential(workload: PooledWorkload) -> Duration {
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

/// Serve the workload through the concurrent front-end with `workers`
/// shards (delegates to the [`crate::sharded`] harness — one driver for
/// the shared front-end). Returns the elapsed wall time and the front-end's
/// telemetry.
pub fn run_pooled(workload: PooledWorkload, workers: usize) -> (Duration, TelemetrySnapshot) {
    let run = crate::sharded::run_sharded(
        crate::sharded::ShardedWorkload {
            connections: workload.connections,
            think_time: workload.think_time,
            seed: workload.seed,
        },
        workers,
    );
    (run.elapsed, run.telemetry)
}

/// Outcome of one sequential-vs-pooled comparison.
#[derive(Debug, Clone)]
pub struct ThroughputComparison {
    /// Wall time for the sequential server.
    pub sequential: Duration,
    /// Wall time for the pooled front-end.
    pub pooled: Duration,
    /// `sequential / pooled`.
    pub speedup: f64,
    /// The pooled front-end's telemetry.
    pub telemetry: TelemetrySnapshot,
}

/// Run the same workload both ways.
pub fn compare(workload: PooledWorkload, workers: usize) -> ThroughputComparison {
    let sequential = run_sequential(workload);
    let (pooled, telemetry) = run_pooled(workload, workers);
    ThroughputComparison {
        sequential,
        pooled,
        speedup: sequential.as_secs_f64() / pooled.as_secs_f64().max(f64::EPSILON),
        telemetry,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The ISSUE acceptance criterion: ≥2× sequential throughput at 4
    /// workers on the simulated Apache workload.
    ///
    /// Think time is set well above the per-connection CPU cost (~2-3 ms on
    /// the 1-core CI box): the 2× bound needs CPU ≤ think_time/2 even when
    /// the CPU portions fully serialise, so 25 ms leaves a wide margin
    /// against a loaded runner.
    #[test]
    fn pooled_beats_sequential_by_2x_at_4_workers() {
        let workload = PooledWorkload {
            connections: 16,
            think_time: Duration::from_millis(25),
            seed: 77,
        };
        let outcome = compare(workload, 4);
        assert_eq!(outcome.telemetry.counter("sched.completed"), 16);
        assert!(
            outcome.speedup >= 2.0,
            "expected ≥2x speedup at 4 workers, got {:.2}x (sequential {:?}, pooled {:?})",
            outcome.speedup,
            outcome.sequential,
            outcome.pooled
        );
    }

    /// Throughput must scale with worker count: 4 workers beat 1 worker.
    #[test]
    fn pooled_throughput_scales_with_worker_count() {
        let workload = PooledWorkload {
            connections: 12,
            think_time: Duration::from_millis(8),
            seed: 78,
        };
        let (one, _) = run_pooled(workload, 1);
        let (four, _) = run_pooled(workload, 4);
        assert!(
            four < one,
            "4 workers ({four:?}) must beat 1 worker ({one:?})"
        );
    }
}
