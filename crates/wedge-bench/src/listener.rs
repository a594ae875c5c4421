//! Listener-front-end throughput and restart-latency measurements.
//!
//! The workload drives POP3 sessions through the **full unified serving
//! stack**: a [`wedge_net::Listener`] accept loop (connection batching,
//! source-address affinity keys), the protocol-agnostic
//! `ShardedFrontEnd`, and — for the restart measurement — the shard
//! supervisor. Each client pauses for a **think time** between login and
//! retrieval, standing in for WAN latency, so aggregate connections/sec
//! scales with shard count while think time dominates.
//!
//! The companion bench target (`benches/listener.rs`) also emits the
//! machine-readable artifact `BENCH_listener.json` — connections/sec at
//! 1 vs 4 shards plus the supervisor's kill-to-healthy restart latency —
//! for CI trend tracking.

use std::sync::Arc;
use std::time::{Duration, Instant};

use wedge_net::{Duplex, Listener, ListenerStats, RecvTimeout, SourceAddr};
use wedge_pop3::{MailDb, ShardedPop3, ShardedPop3Config};
use wedge_sched::{AcceptPolicy, SchedStats, SupervisorConfig};

/// The listener-driven POP3 workload.
#[derive(Debug, Clone, Copy)]
pub struct ListenerWorkload {
    /// Connections to drive through the accept loop.
    pub connections: usize,
    /// Per-client think time between login and retrieval (WAN latency).
    pub think_time: Duration,
    /// Links the accept loop drains per wakeup.
    pub accept_batch: usize,
}

impl Default for ListenerWorkload {
    fn default() -> Self {
        ListenerWorkload {
            connections: 32,
            think_time: Duration::from_millis(10),
            accept_batch: 16,
        }
    }
}

/// Outcome of one listener-front-end run.
#[derive(Debug, Clone)]
pub struct ListenerRun {
    /// Wall time from the first connect to the last report.
    pub elapsed: Duration,
    /// Aggregate connections/sec.
    pub throughput: f64,
    /// Front-end counters.
    pub sched: SchedStats,
    /// Listener counters (accepted/refused/batched).
    pub listener: ListenerStats,
}

fn send_cmd(client: &Duplex, cmd: &str) -> Vec<u8> {
    client.send(cmd.as_bytes()).expect("send command");
    client
        .recv(RecvTimeout::After(Duration::from_secs(10)))
        .expect("command reply")
}

fn run_session(client: &Duplex, think_time: Duration) {
    let greeting = client
        .recv(RecvTimeout::After(Duration::from_secs(10)))
        .expect("greeting");
    assert!(greeting.starts_with(b"+OK"));
    assert!(send_cmd(client, "USER alice").starts_with(b"+OK"));
    assert!(send_cmd(client, "PASS wonderland").starts_with(b"+OK"));
    std::thread::sleep(think_time);
    assert!(send_cmd(client, "STAT").starts_with(b"+OK"));
    assert!(send_cmd(client, "QUIT").starts_with(b"+OK"));
}

/// Drive `workload` through a `shards`-shard POP3 front-end fed by a
/// listener accept loop (source-affinity placement).
pub fn run_listener_pop3(workload: ListenerWorkload, shards: usize) -> ListenerRun {
    let server = Arc::new(
        ShardedPop3::new(
            &MailDb::sample(),
            ShardedPop3Config {
                shards,
                queue_capacity: workload.connections.max(1),
                policy: AcceptPolicy::SessionAffinity,
                ..ShardedPop3Config::default()
            },
        )
        .expect("sharded pop3"),
    );
    let listener = Listener::bind("pop3-bench", workload.connections.max(1));
    let serve = {
        let server = server.clone();
        let listener = listener.clone();
        let batch = workload.accept_batch.max(1);
        std::thread::spawn(move || server.serve_listener(&listener, batch))
    };

    let started = Instant::now();
    let clients: Vec<_> = (0..workload.connections)
        .map(|n| {
            let source = SourceAddr::new([10, 9, (n >> 8) as u8, (n & 0xFF) as u8], 41_000);
            let link = listener.connect(source).expect("connect");
            let think_time = workload.think_time;
            std::thread::spawn(move || run_session(&link, think_time))
        })
        .collect();
    for client in clients {
        client.join().expect("client session");
    }
    listener.close();
    let outcomes = serve.join().expect("accept loop");
    let elapsed = started.elapsed();
    assert_eq!(outcomes.len(), workload.connections);
    for outcome in outcomes {
        assert!(outcome.expect("session served").stats.logged_in);
    }
    ListenerRun {
        elapsed,
        throughput: workload.connections as f64 / elapsed.as_secs_f64().max(f64::EPSILON),
        sched: server.sched_stats(),
        listener: listener.stats(),
    }
}

/// Outcome of a supervised kill + auto-restart measurement.
#[derive(Debug, Clone, Copy)]
pub struct RestartMeasurement {
    /// Kill-to-healthy latency as seen by the supervisor (detection +
    /// backoff + in-flight drain + respawn).
    pub latency: Duration,
    /// The respawned shard's fork + prewarm boot cost alone.
    pub boot_cost: Duration,
}

/// Kill shard 0 of a supervised `shards`-shard POP3 front-end and
/// measure how long the watchdog takes to bring it back.
pub fn measure_restart_latency(shards: usize) -> RestartMeasurement {
    let server = ShardedPop3::new(
        &MailDb::sample(),
        ShardedPop3Config {
            shards,
            supervisor: Some(SupervisorConfig {
                backoff_base: Duration::from_millis(1),
                ..SupervisorConfig::default()
            }),
            ..ShardedPop3Config::default()
        },
    )
    .expect("sharded pop3");
    server.kill_shard(0);
    assert!(
        server.await_healthy(0, Duration::from_secs(30)),
        "supervisor must revive shard 0"
    );
    // The restart counter lands just after the health flip; poll briefly
    // rather than asserting both atomically.
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.restart_stats().expect("supervised").restarts == 0 {
        assert!(deadline > Instant::now(), "restart never counted");
        std::thread::sleep(Duration::from_millis(1));
    }
    let stats = server.restart_stats().expect("supervised");
    assert_eq!(stats.restarts, 1);
    RestartMeasurement {
        latency: stats.last_restart_latency(),
        boot_cost: server.shard_stats()[0].boot_cost,
    }
}

/// The `BENCH_listener.json` artifact: connections/sec at 1 vs `shards`
/// shards plus the supervised restart latency, emitted through the
/// shared [`crate::report`] writer (the offline build has no serde).
pub fn listener_bench_json(
    workload: ListenerWorkload,
    shards: usize,
    single: &ListenerRun,
    sharded: &ListenerRun,
    restart: &RestartMeasurement,
) -> String {
    crate::report::bench_artifact("listener", |w| {
        w.nested("workload", |w| {
            w.field_u64("connections", workload.connections as u64);
            w.field_f64("think_time_ms", crate::report::millis(workload.think_time));
            w.field_u64("accept_batch", workload.accept_batch as u64);
        });
        w.nested("single_shard", |w| {
            w.field_f64("elapsed_ms", crate::report::millis(single.elapsed));
            w.field_f64("connections_per_sec", single.throughput);
        });
        w.nested("sharded", |w| {
            w.field_u64("shards", shards as u64);
            w.field_f64("elapsed_ms", crate::report::millis(sharded.elapsed));
            w.field_f64("connections_per_sec", sharded.throughput);
        });
        w.field_f64(
            "speedup",
            sharded.throughput / single.throughput.max(f64::EPSILON),
        );
        w.nested("restart", |w| {
            w.field_f64("kill_to_healthy_ms", crate::report::millis(restart.latency));
            w.field_f64("respawn_boot_ms", crate::report::millis(restart.boot_cost));
        });
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ListenerWorkload {
        ListenerWorkload {
            connections: 8,
            think_time: Duration::from_millis(2),
            accept_batch: 4,
        }
    }

    #[test]
    fn listener_run_accounts_every_connection() {
        let run = run_listener_pop3(tiny(), 2);
        assert_eq!(run.sched.completed, 8);
        assert_eq!(
            run.sched.submitted,
            run.sched.completed + run.sched.rejected
        );
        assert_eq!(run.listener.accepted, 8);
        assert_eq!(run.listener.refused, 0);
        assert!(run.throughput > 0.0);
    }

    #[test]
    fn restart_latency_is_measurable() {
        let measurement = measure_restart_latency(2);
        assert!(measurement.latency > Duration::ZERO);
        assert!(measurement.boot_cost > Duration::ZERO);
        assert!(
            measurement.latency >= measurement.boot_cost,
            "kill-to-healthy includes the respawn boot"
        );
    }

    #[test]
    fn bench_json_is_well_formed() {
        let run = ListenerRun {
            elapsed: Duration::from_millis(120),
            throughput: 66.6,
            sched: SchedStats::default(),
            listener: ListenerStats::default(),
        };
        let restart = RestartMeasurement {
            latency: Duration::from_millis(7),
            boot_cost: Duration::from_millis(3),
        };
        let json = listener_bench_json(tiny(), 4, &run, &run, &restart);
        for key in [
            "\"bench\":\"listener\"",
            "\"connections_per_sec\"",
            "\"speedup\"",
            "\"kill_to_healthy_ms\"",
            "\"respawn_boot_ms\"",
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
