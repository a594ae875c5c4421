//! The injector: walks a [`ChaosSchedule`] in real time against a
//! [`ChaosTarget`], emitting one [`TelemetryEvent::FaultInjected`] audit
//! event per fault so every latency artifact in the same telemetry
//! snapshot is attributable to the fault that caused it.

use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use wedge_telemetry::{Telemetry, TelemetryEvent};

use crate::schedule::{ChaosSchedule, Fault, ScheduledFault};

/// What a system must expose for chaos to break it. Implemented by
/// `wedge-e2e`'s stack over the full serving stack (every front-end's
/// shards, the cachenet nodes, the listeners' rate limiters); tests
/// implement it with mocks.
///
/// Victim indices are the implementor's to interpret: `shard` spans the
/// target's aggregate shard space, `node` its cache ring, `source` an
/// ordinal the target maps to a hostile address.
pub trait ChaosTarget: Send + Sync {
    /// Total shard-victim space.
    fn shards(&self) -> usize;
    /// Total cache-node-victim space.
    fn cache_nodes(&self) -> usize;
    /// Kill shard `shard` (queued links re-route, supervisors revive).
    fn kill_shard(&self, shard: usize);
    /// Whether shard `shard` currently serves.
    fn shard_healthy(&self, shard: usize) -> bool;
    /// Cumulative supervisor storm count across the target (the
    /// [`Fault::RestartStorm`] loop stops once this increments).
    fn storms(&self) -> u64;
    /// Kill cache node `node`.
    fn kill_cache_node(&self, node: usize);
    /// Restart cache node `node` (epoch bump if it was down).
    fn restart_cache_node(&self, node: usize);
    /// Burst `connections` connect attempts from hostile source ordinal
    /// `source` as fast as the caller can issue them.
    fn flood(&self, source: usize, connections: u32);
}

/// Outcome of one injector pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosRun {
    /// Every fault injected, in injection order, stamped with its
    /// **scheduled** offset — so the log is a pure function of the
    /// schedule and two same-seed runs compare equal (the replay
    /// contract the determinism tests assert).
    pub injected: Vec<ScheduledFault>,
    /// Wall time the pass took.
    pub elapsed: Duration,
}

/// Walk `schedule` against `target`, sleeping until each fault is due.
///
/// Blocks until the last fault has been applied ([`Fault::Brownout`]
/// holds its node down inline; [`Fault::RestartStorm`] waits out each
/// revival). Every fault emits [`TelemetryEvent::FaultInjected`] through
/// `telemetry` at the moment it is applied, stamped with the scheduled
/// offset.
pub fn inject(
    schedule: &ChaosSchedule,
    target: &dyn ChaosTarget,
    telemetry: &Telemetry,
) -> ChaosRun {
    let started = Instant::now();
    let mut injected = Vec::with_capacity(schedule.len());
    for entry in &schedule.entries {
        let due = started + entry.at;
        let now = Instant::now();
        if due > now {
            thread::sleep(due - now);
        }
        telemetry.emit_with(|| TelemetryEvent::FaultInjected {
            fault: entry.fault.name().to_string(),
            victim: entry.fault.victim(),
            at_ms: entry.at.as_millis() as u64,
            // The injector thread owns no request, so this is `None`
            // here; targets that re-emit a fault from a serving thread
            // stamp the live context.
            trace: wedge_telemetry::trace::current().map(|active| active.ctx),
        });
        // Open the tail sampler's fault window: traces overlapping an
        // injected fault are retained even when fast and successful.
        if let Some(tracer) = telemetry.tracer() {
            tracer.note_fault();
        }
        apply(&entry.fault, target);
        injected.push(entry.clone());
    }
    ChaosRun {
        injected,
        elapsed: started.elapsed(),
    }
}

/// [`inject`] on its own thread: `wedge-e2e`'s `mixed_chaos` runs
/// offered load on the caller's threads while chaos unfolds concurrently.
pub fn spawn(
    schedule: ChaosSchedule,
    target: Arc<dyn ChaosTarget>,
    telemetry: Telemetry,
) -> thread::JoinHandle<ChaosRun> {
    thread::Builder::new()
        .name("wedge-chaos".to_string())
        .spawn(move || inject(&schedule, target.as_ref(), &telemetry))
        .expect("spawn chaos injector")
}

fn apply(fault: &Fault, target: &dyn ChaosTarget) {
    match fault {
        Fault::KillShard { shard } => target.kill_shard(*shard),
        Fault::CacheKill { node } => target.kill_cache_node(*node),
        Fault::CacheRestart { node } => target.restart_cache_node(*node),
        Fault::Flood {
            source,
            connections,
        } => target.flood(*source, *connections),
        Fault::Brownout { node, hold } => {
            target.kill_cache_node(*node);
            thread::sleep(*hold);
            target.restart_cache_node(*node);
        }
        Fault::RestartStorm { shard, kills } => {
            // Kill the victim every time its supervisor revives it, until
            // the storm detector trips (observable as the target's storm
            // count incrementing) or the kill budget runs out.
            let baseline = target.storms();
            for _ in 0..*kills {
                if target.storms() > baseline {
                    break;
                }
                if !await_healthy(target, *shard, Duration::from_secs(5)) {
                    break;
                }
                target.kill_shard(*shard);
            }
        }
    }
}

fn await_healthy(target: &dyn ChaosTarget, shard: usize, timeout: Duration) -> bool {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if target.shard_healthy(shard) {
            return true;
        }
        thread::sleep(Duration::from_millis(1));
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::ChaosPlan;
    use parking_lot::Mutex;
    use std::sync::atomic::{AtomicU64, Ordering};
    use wedge_telemetry::RecordingSink;

    /// A mock stack: records every call, trips a "storm" after 3 kills
    /// of the same shard.
    #[derive(Default)]
    struct MockStack {
        calls: Mutex<Vec<String>>,
        kills_by_shard: Mutex<std::collections::HashMap<usize, u32>>,
        storms: AtomicU64,
    }

    impl ChaosTarget for MockStack {
        fn shards(&self) -> usize {
            4
        }
        fn cache_nodes(&self) -> usize {
            3
        }
        fn kill_shard(&self, shard: usize) {
            self.calls.lock().push(format!("kill_shard:{shard}"));
            let mut kills = self.kills_by_shard.lock();
            let n = kills.entry(shard).or_insert(0);
            *n += 1;
            if *n >= 3 {
                self.storms.fetch_add(1, Ordering::SeqCst);
                *n = 0;
            }
        }
        fn shard_healthy(&self, _shard: usize) -> bool {
            true
        }
        fn storms(&self) -> u64 {
            self.storms.load(Ordering::SeqCst)
        }
        fn kill_cache_node(&self, node: usize) {
            self.calls.lock().push(format!("cache_kill:{node}"));
        }
        fn restart_cache_node(&self, node: usize) {
            self.calls.lock().push(format!("cache_restart:{node}"));
        }
        fn flood(&self, source: usize, connections: u32) {
            self.calls
                .lock()
                .push(format!("flood:{source}x{connections}"));
        }
    }

    fn quick_plan(seed: u64) -> ChaosPlan {
        ChaosPlan {
            seed,
            horizon: Duration::from_millis(200),
            shards: 4,
            cache_nodes: 3,
            flood_sources: 4,
            shard_kills: 2,
            cache_restarts: 1,
            floods: 1,
            storms: 1,
            storm_kills: 4,
            brownouts: 1,
            brownout_hold: Duration::from_millis(5),
            ..ChaosPlan::default()
        }
    }

    /// The satellite gate: one seed, two full injector passes → the
    /// identical injected log (faults, order, victims) and the identical
    /// FaultInjected audit-event sequence.
    #[test]
    fn same_seed_replays_the_identical_fault_sequence() {
        let run_once = || {
            let schedule = ChaosSchedule::generate(&quick_plan(31337));
            let telemetry = Telemetry::new();
            let sink = Arc::new(RecordingSink::default());
            telemetry.install_sink(sink.clone());
            let target = MockStack::default();
            let run = inject(&schedule, &target, &telemetry);
            let calls = target.calls.lock().clone();
            (run.injected, sink.events(), calls)
        };
        let (log_a, events_a, calls_a) = run_once();
        let (log_b, events_b, calls_b) = run_once();
        assert_eq!(log_a, log_b, "identical injected logs");
        assert_eq!(events_a, events_b, "identical audit event streams");
        assert_eq!(calls_a, calls_b, "identical calls on the target");
        assert!(!log_a.is_empty());
        // And a different seed really does produce a different sequence.
        let schedule = ChaosSchedule::generate(&quick_plan(404));
        let telemetry = Telemetry::new();
        let target = MockStack::default();
        let run = inject(&schedule, &target, &telemetry);
        assert_ne!(log_a, run.injected);
    }

    #[test]
    fn every_fault_is_applied_and_audited() {
        let schedule = ChaosSchedule::generate(&quick_plan(11));
        let telemetry = Telemetry::new();
        let sink = Arc::new(RecordingSink::default());
        telemetry.install_sink(sink.clone());
        let target = MockStack::default();
        let run = inject(&schedule, &target, &telemetry);
        assert_eq!(run.injected.len(), schedule.len());
        let events = sink.events();
        assert_eq!(events.len(), schedule.len(), "one audit event per fault");
        for (event, entry) in events.iter().zip(&schedule.entries) {
            match event {
                TelemetryEvent::FaultInjected {
                    fault,
                    victim,
                    at_ms,
                    trace,
                } => {
                    assert!(event.is_audit());
                    assert_eq!(fault, entry.fault.name());
                    assert_eq!(*victim, entry.fault.victim());
                    assert_eq!(*at_ms, entry.at.as_millis() as u64);
                    assert_eq!(*trace, None, "the injector thread serves no request");
                }
                other => panic!("unexpected event {other:?}"),
            }
        }
        // The storm loop killed its victim until the mock's detector
        // tripped.
        assert!(target.storms() >= 1, "the storm fault tripped the guard");
        let calls = target.calls.lock();
        assert!(calls.iter().any(|c| c.starts_with("flood:")));
        assert!(calls.iter().any(|c| c.starts_with("cache_kill:")));
        assert!(calls.iter().any(|c| c.starts_with("cache_restart:")));
    }

    #[test]
    fn spawned_injector_runs_concurrently() {
        let schedule = ChaosSchedule::explicit(
            1,
            vec![ScheduledFault {
                at: Duration::from_millis(30),
                fault: Fault::KillShard { shard: 2 },
            }],
        );
        let target = Arc::new(MockStack::default());
        let handle = spawn(schedule, target.clone(), Telemetry::new());
        assert!(
            target.calls.lock().is_empty(),
            "nothing injected before the offset"
        );
        let run = handle.join().expect("injector");
        assert_eq!(run.injected.len(), 1);
        assert!(run.elapsed >= Duration::from_millis(30), "offset honoured");
        assert_eq!(target.calls.lock().as_slice(), ["kill_shard:2"]);
    }
}
