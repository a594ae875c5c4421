//! The shard supervisor: automatic restart of killed shards.
//!
//! A [`crate::ShardSet`] kills loudly — queued links re-route, the
//! in-flight link finishes — and the [`Supervisor`] is the watchdog that
//! revives the dead shard (fresh kernel via the retained factory, old ring
//! index). Its monitor thread has no poll interval: it blocks on the shard
//! set's change signal and wakes for a **health change** (a kill is
//! noticed when it happens, not a tick later), a **restart attempt
//! reporting back**, or its own **next deadline** (a backed-off retry
//! coming due, a healthy shard due its forgiveness). Two guard rails:
//!
//! * **Bounded exponential backoff** — consecutive restarts of the same
//!   shard wait `backoff_base * 2^n`, capped at `backoff_cap`, so a shard
//!   that dies the moment it boots does not hot-loop its factory. A
//!   shard that stays healthy for `healthy_reset` gets its attempt counter
//!   (and backoff) reset.
//! * **Restart-storm detection** — `storm_threshold` or more restart
//!   attempts on one shard inside `storm_window` abandon it (it stays dead,
//!   `supervisor.storms` counts it) instead of burning the box
//!   rebuilding a server that cannot stay up. The rest of the ring keeps
//!   serving.
//!
//! The supervisor exits on its own when the shard set shuts down.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use crate::shard::{
    ChangeSignal, RestartOutcome, ShardHealth, ShardServer, ShardSet, ShardSetInner,
};

/// Supervisor backoff and storm guard-rail configuration.
#[derive(Debug, Clone, Copy)]
pub struct SupervisorConfig {
    /// Backoff before the first re-restart of a shard that failed again.
    pub backoff_base: Duration,
    /// Upper bound on the exponential backoff.
    pub backoff_cap: Duration,
    /// A shard healthy this long gets its backoff attempt counter reset.
    pub healthy_reset: Duration,
    /// Restarts of one shard within [`SupervisorConfig::storm_window`]
    /// before the supervisor abandons it.
    pub storm_threshold: u32,
    /// The sliding window for restart-storm detection.
    pub storm_window: Duration,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(500),
            healthy_reset: Duration::from_secs(1),
            storm_threshold: 5,
            storm_window: Duration::from_secs(2),
        }
    }
}

/// The watchdog's counters, bumped by the restart-attempt thread just
/// **after** the shard's health flips — a reader that polls health can see
/// the flip a moment before the count. [`Supervisor::instrument`]'s
/// collector names them; the front-end's retry loop also loads
/// `abandoned_shards`.
#[derive(Debug, Default)]
pub(crate) struct SupervisorCounters {
    /// Successful shard restarts.
    restarts: AtomicU64,
    /// Restart attempts whose respawn failed (factory error).
    failed_restarts: AtomicU64,
    /// Times the storm guard abandoned a shard (cumulative).
    storms: AtomicU64,
    /// Gauge, not counter: shards currently written off by the storm
    /// guard; a manually revived shard that holds healthy is forgiven and
    /// leaves it.
    pub(crate) abandoned_shards: AtomicU64,
    /// Kill-to-healthy nanoseconds of the most recent successful restart.
    last_restart_latency_nanos: AtomicU64,
    /// Passes of the monitor loop: one at start, then one per wakeup.
    wakeups: AtomicU64,
}

/// Per-shard bookkeeping private to the monitor thread.
struct WatchState {
    /// When the supervisor first saw this shard dead (restart latency is
    /// measured from here — detection plus backoff plus respawn).
    first_failed_at: Option<Instant>,
    /// Earliest instant the next restart attempt may run.
    next_attempt_at: Instant,
    /// Consecutive attempts since the shard last held healthy.
    attempts: u32,
    /// Completion timestamps of recent restart attempts, successful or
    /// not (the storm window).
    recent: VecDeque<Instant>,
    /// Continuously healthy since this instant.
    healthy_since: Option<Instant>,
    /// Storm-detected: the supervisor gave up on this shard.
    abandoned: bool,
    /// A restart attempt currently running on its own thread — a restart
    /// blocks until the dead shard's in-flight link finishes, and one
    /// stuck link must not freeze supervision of every other shard. The
    /// thread's last act is to send its outcome to the monitor.
    in_flight: Option<thread::JoinHandle<()>>,
}

impl WatchState {
    fn new(now: Instant) -> WatchState {
        WatchState {
            first_failed_at: None,
            next_attempt_at: now,
            attempts: 0,
            recent: VecDeque::new(),
            healthy_since: Some(now),
            abandoned: false,
            in_flight: None,
        }
    }
}

/// The watchdog thread reviving killed shards. Holds the shard set's
/// inner state — dropping the [`crate::ShardSet`] (which shuts the set
/// down) makes the supervisor exit on its own; dropping the supervisor
/// stops the watchdog without touching the set.
pub struct Supervisor {
    monitor: Option<thread::JoinHandle<()>>,
    stop: Arc<AtomicBool>,
    /// The set's change signal: what the monitor blocks on.
    changes: Arc<ChangeSignal>,
    pub(crate) counters: Arc<SupervisorCounters>,
    /// Per-shard storm-abandonment flags, mirrored out of the monitor
    /// thread's private [`WatchState`] so health pollers can tell a shard
    /// that is "restarting soon" from one the watchdog has written off.
    abandoned: Arc<Vec<AtomicBool>>,
    /// Guards [`Supervisor::instrument`] against double registration.
    instrumented: AtomicBool,
}

impl std::fmt::Debug for Supervisor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Supervisor")
            .field("abandoned", &self.abandoned())
            .finish()
    }
}

impl Supervisor {
    /// Start supervising `set` with `config`.
    pub fn spawn<S: ShardServer>(set: &ShardSet<S>, config: SupervisorConfig) -> Supervisor {
        let stop = Arc::new(AtomicBool::new(false));
        let counters = Arc::new(SupervisorCounters::default());
        let inner = set.inner().clone();
        let abandoned: Arc<Vec<AtomicBool>> = Arc::new(
            (0..inner.shards.len())
                .map(|_| AtomicBool::new(false))
                .collect(),
        );
        let monitor = {
            let stop = stop.clone();
            let counters = counters.clone();
            let abandoned = abandoned.clone();
            thread::Builder::new()
                .name("wedge-supervisor".to_string())
                .spawn(move || monitor_loop(&inner, &config, &stop, &counters, &abandoned))
                .expect("spawn supervisor")
        };
        Supervisor {
            monitor: Some(monitor),
            stop,
            changes: set.inner().changes.clone(),
            counters,
            abandoned,
            instrumented: AtomicBool::new(false),
        }
    }

    /// Register the watchdog's counters on `telemetry` as
    /// `supervisor.restarts` / `supervisor.failed_restarts` /
    /// `supervisor.storms` (counters), `supervisor.abandoned_shards`
    /// (gauge) and `supervisor.restart_latency_ns` (gauge, max across
    /// supervisors). The collector holds a `Weak`: a dropped supervisor
    /// disappears from later snapshots. Idempotent per supervisor.
    pub fn instrument(&self, telemetry: &wedge_telemetry::Telemetry) {
        if self
            .instrumented
            .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
            .is_err()
        {
            return;
        }
        let counters = Arc::downgrade(&self.counters);
        telemetry.register_collector(move |sample| {
            let Some(counters) = counters.upgrade() else {
                return;
            };
            let load = |cell: &AtomicU64| cell.load(Ordering::Relaxed);
            sample.counter("supervisor.restarts", load(&counters.restarts));
            sample.counter(
                "supervisor.failed_restarts",
                load(&counters.failed_restarts),
            );
            sample.counter("supervisor.storms", load(&counters.storms));
            sample.gauge(
                "supervisor.abandoned_shards",
                load(&counters.abandoned_shards),
            );
            let latency_ns = load(&counters.last_restart_latency_nanos);
            sample.gauge_max("supervisor.restart_latency_ns", latency_ns);
        });
    }

    /// The shard indices the storm guard has currently written off.
    ///
    /// A shard in this list reads [`crate::ShardHealth::Failed`] yet the
    /// supervisor will **not** revive it — callers polling health need
    /// this to distinguish "dead but restarting soon" from "given up".
    /// Manual revival ([`crate::ShardSet::restart_shard`]) followed by
    /// [`SupervisorConfig::healthy_reset`] of continuous health forgives
    /// the abandonment and removes the shard from this list.
    pub(crate) fn abandoned(&self) -> Vec<usize> {
        self.abandoned
            .iter()
            .enumerate()
            .filter(|(_, flag)| flag.load(Ordering::Relaxed))
            .map(|(idx, _)| idx)
            .collect()
    }
}

impl Drop for Supervisor {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        self.changes.notify();
        if let Some(monitor) = self.monitor.take() {
            let _ = monitor.join();
        }
    }
}

fn backoff(config: &SupervisorConfig, attempts: u32) -> Duration {
    let factor = 1u32 << attempts.min(16);
    config
        .backoff_base
        .saturating_mul(factor)
        .min(config.backoff_cap)
}

fn monitor_loop<S: ShardServer>(
    inner: &Arc<ShardSetInner<S>>,
    config: &SupervisorConfig,
    stop: &AtomicBool,
    counters: &Arc<SupervisorCounters>,
    abandoned: &[AtomicBool],
) {
    let now = Instant::now();
    let mut watch: Vec<WatchState> = (0..inner.shards.len())
        .map(|_| WatchState::new(now))
        .collect();
    let (done_tx, done_rx) = std::sync::mpsc::channel::<(usize, thread::Result<RestartOutcome>)>();
    loop {
        counters.wakeups.fetch_add(1, Ordering::Relaxed);
        // Read before scanning: an event that lands mid-scan re-runs it.
        let seen = inner.changes.seen();
        if stop.load(Ordering::SeqCst) || inner.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let now = Instant::now();
        while let Ok((idx, outcome)) = done_rx.try_recv() {
            let state = &mut watch[idx];
            if let Some(attempt) = state.in_flight.take() {
                let _ = attempt.join();
            }
            // Every real attempt — revival, failed respawn or panic —
            // counts toward the storm window, so a factory that fails
            // every respawn also trips the guard. A Skipped one (lost the
            // claim, racing kill/shutdown) attempted and counts nothing.
            match outcome {
                Ok(RestartOutcome::Restarted(_)) => {
                    state.recent.push_back(now);
                    state.first_failed_at = None;
                }
                Ok(RestartOutcome::FactoryFailed(_)) | Err(_) => state.recent.push_back(now),
                Ok(RestartOutcome::Skipped(_)) => {}
            }
        }
        // The earliest instant anything below comes due with no event.
        let mut wake_at: Option<Instant> = None;
        let mut wake_by = |at: Instant| wake_at = Some(wake_at.map_or(at, |w| w.min(at)));
        for (idx, state) in watch.iter_mut().enumerate() {
            // An attempt still blocked (e.g. waiting out the dead shard's
            // in-flight link) must not freeze supervision of the others.
            if state.in_flight.is_some() {
                continue;
            }
            match inner.shards[idx].health() {
                ShardHealth::Healthy => {
                    state.first_failed_at = None;
                    let forgiven_at =
                        *state.healthy_since.get_or_insert(now) + config.healthy_reset;
                    if now >= forgiven_at {
                        // Held healthy long enough: forgive the history so
                        // the next failure starts from the base backoff —
                        // including a storm abandonment, so a shard an
                        // operator manually revived is supervised again.
                        state.attempts = 0;
                        if state.abandoned {
                            state.abandoned = false;
                            state.recent.clear();
                            abandoned[idx].store(false, Ordering::Relaxed);
                            counters.abandoned_shards.fetch_sub(1, Ordering::Relaxed);
                        }
                    } else if state.attempts > 0 || state.abandoned {
                        wake_by(forgiven_at);
                    }
                }
                ShardHealth::Restarting => {}
                ShardHealth::Failed => {
                    state.healthy_since = None;
                    if state.abandoned {
                        continue;
                    }
                    state.first_failed_at.get_or_insert(now);
                    if now < state.next_attempt_at {
                        wake_by(state.next_attempt_at);
                        continue;
                    }
                    // Storm guard: too many restart attempts inside the
                    // window means the shard cannot stay up — stop
                    // feeding it.
                    let stale = |at: &Instant| now - *at > config.storm_window;
                    while state.recent.front().is_some_and(stale) {
                        state.recent.pop_front();
                    }
                    if state.recent.len() >= config.storm_threshold as usize {
                        state.abandoned = true;
                        abandoned[idx].store(true, Ordering::Relaxed);
                        counters.storms.fetch_add(1, Ordering::Relaxed);
                        counters.abandoned_shards.fetch_add(1, Ordering::Relaxed);
                        // Submitters waiting out a dead ring must re-count
                        // what can still come back.
                        inner.health_changed();
                        continue;
                    }
                    // First retry waits backoff_base, then the ladder
                    // doubles, capped.
                    state.next_attempt_at = now + backoff(config, state.attempts);
                    state.attempts = state.attempts.saturating_add(1);
                    // The attempt thread updates the counters itself, so
                    // stats lag the health flip by nanoseconds.
                    let inner = inner.clone();
                    let counters = counters.clone();
                    let done_tx = done_tx.clone();
                    let first_failed_at = state.first_failed_at.unwrap_or(now);
                    state.in_flight = Some(
                        thread::Builder::new()
                            .name(format!("wedge-restart-{idx}"))
                            .spawn(move || {
                                let outcome =
                                    catch_unwind(AssertUnwindSafe(|| inner.try_restart_shard(idx)));
                                match &outcome {
                                    Ok(RestartOutcome::Restarted(_boot_cost)) => {
                                        counters.last_restart_latency_nanos.store(
                                            first_failed_at.elapsed().as_nanos() as u64,
                                            Ordering::Relaxed,
                                        );
                                        counters.restarts.fetch_add(1, Ordering::Relaxed);
                                    }
                                    Ok(RestartOutcome::FactoryFailed(_)) => {
                                        // The backed-off next_attempt_at
                                        // throttles the retry.
                                        counters.failed_restarts.fetch_add(1, Ordering::Relaxed);
                                    }
                                    Ok(RestartOutcome::Skipped(_)) | Err(_) => {}
                                }
                                let _ = done_tx.send((idx, outcome));
                                inner.changes.notify();
                            })
                            .expect("spawn restart attempt"),
                    );
                }
            }
        }
        inner.changes.wait_past(seen, wake_at);
    }
    // Exiting (stop or set shutdown): in-flight attempts are left to
    // finish on their own — restart_shard itself refuses to resurrect a
    // shut-down set, so a straggler can at worst complete a legitimate
    // revival.
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::acceptor::{AcceptPolicy, Acceptor};
    use crate::shard::ShardConfig;
    use std::sync::atomic::AtomicUsize;
    use wedge_core::{KernelStats, WedgeError};
    use wedge_net::{duplex_pair, Duplex, RecvTimeout};
    use wedge_telemetry::Telemetry;

    struct EchoServer;

    impl ShardServer for EchoServer {
        type Report = usize;

        fn serve_link(&self, shard: usize, link: Duplex) -> Result<usize, WedgeError> {
            let _ = link.recv(RecvTimeout::Forever);
            Ok(shard)
        }

        fn kernel_stats(&self) -> KernelStats {
            KernelStats::default()
        }
    }

    fn await_health<S: ShardServer>(
        set: &ShardSet<S>,
        idx: usize,
        want: ShardHealth,
        timeout: Duration,
    ) -> bool {
        let deadline = Instant::now() + timeout;
        while Instant::now() < deadline {
            if set.health(idx) == want {
                return true;
            }
            thread::sleep(Duration::from_millis(1));
        }
        false
    }

    /// The restart counter is bumped by the attempt thread just *after*
    /// the health flip, so a reader racing `await_health` polls briefly.
    fn await_restarts(telemetry: &Telemetry, want: u64, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        while Instant::now() < deadline {
            if telemetry.snapshot().counter("supervisor.restarts") >= want {
                return true;
            }
            thread::sleep(Duration::from_millis(1));
        }
        false
    }

    /// The watchdog blocks on health events only: 1,000 links served with
    /// no fault (each a dequeue and a completion on the capacity signal)
    /// wake it a small constant number of times, not once per link.
    #[test]
    fn serving_without_faults_leaves_the_watchdog_asleep() {
        let set = ShardSet::new(
            ShardConfig {
                shards: 2,
                ..ShardConfig::default()
            },
            |_id| Ok(EchoServer),
        )
        .expect("set");
        let supervisor = Supervisor::spawn(&set, SupervisorConfig::default());
        let acceptor = Acceptor::new(&set, AcceptPolicy::RoundRobin);
        for _ in 0..1_000 {
            let (client, server) = duplex_pair("c", "s");
            client.send(b"go").unwrap();
            assert!(acceptor.submit(server).unwrap().join().is_ok());
        }
        let wakeups = supervisor.counters.wakeups.load(Ordering::Relaxed);
        assert!(
            wakeups <= 4,
            "1,000 links woke the watchdog {wakeups} times"
        );
    }

    #[test]
    fn supervisor_revives_a_killed_shard() {
        let set = ShardSet::new(
            ShardConfig {
                shards: 2,
                ..ShardConfig::default()
            },
            |_id| Ok(EchoServer),
        )
        .expect("set");
        let supervisor = Supervisor::spawn(&set, SupervisorConfig::default());
        let telemetry = Telemetry::new();
        supervisor.instrument(&telemetry);
        set.kill_shard(0);
        assert!(
            await_health(&set, 0, ShardHealth::Healthy, Duration::from_secs(5)),
            "supervisor must revive the killed shard"
        );
        assert!(await_restarts(&telemetry, 1, Duration::from_secs(5)));
        let snapshot = telemetry.snapshot();
        assert_eq!(snapshot.counter("supervisor.restarts"), 1);
        assert_eq!(snapshot.counter("supervisor.storms"), 0);
        assert!(
            snapshot.counter("supervisor.restart_latency_ns") > 0,
            "restart latency is measured"
        );
        assert_eq!(set.shard_stats()[0].restarts, 1);
        // The revived shard serves again.
        let acceptor = Acceptor::new(&set, AcceptPolicy::RoundRobin);
        let (client, server) = duplex_pair("c", "s");
        client.send(b"go").unwrap();
        assert!(acceptor.submit(server).unwrap().join().is_ok());
    }

    #[test]
    fn repeated_kills_back_off_and_eventually_trip_the_storm_guard() {
        let set = ShardSet::new(
            ShardConfig {
                shards: 2,
                ..ShardConfig::default()
            },
            |_id| Ok(EchoServer),
        )
        .expect("set");
        let config = SupervisorConfig {
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(5),
            storm_threshold: 3,
            storm_window: Duration::from_secs(30),
            ..SupervisorConfig::default()
        };
        let supervisor = Supervisor::spawn(&set, config);
        let telemetry = Telemetry::new();
        supervisor.instrument(&telemetry);
        // Kill the shard every time it comes back: the storm guard must
        // abandon it after `storm_threshold` revivals.
        let deadline = Instant::now() + Duration::from_secs(10);
        while telemetry.snapshot().counter("supervisor.storms") == 0 {
            assert!(Instant::now() < deadline, "storm guard never tripped");
            if set.health(0) == ShardHealth::Healthy {
                set.kill_shard(0);
            }
            thread::sleep(Duration::from_millis(1));
        }
        let snapshot = telemetry.snapshot();
        assert_eq!(snapshot.counter("supervisor.storms"), 1);
        assert_eq!(
            snapshot.counter("supervisor.restarts"),
            3,
            "exactly storm_threshold revivals before giving up"
        );
        // The abandoned shard stays dead; the ring keeps serving on the
        // survivor.
        thread::sleep(Duration::from_millis(20));
        assert_eq!(set.health(0), ShardHealth::Failed);
        // Health alone reads Failed for both "restarting soon" and
        // "given up" — the accessor is what disambiguates.
        assert_eq!(supervisor.abandoned(), vec![0]);
        let acceptor = Acceptor::new(&set, AcceptPolicy::RoundRobin);
        let (client, server) = duplex_pair("c", "s");
        client.send(b"go").unwrap();
        assert_eq!(acceptor.submit(server).unwrap().join().unwrap(), 1);
    }

    #[test]
    fn a_manually_revived_abandoned_shard_is_supervised_again() {
        let set = ShardSet::new(
            ShardConfig {
                shards: 1,
                ..ShardConfig::default()
            },
            |_id| Ok(EchoServer),
        )
        .expect("set");
        let supervisor = Supervisor::spawn(
            &set,
            SupervisorConfig {
                backoff_base: Duration::from_millis(1),
                backoff_cap: Duration::from_millis(5),
                healthy_reset: Duration::from_millis(50),
                storm_threshold: 2,
                storm_window: Duration::from_secs(30),
            },
        );
        let telemetry = Telemetry::new();
        supervisor.instrument(&telemetry);
        // Storm-abandon the only shard by killing it whenever it returns.
        let deadline = Instant::now() + Duration::from_secs(10);
        while telemetry.snapshot().counter("supervisor.storms") == 0 {
            assert!(Instant::now() < deadline, "storm guard never tripped");
            if set.health(0) == ShardHealth::Healthy {
                set.kill_shard(0);
            }
            thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(set.health(0), ShardHealth::Failed);
        assert_eq!(
            telemetry.snapshot().counter("supervisor.abandoned_shards"),
            1
        );
        assert_eq!(supervisor.abandoned(), vec![0]);
        // An operator revives it by hand and it holds healthy past
        // healthy_reset: the watchdog must forgive the abandonment...
        set.restart_shard(0).expect("manual revival");
        let deadline = Instant::now() + Duration::from_secs(10);
        while telemetry.snapshot().counter("supervisor.abandoned_shards") > 0 {
            assert!(Instant::now() < deadline, "abandonment never forgiven");
            thread::sleep(Duration::from_millis(1));
        }
        assert!(
            supervisor.abandoned().is_empty(),
            "forgiveness clears the per-shard flag too"
        );
        // ...and supervise the next failure again.
        let revivals_so_far = telemetry.snapshot().counter("supervisor.restarts");
        set.kill_shard(0);
        assert!(
            await_health(&set, 0, ShardHealth::Healthy, Duration::from_secs(5)),
            "a forgiven shard must be auto-revived again"
        );
        assert!(await_restarts(
            &telemetry,
            revivals_so_far + 1,
            Duration::from_secs(5)
        ));
        assert_eq!(
            telemetry.snapshot().counter("supervisor.storms"),
            1,
            "the old storm stays counted"
        );
    }

    #[test]
    fn failed_respawns_are_counted_and_retried() {
        // A factory that fails its first post-boot invocation for shard 0,
        // then succeeds: the supervisor must count the failure and still
        // revive the shard on the backed-off retry.
        let boots = Arc::new(AtomicUsize::new(0));
        let factory_boots = boots.clone();
        let set = ShardSet::new(
            ShardConfig {
                shards: 1,
                ..ShardConfig::default()
            },
            move |_id| {
                // Boot 0 is the cold boot; boot 1 (first restart attempt)
                // fails; boot 2 succeeds.
                if factory_boots.fetch_add(1, Ordering::SeqCst) == 1 {
                    Err(WedgeError::InvalidOperation("flaky respawn".into()))
                } else {
                    Ok(EchoServer)
                }
            },
        )
        .expect("set");
        let supervisor = Supervisor::spawn(
            &set,
            SupervisorConfig {
                backoff_base: Duration::from_millis(1),
                ..SupervisorConfig::default()
            },
        );
        let telemetry = Telemetry::new();
        supervisor.instrument(&telemetry);
        set.kill_shard(0);
        assert!(
            await_health(&set, 0, ShardHealth::Healthy, Duration::from_secs(5)),
            "shard must come back after the flaky respawn"
        );
        assert!(await_restarts(&telemetry, 1, Duration::from_secs(5)));
        let snapshot = telemetry.snapshot();
        assert_eq!(snapshot.counter("supervisor.failed_restarts"), 1);
        assert_eq!(snapshot.counter("supervisor.restarts"), 1);
        assert_eq!(boots.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn a_blocked_restart_does_not_freeze_supervision_of_other_shards() {
        let set = ShardSet::new(
            ShardConfig {
                shards: 2,
                ..ShardConfig::default()
            },
            |_id| Ok(EchoServer),
        )
        .expect("set");
        let supervisor = Supervisor::spawn(
            &set,
            SupervisorConfig {
                backoff_base: Duration::from_millis(1),
                ..SupervisorConfig::default()
            },
        );
        let telemetry = Telemetry::new();
        supervisor.instrument(&telemetry);
        let acceptor = Acceptor::new(&set, AcceptPolicy::SessionAffinity);
        let to_zero = (0u64..)
            .find(|k| crate::acceptor::shard_for_key(*k, 2) == 0)
            .expect("key");
        // Shard 0 serves a link whose client stays silent; wait until the
        // worker holds it.
        let (held_client, held_server) = duplex_pair("held", "s");
        let held = acceptor.submit_with_key(held_server, to_zero).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while !set.inner().shards[0].queue.lock().is_empty() {
            assert!(Instant::now() < deadline, "worker never started");
            thread::sleep(Duration::from_millis(1));
        }
        // Kill it: the supervisor's restart attempt must block waiting
        // out the in-flight link...
        set.kill_shard(0);
        // ...but killing shard 1 too must still be noticed and revived.
        thread::sleep(Duration::from_millis(20));
        set.kill_shard(1);
        assert!(
            await_health(&set, 1, ShardHealth::Healthy, Duration::from_secs(5)),
            "a stuck shard-0 restart must not freeze shard 1's revival"
        );
        assert_ne!(
            set.health(0),
            ShardHealth::Healthy,
            "shard 0 is still waiting out its in-flight link"
        );
        // Release the held link: shard 0's restart completes too.
        held_client.send(b"done").unwrap();
        assert_eq!(held.join().unwrap(), 0, "the in-flight link finished");
        assert!(
            await_health(&set, 0, ShardHealth::Healthy, Duration::from_secs(5)),
            "shard 0 revives once its in-flight link resolves"
        );
        assert!(await_restarts(&telemetry, 2, Duration::from_secs(5)));
        assert_eq!(telemetry.snapshot().counter("supervisor.restarts"), 2);
    }

    #[test]
    fn supervisor_exits_when_the_set_shuts_down() {
        let set = ShardSet::new(
            ShardConfig {
                shards: 1,
                ..ShardConfig::default()
            },
            |_id| Ok(EchoServer),
        )
        .expect("set");
        let supervisor = Supervisor::spawn(&set, SupervisorConfig::default());
        drop(set);
        // Dropping the supervisor joins its monitor thread; the monitor
        // must have exited on the shutdown flag rather than deadlocking.
        drop(supervisor);
    }

    /// The kill itself wakes the watchdog: detection costs a wake-up, not
    /// the rest of a poll tick. A few fresh sets get a chance each, so one
    /// descheduled thread on a loaded box does not read as a regression.
    #[test]
    fn a_kill_is_noticed_when_it_happens_not_a_tick_later() {
        const OLD_POLL_FLOOR: Duration = Duration::from_millis(2);
        let mut seen_latencies = Vec::new();
        for _trial in 0..5 {
            let set = ShardSet::new(
                ShardConfig {
                    shards: 1,
                    ..ShardConfig::default()
                },
                |_id| Ok(EchoServer),
            )
            .expect("set");
            let supervisor = Supervisor::spawn(&set, SupervisorConfig::default());
            let telemetry = Telemetry::new();
            supervisor.instrument(&telemetry);
            set.kill_shard(0);
            // Block on the same change signal the watchdog does; the
            // attempt thread's last notify follows its counter updates.
            let revived = || telemetry.snapshot().counter("supervisor.restarts") == 1;
            set.inner().changes.wait_until(None, revived);
            let latency_ns = telemetry
                .snapshot()
                .counter("supervisor.restart_latency_ns");
            let latency = Duration::from_nanos(latency_ns);
            let boot_cost = set.shard_stats()[0].boot_cost;
            if latency < OLD_POLL_FLOOR + boot_cost {
                return;
            }
            seen_latencies.push((latency, boot_cost));
        }
        panic!("no restart beat the old poll floor: (latency, boot) = {seen_latencies:?}");
    }
}
