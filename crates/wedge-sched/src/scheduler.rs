//! The multi-worker job scheduler.
//!
//! N OS worker threads each own a bounded [`RunQueue`]; submitted jobs are
//! placed round-robin, executed FIFO by their owner, and stolen (newest
//! first) by idle siblings. Admission is controlled by a
//! [`ResourceAccountant`]: each in-flight job holds one slot on the
//! `Sthreads` axis (connection jobs spawn sthreads, so the axis is the
//! natural one), and both a full quota and full run queues reject the job
//! with [`WedgeError::ResourceExhausted`] instead of queuing unboundedly —
//! the backpressure contract servers build on.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;

use parking_lot::{Condvar, Mutex};

use wedge_core::resource::{ResourceAccountant, ResourceKind, ResourceLimits};
use wedge_core::WedgeError;

use crate::metrics::{SchedCounters, SchedStats};
use crate::queue::RunQueue;

/// Scheduler sizing and admission configuration.
#[derive(Debug, Clone, Copy)]
pub struct SchedulerConfig {
    /// Number of worker threads (and run queues).
    pub workers: usize,
    /// Bounded capacity of each worker's run queue.
    pub queue_capacity: usize,
    /// Maximum jobs admitted (queued + running) at once; `None` leaves the
    /// quota axis unlimited and only the bounded queues push back.
    pub max_pending: Option<u64>,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            workers: 4,
            queue_capacity: 32,
            max_pending: None,
        }
    }
}

type Job = Box<dyn FnOnce() + Send + 'static>;

struct Shared {
    queues: Vec<RunQueue<Job>>,
    admission: Arc<ResourceAccountant>,
    counters: SchedCounters,
    shutdown: AtomicBool,
    wakeup: Mutex<()>,
    signal: Condvar,
}

impl Shared {
    fn find_work(&self, me: usize) -> Option<(Job, bool)> {
        if let Some(job) = self.queues[me].pop_front() {
            return Some((job, false));
        }
        let n = self.queues.len();
        for offset in 1..n {
            if let Some(job) = self.queues[(me + offset) % n].steal_back() {
                return Some((job, true));
            }
        }
        None
    }
}

/// A multi-worker scheduler with bounded work-stealing run queues.
pub struct Scheduler {
    shared: Arc<Shared>,
    next_queue: AtomicUsize,
    threads: Vec<thread::JoinHandle<()>>,
}

impl std::fmt::Debug for Scheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scheduler")
            .field("workers", &self.threads.len())
            .field("stats", &self.stats())
            .finish()
    }
}

impl Scheduler {
    /// Start `config.workers` worker threads.
    pub fn new(config: SchedulerConfig) -> Scheduler {
        let workers = config.workers.max(1);
        let mut limits = ResourceLimits::unlimited();
        if let Some(max) = config.max_pending {
            limits = limits.with_sthreads(max);
        }
        let shared = Arc::new(Shared {
            queues: (0..workers)
                .map(|_| RunQueue::new(config.queue_capacity))
                .collect(),
            admission: ResourceAccountant::new(limits),
            counters: SchedCounters::default(),
            shutdown: AtomicBool::new(false),
            wakeup: Mutex::new(()),
            signal: Condvar::new(),
        });
        let threads = (0..workers)
            .map(|me| {
                let shared = shared.clone();
                thread::Builder::new()
                    .name(format!("wedge-sched-{me}"))
                    .spawn(move || worker_loop(&shared, me))
                    .expect("spawn scheduler worker")
            })
            .collect();
        Scheduler {
            shared,
            next_queue: AtomicUsize::new(0),
            threads,
        }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.threads.len()
    }

    /// Scheduler activity counters.
    pub fn stats(&self) -> SchedStats {
        self.shared.counters.snapshot()
    }

    /// The admission accountant (job slots are the `Sthreads` axis).
    pub fn admission(&self) -> &Arc<ResourceAccountant> {
        &self.shared.admission
    }

    /// Submit a job. Returns a handle resolving to the job's result, or
    /// [`WedgeError::ResourceExhausted`] when admission control (quota or
    /// full run queues) rejects it.
    pub fn submit<R, F>(&self, f: F) -> Result<JobHandle<R>, WedgeError>
    where
        R: Send + 'static,
        F: FnOnce() -> R + Send + 'static,
    {
        self.shared
            .admission
            .charge(ResourceKind::Sthreads, 1)
            .inspect_err(|_| {
                SchedCounters::bump(&self.shared.counters.rejected);
            })?;
        let (tx, rx) = crossbeam::channel::bounded::<Result<R, WedgeError>>(1);
        let shared = self.shared.clone();
        let mut job: Job = Box::new(move || {
            let outcome = catch_unwind(AssertUnwindSafe(f));
            shared.admission.release(ResourceKind::Sthreads, 1);
            SchedCounters::bump(&shared.counters.completed);
            let result = outcome
                .map_err(|payload| WedgeError::SthreadPanicked(wedge_core::panic_message(payload)));
            let _ = tx.send(result);
        });

        // Round-robin placement, falling over to any queue with room.
        let n = self.shared.queues.len();
        let start = self.next_queue.fetch_add(1, Ordering::Relaxed) % n;
        for offset in 0..n {
            match self.shared.queues[(start + offset) % n].push(job) {
                Ok(depth) => {
                    SchedCounters::bump(&self.shared.counters.submitted);
                    self.shared.counters.observe_depth(depth as u64);
                    // One waker suffices: any woken worker can steal the job
                    // from any queue. Through the wakeup lock: an idle
                    // worker re-scans under it before it blocks, so the
                    // notify cannot land between that scan and the wait.
                    drop(self.shared.wakeup.lock());
                    self.shared.signal.notify_one();
                    return Ok(JobHandle { rx });
                }
                Err(back) => job = back,
            }
        }
        // Every queue is full: refund the slot and push back.
        self.shared.admission.release(ResourceKind::Sthreads, 1);
        SchedCounters::bump(&self.shared.counters.rejected);
        Err(WedgeError::ResourceExhausted {
            resource: "scheduler run-queue slots".to_string(),
            limit: (n * self.shared.queues[0].capacity()) as u64,
            attempted: (n * self.shared.queues[0].capacity()) as u64 + 1,
        })
    }

    /// Stop accepting implicit work and join the workers after they drain
    /// every queued job.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        drop(self.shared.wakeup.lock());
        self.shared.signal.notify_all();
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

fn worker_loop(shared: &Shared, me: usize) {
    loop {
        match shared.find_work(me) {
            Some((job, was_stolen)) => {
                if was_stolen {
                    SchedCounters::bump(&shared.counters.stolen);
                }
                job();
            }
            None => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    // Drain-then-exit: one more scan happens on the next
                    // iteration if a submit raced the shutdown flag.
                    if shared.queues.iter().all(|q| q.is_empty()) {
                        return;
                    }
                } else {
                    let mut guard = shared.wakeup.lock();
                    // Re-scan under the lock submit and shutdown notify
                    // through; only a still-idle worker blocks.
                    let idle = shared.queues.iter().all(|q| q.is_empty())
                        && !shared.shutdown.load(Ordering::SeqCst);
                    if idle {
                        shared.signal.wait(&mut guard);
                    }
                }
            }
        }
    }
}

/// Handle to a submitted job; resolves to the job's return value.
pub struct JobHandle<R> {
    rx: crossbeam::channel::Receiver<Result<R, WedgeError>>,
}

impl<R> std::fmt::Debug for JobHandle<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("JobHandle { .. }")
    }
}

impl<R> JobHandle<R> {
    /// Block until the job finishes. A panicking job surfaces as
    /// [`WedgeError::SthreadPanicked`].
    pub fn join(self) -> Result<R, WedgeError> {
        self.rx
            .recv()
            .map_err(|_| WedgeError::InvalidOperation("scheduler dropped the job".into()))?
    }

    /// Non-blocking poll; `None` while the job is still running.
    pub fn try_join(&self) -> Option<Result<R, WedgeError>> {
        self.rx.try_recv().ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::time::Duration;

    #[test]
    fn jobs_run_and_results_round_trip() {
        let sched = Scheduler::new(SchedulerConfig {
            workers: 2,
            queue_capacity: 8,
            max_pending: None,
        });
        let handles: Vec<_> = (0..16u64)
            .map(|i| sched.submit(move || i * i).unwrap())
            .collect();
        let mut results: Vec<u64> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        results.sort_unstable();
        assert_eq!(results, (0..16u64).map(|i| i * i).collect::<Vec<_>>());
        let stats = sched.stats();
        assert_eq!(stats.submitted, 16);
        assert_eq!(stats.completed, 16);
        assert_eq!(stats.rejected, 0);
    }

    #[test]
    fn admission_quota_rejects_beyond_max_pending() {
        let sched = Scheduler::new(SchedulerConfig {
            workers: 1,
            queue_capacity: 16,
            max_pending: Some(2),
        });
        let gate = Arc::new(std::sync::Barrier::new(2));
        let g1 = gate.clone();
        // One job blocks the single worker...
        let blocker = sched.submit(move || g1.wait()).unwrap();
        // ...a second occupies the remaining admission slot...
        let queued = sched.submit(|| ()).unwrap();
        // ...and the third is refused by the quota.
        let err = sched.submit(|| ()).unwrap_err();
        assert!(matches!(err, WedgeError::ResourceExhausted { .. }));
        gate.wait();
        blocker.join().unwrap();
        queued.join().unwrap();
        assert_eq!(sched.stats().rejected, 1);
        // Slots are released on completion, so admission recovers.
        sched.submit(|| ()).unwrap().join().unwrap();
    }

    #[test]
    fn full_bounded_queues_reject_with_backpressure() {
        let sched = Scheduler::new(SchedulerConfig {
            workers: 1,
            queue_capacity: 1,
            max_pending: None,
        });
        let started = Arc::new(std::sync::Barrier::new(2));
        let release = Arc::new(std::sync::Barrier::new(2));
        let (s, r) = (started.clone(), release.clone());
        let blocker = sched
            .submit(move || {
                s.wait();
                r.wait();
            })
            .unwrap();
        // Rendezvous: the worker is now definitely running the blocker, so
        // the single queue slot is empty.
        started.wait();
        let queued = sched.submit(|| ()).unwrap();
        // Queue capacity 1: one queued job fits, the next must bounce.
        let err = sched.submit(|| ()).unwrap_err();
        assert!(matches!(err, WedgeError::ResourceExhausted { .. }));
        release.wait();
        blocker.join().unwrap();
        queued.join().unwrap();
        assert_eq!(sched.stats().rejected, 1);
    }

    #[test]
    fn idle_workers_steal_queued_jobs() {
        // Worker 0 is pinned by a long job; its queued siblings must be
        // stolen and completed by worker 1.
        let sched = Scheduler::new(SchedulerConfig {
            workers: 2,
            queue_capacity: 64,
            max_pending: None,
        });
        let gate = Arc::new(std::sync::Barrier::new(2));
        let executed = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for i in 0..12u64 {
            let executed = executed.clone();
            let gate = gate.clone();
            handles.push(
                sched
                    .submit(move || {
                        if i == 0 {
                            gate.wait();
                        }
                        executed.fetch_add(1, Ordering::Relaxed);
                    })
                    .unwrap(),
            );
        }
        // All short jobs finish even though one worker is blocked.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while executed.load(Ordering::Relaxed) < 11 {
            assert!(std::time::Instant::now() < deadline, "stealing stalled");
            std::thread::sleep(Duration::from_millis(2));
        }
        gate.wait();
        for h in handles {
            h.join().unwrap();
        }
        assert!(sched.stats().stolen > 0, "expected at least one steal");
    }

    #[test]
    fn panicking_jobs_report_and_release_their_slot() {
        let sched = Scheduler::new(SchedulerConfig {
            workers: 1,
            queue_capacity: 4,
            max_pending: Some(1),
        });
        let handle = sched.submit(|| panic!("job exploded")).unwrap();
        match handle.join() {
            Err(WedgeError::SthreadPanicked(msg)) => assert!(msg.contains("exploded")),
            other => panic!("expected panic report, got {other:?}"),
        }
        // The slot was released despite the panic.
        sched.submit(|| 7u8).unwrap().join().unwrap();
    }

    #[test]
    fn shutdown_drains_queued_jobs() {
        let sched = Scheduler::new(SchedulerConfig {
            workers: 2,
            queue_capacity: 64,
            max_pending: None,
        });
        let count = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..32)
            .map(|_| {
                let count = count.clone();
                sched
                    .submit(move || {
                        std::thread::sleep(Duration::from_millis(1));
                        count.fetch_add(1, Ordering::Relaxed);
                    })
                    .unwrap()
            })
            .collect();
        sched.shutdown();
        assert_eq!(count.load(Ordering::Relaxed), 32);
        for h in handles {
            h.join().unwrap();
        }
    }
}
