//! Kernel shards behind a shared front-end.
//!
//! A [`ShardSet`] is a sharded front-end in one process: each shard boots its
//! **own** server instance over an independent simulated kernel — the
//! factory runs once per shard, before the first connection, and
//! [`ShardStats::boot_cost`] is what that call took — and runs a dedicated
//! worker that drains the shard's bounded link queue.
//!
//! The queue is the shard's only admission bound: a shard whose queue
//! holds `queue_capacity` links refuses, and a killed shard refuses
//! outright; the [`crate::Acceptor`] skips refusing shards and surfaces
//! [`WedgeError::ResourceExhausted`] only when *every* shard rejects.
//! Killing a shard drains its queued links and re-routes them to healthy
//! siblings — a queued connection is never silently dropped; if no
//! sibling can take it, its handle resolves to the same
//! `ResourceExhausted` a fresh submission would have seen.
//!
//! A killed shard is no longer dead forever: [`ShardSet::restart_shard`]
//! respawns it **with its old ring index** — the factory re-run for a
//! fresh simulated kernel, the server swapped in and a new queue worker
//! started — after which placement policies see it healthy again and
//! session-affinity keys that hash to it come home. A factory that errors
//! or panics leaves the shard failed and free to restart again. The
//! [`crate::Supervisor`] automates this with bounded exponential backoff
//! and restart-storm detection.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex, RwLock};

use wedge_core::{KernelStats, WedgeError};
use wedge_net::Duplex;
use wedge_telemetry::{Counter, HandshakeKind, Histogram, Telemetry, TelemetryEvent};

/// A server a shard can boot and drive. One instance per shard, each over
/// its own independent kernel; the shard's worker thread is the only
/// caller of [`ShardServer::serve_link`], but stats may be read from any
/// thread.
pub trait ShardServer: Send + Sync + 'static {
    /// The per-connection report the server produces.
    type Report: Send + 'static;

    /// Serve one link end to end on this shard. `shard` is the serving
    /// shard's id, for stamping into the report so callers can attribute
    /// outcomes (and failures) to a shard.
    fn serve_link(&self, shard: usize, link: Duplex) -> Result<Self::Report, WedgeError>;

    /// The shard kernel's counters.
    fn kernel_stats(&self) -> KernelStats;

    /// Classify a successful report as a full or abbreviated (resumed)
    /// TLS handshake, or `None` for non-TLS protocols and reports whose
    /// handshake failed. The shard worker uses this to keep the
    /// `tls.handshake.full` / `tls.handshake.abbreviated` counters
    /// without the generic scheduler depending on any protocol crate.
    fn handshake_kind(_report: &Self::Report) -> Option<HandshakeKind> {
        None
    }

    /// Hook for the server to register its own collectors (typically the
    /// shard kernel's counters) on the front-end's [`Telemetry`]. Called
    /// once when the owning [`ShardSet`] is instrumented, and again on
    /// every freshly built replacement server after a restart.
    fn instrument(&self, _telemetry: &Telemetry) {}
}

/// Shard-set sizing and backpressure.
#[derive(Debug, Clone, Copy)]
pub struct ShardConfig {
    /// Number of shard workers (independent kernels) to boot.
    pub shards: usize,
    /// Bounded per-shard link-queue capacity: a shard holding this many
    /// queued links refuses the next.
    pub queue_capacity: usize,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            shards: 4,
            queue_capacity: 64,
        }
    }
}

/// Liveness of one shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardHealth {
    /// Accepting links.
    Healthy,
    /// Killed (fault injection or operator action); accepts nothing.
    Failed,
    /// A restart is respawning the shard's kernel; accepts nothing yet.
    Restarting,
}

const HEALTH_HEALTHY: u8 = 0;
const HEALTH_FAILED: u8 = 1;
const HEALTH_RESTARTING: u8 = 2;

/// What [`ShardSet::kill_shard`] did with the dead shard's queued links.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KillReport {
    /// Queued links re-routed to a healthy sibling.
    pub rerouted: usize,
    /// Queued links no sibling could admit; each resolved through its
    /// handle with [`WedgeError::ResourceExhausted`] — failed loudly,
    /// never silently dropped.
    pub failed: usize,
}

/// The trace a job carries from placement to serve: the root context the
/// listener minted (read off the link), the tracer that owns it, and the
/// stamps the worker needs to close the `queue` span and the root. Rides
/// through re-routes unchanged, so a stolen link's queue span covers its
/// whole wait, first shard included.
pub(crate) struct JobTrace {
    pub(crate) tracer: std::sync::Arc<wedge_telemetry::Tracer>,
    /// The root span's context.
    pub(crate) ctx: wedge_telemetry::TraceContext,
    /// Root-span start (backlog enqueue), in tracer-clock ns.
    pub(crate) root_start_ns: u64,
    /// When the acceptor submitted the job, in tracer-clock ns.
    pub(crate) submitted_ns: u64,
}

/// One queued unit of work: a link plus the channel its report resolves
/// through, tagged with the link's `arrival` index (0 for a
/// [`crate::ShardJobHandle`]'s own channel). Public only to the crate so
/// the acceptor can build and re-route jobs.
pub(crate) struct ShardJob<R> {
    pub(crate) link: Duplex,
    pub(crate) arrival: usize,
    pub(crate) tx: crossbeam::channel::Sender<(usize, Result<R, WedgeError>)>,
    /// The request's trace, when the link came through a traced listener.
    /// Boxed so the untraced job (the common case) stays small enough to
    /// bounce through `Result` re-routes by value.
    pub(crate) trace: Option<Box<JobTrace>>,
}

pub(crate) struct Shard<S: ShardServer> {
    pub(crate) id: usize,
    /// The shard's server instance. Swapped for a freshly built one on
    /// restart; the worker holds the read side while serving, restart
    /// takes the write side only after the old worker has been joined.
    pub(crate) server: RwLock<S>,
    pub(crate) queue: Mutex<VecDeque<ShardJob<S::Report>>>,
    signal: Condvar,
    health: AtomicU8,
    /// Queued + currently-serving links.
    depth: AtomicUsize,
    /// Highest `depth` observed at enqueue time.
    peak_depth: AtomicU64,
    /// How long the factory took at the most recent boot.
    boot_cost: Mutex<Duration>,
    /// Times this shard has been restarted after a kill.
    restarts: AtomicU64,
    /// The queue worker's join handle. Taken by restart (to wait out the
    /// in-flight link) and by shutdown.
    worker: Mutex<Option<thread::JoinHandle<()>>>,
    /// Claimed (CAS) by the one caller allowed to run a restart at a time.
    restart_claim: AtomicBool,
    queue_capacity: usize,
}

impl<S: ShardServer> Shard<S> {
    pub(crate) fn health(&self) -> ShardHealth {
        match self.health.load(Ordering::SeqCst) {
            HEALTH_HEALTHY => ShardHealth::Healthy,
            HEALTH_RESTARTING => ShardHealth::Restarting,
            _ => ShardHealth::Failed,
        }
    }

    /// Queued + in-flight links.
    pub(crate) fn depth(&self) -> usize {
        self.depth.load(Ordering::SeqCst)
    }

    /// Try to enqueue a job.
    // Err hands the whole job back for re-routing — it is the normal
    // refusal path, not a rare error, so its size is the job's size.
    #[allow(clippy::result_large_err)]
    pub(crate) fn try_enqueue(&self, job: ShardJob<S::Report>) -> Result<(), ShardJob<S::Report>> {
        if self.health() != ShardHealth::Healthy {
            return Err(job);
        }
        let mut queue = self.queue.lock();
        // Re-check under the queue lock: a kill drains the queue under this
        // lock, so a job enqueued after the health flip would be stranded.
        if self.health() != ShardHealth::Healthy || queue.len() >= self.queue_capacity {
            return Err(job);
        }
        queue.push_back(job);
        let depth = self.depth.fetch_add(1, Ordering::SeqCst) + 1;
        self.peak_depth.fetch_max(depth as u64, Ordering::Relaxed);
        drop(queue);
        self.signal.notify_one();
        Ok(())
    }

    /// Mark the shard failed and hand back every queued job for
    /// re-routing.
    fn fail_and_drain(&self) -> Vec<ShardJob<S::Report>> {
        let mut queue = self.queue.lock();
        self.health.store(HEALTH_FAILED, Ordering::SeqCst);
        let drained: Vec<_> = queue.drain(..).collect();
        drop(queue);
        self.depth.fetch_sub(drained.len(), Ordering::SeqCst);
        self.signal.notify_all();
        drained
    }
}

/// An event count waiters block on instead of sleeping. The shard set has
/// two: `changes`, bumped when a shard's health or the set's life changes
/// (kill, restart landing or failing, storm abandonment, shutdown) and
/// what the [`crate::Supervisor`] watchdog and
/// [`crate::ShardedFrontEnd::await_healthy`] block on; and `capacity`,
/// bumped by those same events and by every worker dequeue and completion,
/// what a refused submitter blocks on. So the watchdog sleeps through the
/// traffic it does not act on. Waiters read the generation *before*
/// looking at the state they wait on, so an event between the look and
/// the block is never lost; a notify with nobody waiting makes no wakeup.
#[derive(Default)]
pub(crate) struct ChangeSignal {
    state: Mutex<Generation>,
    changed: Condvar,
}

#[derive(Default)]
struct Generation {
    count: u64,
    /// Threads blocked in [`ChangeSignal::wait_past`].
    waiting: usize,
}

impl ChangeSignal {
    pub(crate) fn notify(&self) {
        let waiting = {
            let mut state = self.state.lock();
            state.count += 1;
            state.waiting > 0
        };
        // A waiter counted itself under the lock and waits atomically with
        // releasing it, so it is already waiting when this fires.
        if waiting {
            self.changed.notify_all();
        }
    }

    /// The current generation; pass it to [`Self::wait_past`].
    pub(crate) fn seen(&self) -> u64 {
        self.state.lock().count
    }

    /// Block until the generation has moved past `seen`, or until
    /// `deadline` when there is one. `false` means the deadline passed
    /// with no event.
    pub(crate) fn wait_past(&self, seen: u64, deadline: Option<Instant>) -> bool {
        let mut state = self.state.lock();
        while state.count == seen {
            let left = deadline.map(|at| at.saturating_duration_since(Instant::now()));
            if left.is_some_and(|left| left.is_zero()) {
                return false;
            }
            state.waiting += 1;
            match left {
                None => self.changed.wait(&mut state),
                Some(left) => {
                    self.changed.wait_for(&mut state, left);
                }
            }
            state.waiting -= 1;
        }
        true
    }

    /// Block until `done()` holds — re-checked after every event — or
    /// `deadline` passes. Returns whether it held.
    pub(crate) fn wait_until(&self, deadline: Option<Instant>, done: impl Fn() -> bool) -> bool {
        loop {
            let seen = self.seen();
            if done() {
                return true;
            }
            if !self.wait_past(seen, deadline) {
                return done();
            }
        }
    }
}

/// Live instruments shared by every shard worker, installed once by
/// [`ShardSetInner::instrument`]. The serve histogram is recorded on the
/// worker thread (connection-scale work, so the `Instant::now` pair is
/// noise); the handshake counters are bumped from the report
/// classification so TLS mix is visible without a sink installed.
pub(crate) struct ShardProbes {
    pub(crate) telemetry: Telemetry,
    serve: Histogram,
    handshake_full: Counter,
    handshake_abbreviated: Counter,
}

pub(crate) struct ShardSetInner<S: ShardServer> {
    pub(crate) shards: Vec<Shard<S>>,
    /// Every *offer* (a batch driver re-offering a refused link counts
    /// again, matching the `rejected` its refusal recorded — so
    /// `submitted == completed + rejected` always balances).
    pub(crate) submitted: AtomicU64,
    /// Links served to completion.
    completed: AtomicU64,
    /// Offers refused by every shard (at submit time, after a failed
    /// re-route, or stranded by shutdown).
    pub(crate) rejected: AtomicU64,
    /// Links placed somewhere other than the acceptor policy's first
    /// choice: skips of refusing shards and kill-time re-routes.
    pub(crate) stolen: AtomicU64,
    pub(crate) shutdown: AtomicBool,
    /// Health and lifecycle events; see [`ChangeSignal`]. `Arc`-held so
    /// the (non-generic) [`crate::Supervisor`] handle can wake its
    /// watchdog on drop.
    pub(crate) changes: Arc<ChangeSignal>,
    /// Those events plus every dequeue and completion; see
    /// [`ChangeSignal`].
    pub(crate) capacity: ChangeSignal,
    /// The per-shard server factory, kept so a restart can re-run it.
    factory: Arc<dyn Fn(usize) -> Result<S, WedgeError> + Send + Sync>,
    /// Set once by [`Self::instrument`]; workers check it with one
    /// lock-free load per link and skip all timing when absent.
    pub(crate) probes: std::sync::OnceLock<ShardProbes>,
}

impl<S: ShardServer> ShardSetInner<S> {
    /// A shard's health or the set's life changed: wakes the watchdog,
    /// health waiters and refused submitters alike.
    pub(crate) fn health_changed(&self) {
        self.changes.notify();
        self.capacity.notify();
    }

    /// Offer `job` to the shards in `order`; the first shard that admits
    /// it wins. Returns the winning position within `order`, or the job
    /// back when every shard refuses. A shut-down set refuses outright —
    /// its workers are gone, so an enqueued job would never be served.
    // Err hands the whole job back (see `try_enqueue`).
    #[allow(clippy::result_large_err)]
    pub(crate) fn place(
        &self,
        mut job: ShardJob<S::Report>,
        order: &[usize],
    ) -> Result<usize, ShardJob<S::Report>> {
        if self.shutdown.load(Ordering::SeqCst) {
            return Err(job);
        }
        for (position, &idx) in order.iter().enumerate() {
            match self.shards[idx].try_enqueue(job) {
                Ok(()) => return Ok(position),
                Err(back) => job = back,
            }
        }
        Err(job)
    }

    /// `true` while the set can still make progress: not shut down, and
    /// at least one shard healthy. When this turns `false` a refusal is
    /// permanent for an unsupervised set — retrying cannot help (a
    /// [`crate::Supervisor`] can still bring shards back).
    pub(crate) fn alive(&self) -> bool {
        !self.shutdown.load(Ordering::SeqCst)
            && self
                .shards
                .iter()
                .any(|s| s.health() == ShardHealth::Healthy)
    }

    /// Register this set's metrics on `telemetry` (idempotent — only the
    /// first call wires anything). Installs the live serve histogram and
    /// handshake counters, lets every current server instrument itself,
    /// and registers the pull collector that names the scheduler counters
    /// and shard gauges. The collector holds a `Weak`, so a dropped set
    /// simply vanishes from later snapshots.
    pub(crate) fn instrument(self: &Arc<Self>, telemetry: &Telemetry) {
        let probes = ShardProbes {
            telemetry: telemetry.clone(),
            serve: telemetry.histogram("shard.serve"),
            handshake_full: telemetry.counter("tls.handshake.full"),
            handshake_abbreviated: telemetry.counter("tls.handshake.abbreviated"),
        };
        if self.probes.set(probes).is_err() {
            return;
        }
        for shard in &self.shards {
            shard.server.read().instrument(telemetry);
        }
        let weak = Arc::downgrade(self);
        telemetry.register_collector(move |sample| {
            let Some(inner) = weak.upgrade() else { return };
            let load = |cell: &AtomicU64| cell.load(Ordering::Relaxed);
            sample.counter("sched.submitted", load(&inner.submitted));
            sample.counter("sched.completed", load(&inner.completed));
            sample.counter("sched.rejected", load(&inner.rejected));
            sample.counter("sched.stolen", load(&inner.stolen));
            for shard in &inner.shards {
                sample.gauge("shard.queue_depth", shard.depth() as u64);
                sample.gauge_max("shard.queue_depth.peak", load(&shard.peak_depth));
                let healthy = shard.health() == ShardHealth::Healthy;
                sample.gauge("shard.healthy", u64::from(healthy));
                sample.counter("shard.restarts", shard.restarts.load(Ordering::SeqCst));
                let boot_ns = shard.boot_cost.lock().as_nanos();
                sample.gauge_max("shard.boot_ns", boot_ns.min(u128::from(u64::MAX)) as u64);
            }
        });
    }

    fn spawn_worker(inner: &Arc<ShardSetInner<S>>, me: usize) {
        let worker = {
            let inner = inner.clone();
            thread::Builder::new()
                .name(format!("wedge-shard-{me}"))
                .spawn(move || shard_worker(&inner, me))
                .expect("spawn shard worker")
        };
        *inner.shards[me].worker.lock() = Some(worker);
    }

    /// Respawn a killed shard in place: wait out its old worker (the link
    /// it was serving at kill time is allowed to finish), re-run the
    /// factory for a fresh kernel, swap the new server in, start a new
    /// queue worker and rejoin the ring **with the old index** — placement
    /// policies (and affinity keys that hash here) see the shard healthy
    /// again.
    ///
    /// The outcome distinguishes a restart that was never *attempted*
    /// (lost the claim to a concurrent restart, shard not failed, set
    /// shutting down) from one whose respawn genuinely failed — the
    /// supervisor only counts the latter against the shard.
    pub(crate) fn try_restart_shard(self: &Arc<Self>, idx: usize) -> RestartOutcome {
        if idx >= self.shards.len() {
            return RestartOutcome::Skipped(WedgeError::InvalidOperation(format!(
                "no shard {idx} to restart"
            )));
        }
        if self.shutdown.load(Ordering::SeqCst) {
            return RestartOutcome::Skipped(WedgeError::InvalidOperation(
                "shard set is shut down".to_string(),
            ));
        }
        let shard = &self.shards[idx];
        if shard.health() != ShardHealth::Failed {
            return RestartOutcome::Skipped(WedgeError::InvalidOperation(format!(
                "shard {idx} is not failed (restart only revives killed shards)"
            )));
        }
        // Exactly one caller revives the shard at a time.
        if shard
            .restart_claim
            .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
            .is_err()
        {
            return RestartOutcome::Skipped(WedgeError::InvalidOperation(format!(
                "shard {idx} restart already in progress"
            )));
        }
        // Re-check under the claim: a racing restart may have completed
        // between the health check above and winning the CAS — without
        // this, the loser would join the *healthy* shard's fresh worker
        // (which only exits on Failed) and block forever.
        if shard.health() != ShardHealth::Failed {
            shard.restart_claim.store(false, Ordering::SeqCst);
            return RestartOutcome::Skipped(WedgeError::InvalidOperation(format!(
                "shard {idx} is not failed (restart only revives killed shards)"
            )));
        }
        let outcome = self.restart_claimed(idx);
        shard.restart_claim.store(false, Ordering::SeqCst);
        // Landed or failed, the shard's health moved.
        self.health_changed();
        outcome
    }

    /// The body of [`Self::try_restart_shard`], run while holding the
    /// shard's restart claim.
    fn restart_claimed(self: &Arc<Self>, idx: usize) -> RestartOutcome {
        let shard = &self.shards[idx];
        // The old worker exits once it observes Failed — after finishing
        // the link it was serving at kill time. (A previous failed respawn
        // leaves no handle: the dead worker was already joined then.)
        let old_worker = shard.worker.lock().take();
        if let Some(old_worker) = old_worker {
            let _ = old_worker.join();
        }
        shard.health.store(HEALTH_RESTARTING, Ordering::SeqCst);

        // The same boot a cold shard pays.
        let (server, boot_cost) = boot(&*self.factory, idx);
        let server = match server {
            Ok(server) => server,
            Err(err) => {
                // Failed respawn (an error or a panic): the shard stays
                // dead; a later restart attempt can claim it again.
                shard.health.store(HEALTH_FAILED, Ordering::SeqCst);
                return RestartOutcome::FactoryFailed(err);
            }
        };
        *shard.server.write() = server;
        *shard.boot_cost.lock() = boot_cost;
        // The replacement server has a fresh kernel: let it re-register
        // its collectors so its counters keep flowing into snapshots.
        if let Some(probes) = self.probes.get() {
            shard.server.read().instrument(&probes.telemetry);
        }
        if self.shutdown.load(Ordering::SeqCst) {
            shard.health.store(HEALTH_FAILED, Ordering::SeqCst);
            return RestartOutcome::Skipped(WedgeError::InvalidOperation(
                "shard set shut down during restart".to_string(),
            ));
        }
        // Counted only once the revival is actually going to land, so the
        // per-shard counter agrees with the reported outcome.
        shard.restarts.fetch_add(1, Ordering::SeqCst);
        Self::spawn_worker(self, idx);
        // A kill that raced the restart flipped Restarting → Failed; honour
        // it — the fresh worker sees Failed and exits.
        let _ = shard.health.compare_exchange(
            HEALTH_RESTARTING,
            HEALTH_HEALTHY,
            Ordering::SeqCst,
            Ordering::SeqCst,
        );
        if let Some(probes) = self.probes.get() {
            probes
                .telemetry
                .emit_with(|| TelemetryEvent::ShardRestarted { shard: idx });
        }
        RestartOutcome::Restarted(boot_cost)
    }
}

/// How one restart attempt ended (crate-internal: the public
/// [`ShardSet::restart_shard`] flattens this to a `Result`).
pub(crate) enum RestartOutcome {
    /// The shard was revived; carries the respawn's boot cost.
    Restarted(Duration),
    /// The retained factory returned an error or panicked instead of
    /// building a replacement server; the shard stays dead. Counts as a
    /// failed respawn.
    FactoryFailed(WedgeError),
    /// Nothing was attempted: the claim was lost to a concurrent restart,
    /// the shard was not failed, or the set is shutting down. Not a
    /// respawn failure — the supervisor must not count it as one.
    Skipped(WedgeError),
}

/// Run `factory` for shard `idx` and time the call. A panic fails the
/// boot like an error does, so it cannot escape into the caller.
///
/// The call runs on a scoped thread of its own, not the caller's: glibc
/// gives each thread a malloc arena, and the build's freed temporaries
/// would otherwise stay in the caller's arena, which no shard thread
/// allocates from again. Built on the caller's thread, peak RSS on the
/// `wedge-e2e` workloads rose 0.45–0.6 MiB (6–11 %); with one arena for
/// the whole process (`MALLOC_ARENA_MAX=1`) the difference disappears.
fn boot<S: Send>(
    factory: &(dyn Fn(usize) -> Result<S, WedgeError> + Send + Sync),
    idx: usize,
) -> (Result<S, WedgeError>, Duration) {
    thread::scope(|scope| {
        scope
            .spawn(|| {
                let started = Instant::now();
                (factory(idx), started.elapsed())
            })
            .join()
    })
    .unwrap_or_else(|payload| {
        let err = WedgeError::SthreadPanicked(wedge_core::panic_message(payload));
        (Err(err), Duration::ZERO)
    })
}

fn shard_worker<S: ShardServer>(inner: &ShardSetInner<S>, me: usize) {
    let shard = &inner.shards[me];
    loop {
        let job = {
            let mut queue = shard.queue.lock();
            loop {
                if let Some(job) = queue.pop_front() {
                    break Some(job);
                }
                if shard.health() == ShardHealth::Failed || inner.shutdown.load(Ordering::SeqCst) {
                    break None;
                }
                // Enqueue, kill and shutdown all notify under (or after
                // taking) the queue lock, so no timeout is needed.
                shard.signal.wait(&mut queue);
            }
        };
        let Some(job) = job else {
            // Killed (queue already drained by the kill) or shutting down
            // with an empty queue: this worker is done.
            return;
        };
        // A queue slot just freed.
        inner.capacity.notify();
        let probes = inner.probes.get();
        let started = probes.map(|_| Instant::now());
        // Close the queue span (submit → dequeue), open the serve span,
        // and make it this thread's ambient trace: everything the server
        // does underneath — TLS handshake, kernel policy mutations, remote
        // cachenet ops — hangs its spans under `serve_ctx`, across
        // sthread spawns (wedge-core propagates the ambient trace).
        let serving = job.trace.as_ref().map(|jt| {
            let dequeued_ns = jt.tracer.now_ns();
            let queue_ctx = jt.tracer.child_of(jt.ctx);
            jt.tracer.record(
                queue_ctx,
                wedge_telemetry::SpanKind::Queue,
                jt.submitted_ns,
                dequeued_ns,
                true,
                me as u32,
            );
            let serve_ctx = jt.tracer.child_of(jt.ctx);
            let scope = wedge_telemetry::trace::push(wedge_telemetry::ActiveTrace {
                ctx: serve_ctx,
                tracer: jt.tracer.clone(),
            });
            (serve_ctx, dequeued_ns, scope)
        });
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            shard.server.read().serve_link(me, job.link)
        }));
        shard.depth.fetch_sub(1, Ordering::SeqCst);
        inner.completed.fetch_add(1, Ordering::Relaxed);
        // An in-flight link just finished.
        inner.capacity.notify();
        let result = outcome.unwrap_or_else(|payload| {
            Err(WedgeError::SthreadPanicked(wedge_core::panic_message(
                payload,
            )))
        });
        if let (Some(probes), Some(started)) = (probes, started) {
            let nanos = started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
            probes.serve.record(nanos);
            if let Some(kind) = result.as_ref().ok().and_then(S::handshake_kind) {
                let resumed = kind == HandshakeKind::Abbreviated;
                if resumed {
                    probes.handshake_abbreviated.incr();
                } else {
                    probes.handshake_full.incr();
                }
                probes
                    .telemetry
                    .emit_with(|| TelemetryEvent::Handshake { shard: me, resumed });
            }
            probes.telemetry.emit_with(|| TelemetryEvent::Served {
                shard: me,
                ok: result.is_ok(),
                nanos,
            });
        }
        // Record the serve span, drop the ambient scope, then end the
        // trace — the tail sampler decides whether this request's spans
        // are promoted to retention or left to be overwritten.
        if let (Some(jt), Some((serve_ctx, dequeued_ns, scope))) = (job.trace.as_ref(), serving) {
            let end_ns = jt.tracer.now_ns();
            jt.tracer.record(
                serve_ctx,
                wedge_telemetry::SpanKind::Serve,
                dequeued_ns,
                end_ns,
                result.is_ok(),
                me as u32,
            );
            drop(scope);
            jt.tracer
                .end_trace(jt.ctx, jt.root_start_ns, end_ns, result.is_ok(), me as u32);
        }
        let _ = job.tx.send((job.arrival, result));
    }
}

/// Per-shard snapshot: health, boot cost and the shard kernel's counters.
/// Placement counts are front-end-wide and live only under their
/// telemetry names (`sched.*`).
#[derive(Debug, Clone)]
pub struct ShardStats {
    /// The shard's id.
    pub shard: usize,
    /// Whether the shard is accepting links.
    pub healthy: bool,
    /// How long the factory took to build the server at the most recent
    /// boot.
    pub boot_cost: Duration,
    /// Times the shard has been restarted after a kill.
    pub restarts: u64,
    /// Links queued + currently serving.
    pub depth: u64,
    /// The shard kernel's counters.
    pub kernel: KernelStats,
}

/// N shard workers, each owning an independent kernel and serving
/// its own bounded link queue. Build an [`crate::Acceptor`] over the set
/// to distribute links.
pub struct ShardSet<S: ShardServer> {
    inner: Arc<ShardSetInner<S>>,
}

impl<S: ShardServer> std::fmt::Debug for ShardSet<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardSet")
            .field("shards", &self.inner.shards.len())
            .finish()
    }
}

impl<S: ShardServer> ShardSet<S> {
    /// Boot `config.shards` shards. `factory` builds shard `id`'s server,
    /// once per shard before the first connection, so the build is paid
    /// at boot and amortised across every connection the shard will ever
    /// serve (the same trade the paper's recycled callgates make for
    /// compartment creation). The factory is retained:
    /// [`ShardSet::restart_shard`] re-runs it to revive a killed shard.
    pub fn new<F>(config: ShardConfig, factory: F) -> Result<ShardSet<S>, WedgeError>
    where
        F: Fn(usize) -> Result<S, WedgeError> + Send + Sync + 'static,
    {
        let shard_count = config.shards.max(1);
        let factory: Arc<dyn Fn(usize) -> Result<S, WedgeError> + Send + Sync> = Arc::new(factory);
        let mut shards = Vec::with_capacity(shard_count);
        for id in 0..shard_count {
            let (server, boot_cost) = boot(&*factory, id);
            let server = server?;
            shards.push(Shard {
                id,
                server: RwLock::new(server),
                queue: Mutex::new(VecDeque::new()),
                signal: Condvar::new(),
                health: AtomicU8::new(HEALTH_HEALTHY),
                depth: AtomicUsize::new(0),
                peak_depth: AtomicU64::new(0),
                boot_cost: Mutex::new(boot_cost),
                restarts: AtomicU64::new(0),
                worker: Mutex::new(None),
                restart_claim: AtomicBool::new(false),
                queue_capacity: config.queue_capacity.max(1),
            });
        }
        let inner = Arc::new(ShardSetInner {
            shards,
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            stolen: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            changes: Arc::default(),
            capacity: ChangeSignal::default(),
            factory,
            probes: std::sync::OnceLock::new(),
        });
        for me in 0..shard_count {
            ShardSetInner::spawn_worker(&inner, me);
        }
        Ok(ShardSet { inner })
    }

    pub(crate) fn inner(&self) -> &Arc<ShardSetInner<S>> {
        &self.inner
    }

    /// Register this set's scheduler counters, shard gauges, the live
    /// `shard.serve` latency histogram and the TLS handshake-mix counters
    /// on `telemetry`, and let every shard's server instrument itself.
    /// Idempotent: only the first call wires anything.
    pub fn instrument(&self, telemetry: &Telemetry) {
        self.inner.instrument(telemetry);
    }

    /// Number of shards (healthy or not).
    pub fn shards(&self) -> usize {
        self.inner.shards.len()
    }

    /// Shard `idx`'s health.
    pub fn health(&self, idx: usize) -> ShardHealth {
        self.inner.shards[idx].health()
    }

    /// Per-shard snapshots, in shard order.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.inner
            .shards
            .iter()
            .map(|shard| ShardStats {
                shard: shard.id,
                healthy: shard.health() == ShardHealth::Healthy,
                boot_cost: *shard.boot_cost.lock(),
                restarts: shard.restarts.load(Ordering::SeqCst),
                depth: shard.depth() as u64,
                kernel: shard.server.read().kernel_stats(),
            })
            .collect()
    }

    /// Kernel counters summed across every shard.
    pub fn kernel_stats(&self) -> KernelStats {
        let mut total = KernelStats::default();
        for shard in &self.inner.shards {
            total += &shard.server.read().kernel_stats();
        }
        total
    }

    /// Kill shard `idx`: mark it failed, drain its queued links, and
    /// re-route them to healthy siblings (ring order starting after the
    /// dead shard). A link no sibling can admit resolves through its
    /// handle with [`WedgeError::ResourceExhausted`] — nothing is silently
    /// dropped. The link the shard is serving *right now* is allowed to
    /// finish.
    pub fn kill_shard(&self, idx: usize) -> KillReport {
        let n = self.inner.shards.len();
        let drained = self.inner.shards[idx].fail_and_drain();
        self.inner.health_changed();
        let order: Vec<usize> = (1..n).map(|offset| (idx + offset) % n).collect();
        let mut report = KillReport::default();
        for job in drained {
            match self.inner.place(job, &order) {
                Ok(_) => {
                    self.inner.stolen.fetch_add(1, Ordering::Relaxed);
                    report.rerouted += 1;
                }
                Err(job) => {
                    self.inner.rejected.fetch_add(1, Ordering::Relaxed);
                    report.failed += 1;
                    let _ = job.tx.send((job.arrival, Err(all_shards_exhausted(n))));
                }
            }
        }
        if let Some(probes) = self.inner.probes.get() {
            probes.telemetry.emit_with(|| TelemetryEvent::ShardKilled {
                shard: idx,
                rerouted: report.rerouted,
                failed: report.failed,
            });
        }
        report
    }

    /// Revive killed shard `idx` in place (fresh kernel via the retained
    /// factory, old ring index). Returns the respawn's boot cost. Fails if
    /// the shard is not killed, a restart is already in progress, the
    /// factory errors, or the set is shutting down. The
    /// [`crate::Supervisor`] calls this automatically.
    pub fn restart_shard(&self, idx: usize) -> Result<Duration, WedgeError> {
        match self.inner.try_restart_shard(idx) {
            RestartOutcome::Restarted(boot_cost) => Ok(boot_cost),
            RestartOutcome::FactoryFailed(err) | RestartOutcome::Skipped(err) => Err(err),
        }
    }

    fn shutdown_inner(&mut self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        self.inner.health_changed();
        for shard in &self.inner.shards {
            // Through the queue lock: a worker between its shutdown check
            // and its wait holds it, so the notify cannot slip in between.
            drop(shard.queue.lock());
            shard.signal.notify_all();
        }
        for shard in &self.inner.shards {
            let handle = shard.worker.lock().take();
            if let Some(handle) = handle {
                let _ = handle.join();
            }
        }
        // A submission can race the shutdown flag and land a job after its
        // worker drained and exited. Flip each shard to Failed *under its
        // queue lock* and drain stragglers in the same critical section:
        // `try_enqueue` re-checks health under that lock, so a racing push
        // either lands before the flip (and is drained here) or observes
        // Failed and refuses — no job can be stranded, and every straggler
        // fails through its handle instead of hanging its caller's join().
        for shard in &self.inner.shards {
            let drained: Vec<_> = {
                let mut queue = shard.queue.lock();
                shard.health.store(HEALTH_FAILED, Ordering::SeqCst);
                queue.drain(..).collect()
            };
            for job in drained {
                shard.depth.fetch_sub(1, Ordering::SeqCst);
                self.inner.rejected.fetch_add(1, Ordering::Relaxed);
                let err = WedgeError::InvalidOperation(
                    "shard set shut down before the link was served".to_string(),
                );
                let _ = job.tx.send((job.arrival, Err(err)));
            }
        }
    }
}

impl<S: ShardServer> Drop for ShardSet<S> {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// The error surfaced when every shard refuses a link.
pub(crate) fn all_shards_exhausted(shards: usize) -> WedgeError {
    WedgeError::ResourceExhausted {
        resource: "shard front-end (all shards rejected)".to_string(),
        limit: shards as u64,
        attempted: shards as u64 + 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::acceptor::{AcceptPolicy, Acceptor};
    use wedge_net::{duplex_pair, RecvTimeout};

    /// A shard server that serves a link by waiting for one client
    /// message (or the client hanging up) and reporting which shard ran
    /// it — so tests control exactly when a shard is busy.
    struct HoldServer;

    impl ShardServer for HoldServer {
        type Report = usize;

        fn serve_link(&self, shard: usize, link: Duplex) -> Result<usize, WedgeError> {
            let _ = link.recv(RecvTimeout::Forever);
            Ok(shard)
        }

        fn kernel_stats(&self) -> KernelStats {
            KernelStats::default()
        }
    }

    fn hold_set(config: ShardConfig) -> ShardSet<HoldServer> {
        ShardSet::new(config, |_id| Ok(HoldServer)).expect("shard set")
    }

    /// A key whose affinity hash lands on `shard` of `n`.
    fn affinity_key(shard: usize, n: usize) -> u64 {
        (0u64..)
            .find(|k| crate::acceptor::shard_for_key(*k, n) == shard)
            .expect("key")
    }

    /// What a test factory spends building its server, so boot cost has a
    /// floor to measure against.
    const BOOT_WORK: Duration = Duration::from_millis(2);

    /// [`hold_set`] whose factory spends [`BOOT_WORK`] per shard.
    fn slow_hold_set(config: ShardConfig) -> ShardSet<HoldServer> {
        ShardSet::new(config, |_id| {
            thread::sleep(BOOT_WORK);
            Ok(HoldServer)
        })
        .expect("shard set")
    }

    /// Block until shard `idx`'s worker has taken every queued link.
    fn wait_until_dequeued(set: &ShardSet<HoldServer>, idx: usize) {
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while !set.inner().shards[idx].queue.lock().is_empty() {
            assert!(std::time::Instant::now() < deadline, "worker never started");
            thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn boot_pays_fork_cost_once_per_shard() {
        let set = slow_hold_set(ShardConfig {
            shards: 2,
            ..ShardConfig::default()
        });
        for stats in set.shard_stats() {
            assert!(stats.boot_cost >= BOOT_WORK, "boot cost measured");
            assert!(stats.healthy);
            assert_eq!(stats.restarts, 0);
        }
        let telemetry = Telemetry::new();
        set.instrument(&telemetry);
        let boot_ns = telemetry.snapshot().counter("shard.boot_ns");
        let slowest = set.shard_stats().iter().map(|s| s.boot_cost).max();
        assert_eq!(Some(Duration::from_nanos(boot_ns)), slowest);
    }

    #[test]
    fn a_panicking_respawn_leaves_the_shard_failed_and_restartable() {
        // Shards 0 and 1 boot; the first respawn (call 2) panics.
        let calls = Arc::new(AtomicUsize::new(0));
        let factory_calls = calls.clone();
        let set = ShardSet::new(
            ShardConfig {
                shards: 2,
                ..ShardConfig::default()
            },
            move |_id| {
                if factory_calls.fetch_add(1, Ordering::SeqCst) == 2 {
                    panic!("respawn blew up");
                }
                Ok(HoldServer)
            },
        )
        .expect("shard set");
        set.kill_shard(0);
        let err = set.restart_shard(0).unwrap_err();
        assert!(
            matches!(&err, WedgeError::SthreadPanicked(msg) if msg.contains("respawn blew up")),
            "{err:?}"
        );
        assert_eq!(set.health(0), ShardHealth::Failed);
        assert_eq!(set.shard_stats()[0].restarts, 0);
        // The claim was released: the next restart runs the factory again.
        set.restart_shard(0).expect("second restart");
        assert_eq!(set.health(0), ShardHealth::Healthy);
        assert_eq!(calls.load(Ordering::SeqCst), 4);
        let acceptor = Acceptor::new(&set, AcceptPolicy::SessionAffinity);
        let (client, server) = duplex_pair("home", "s");
        client.send(b"go").unwrap();
        let handle = acceptor
            .submit_with_key(server, affinity_key(0, 2))
            .unwrap();
        assert_eq!(handle.join().unwrap(), 0);
    }

    #[test]
    fn round_robin_rotates_across_shards() {
        let set = hold_set(ShardConfig {
            shards: 3,
            ..ShardConfig::default()
        });
        let acceptor = Acceptor::new(&set, AcceptPolicy::RoundRobin);
        let telemetry = Telemetry::new();
        set.instrument(&telemetry);
        let mut clients = Vec::new();
        let mut handles = Vec::new();
        for i in 0..6 {
            let (client, server) = duplex_pair("c", "s");
            client.send(format!("go-{i}").as_bytes()).unwrap();
            clients.push(client);
            handles.push(acceptor.submit(server).unwrap());
        }
        let served: Vec<usize> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(served, vec![0, 1, 2, 0, 1, 2]);
        let snapshot = telemetry.snapshot();
        assert_eq!(snapshot.counter("sched.submitted"), 6);
        assert_eq!(snapshot.counter("sched.completed"), 6);
        assert_eq!(snapshot.counter("sched.rejected"), 0);
        assert_eq!(snapshot.counter("sched.stolen"), 0);
    }

    /// Under either policy a killed shard is skipped before placement,
    /// not refused by it: a dead shard is never a first choice, so nothing
    /// counts as stolen.
    #[test]
    fn a_dead_shard_is_never_a_first_choice() {
        for policy in [AcceptPolicy::RoundRobin, AcceptPolicy::SessionAffinity] {
            let set = hold_set(ShardConfig {
                shards: 3,
                ..ShardConfig::default()
            });
            let telemetry = Telemetry::new();
            set.instrument(&telemetry);
            let acceptor = Acceptor::new(&set, policy);
            set.kill_shard(0);
            for n in 0..4 {
                let (client, server) = duplex_pair("c", "s");
                client.send(b"go").unwrap();
                let handle = acceptor
                    .submit_with_key(server, affinity_key(n % 3, 3))
                    .unwrap();
                assert_ne!(handle.placed_on(), 0, "{policy:?}: dead shard preferred");
                assert!(handle.join().is_ok());
            }
            assert_eq!(
                telemetry.snapshot().counter("sched.stolen"),
                0,
                "{policy:?}"
            );
        }
    }

    #[test]
    fn session_affinity_is_sticky_per_key() {
        let set = hold_set(ShardConfig {
            shards: 4,
            ..ShardConfig::default()
        });
        let acceptor = Acceptor::new(&set, AcceptPolicy::SessionAffinity);
        let key = 0xFEED_F00Du64;
        let mut served = Vec::new();
        for _ in 0..5 {
            let (client, server) = duplex_pair("repeat-client", "s");
            client.send(b"go").unwrap();
            served.push(
                acceptor
                    .submit_with_key(server, key)
                    .unwrap()
                    .join()
                    .unwrap(),
            );
        }
        assert!(
            served.windows(2).all(|w| w[0] == w[1]),
            "one key must always land on one shard: {served:?}"
        );
    }

    #[test]
    fn saturated_shard_is_skipped_and_only_total_exhaustion_rejects() {
        let set = hold_set(ShardConfig {
            shards: 2,
            queue_capacity: 1,
        });
        let acceptor = Acceptor::new(&set, AcceptPolicy::SessionAffinity);
        let telemetry = Telemetry::new();
        set.instrument(&telemetry);
        let to_zero = affinity_key(0, 2);
        // Saturate shard 0: one link in service, one filling its queue.
        let (c0, s0) = duplex_pair("hold0", "s");
        let h0 = acceptor.submit_with_key(s0, to_zero).unwrap();
        assert_eq!(h0.placed_on(), 0);
        wait_until_dequeued(&set, 0);
        let (q0, s0q) = duplex_pair("queue0", "s");
        let h0q = acceptor.submit_with_key(s0q, to_zero).unwrap();
        assert_eq!(h0q.placed_on(), 0);
        // Preferring shard 0 now skips to shard 1 instead of failing.
        let (c1, s1) = duplex_pair("hold1", "s");
        let h1 = acceptor.submit_with_key(s1, to_zero).unwrap();
        assert_eq!(h1.placed_on(), 1, "saturated shard must be skipped");
        assert_eq!(telemetry.snapshot().counter("sched.stolen"), 1);
        // Saturate shard 1 the same way, with a key that prefers it.
        wait_until_dequeued(&set, 1);
        let (q1, s1q) = duplex_pair("queue1", "s");
        let h1q = acceptor.submit_with_key(s1q, affinity_key(1, 2)).unwrap();
        assert_eq!(h1q.placed_on(), 1);
        // Both shards saturated: now — and only now — the front door fails.
        let (_c2, s2) = duplex_pair("extra", "s");
        let err = acceptor.submit_with_key(s2, to_zero).unwrap_err();
        assert!(matches!(err, WedgeError::ResourceExhausted { .. }));
        for client in [&c0, &q0, &c1, &q1] {
            client.send(b"done").unwrap();
        }
        assert_eq!(h0.join().unwrap(), 0);
        assert_eq!(h0q.join().unwrap(), 0);
        assert_eq!(h1.join().unwrap(), 1);
        assert_eq!(h1q.join().unwrap(), 1);
        let snapshot = telemetry.snapshot();
        assert_eq!(snapshot.counter("sched.submitted"), 5);
        assert_eq!(snapshot.counter("sched.stolen"), 1);
        assert_eq!(
            snapshot.counter("sched.completed") + snapshot.counter("sched.rejected"),
            snapshot.counter("sched.submitted"),
            "every link resolves"
        );
    }

    #[test]
    fn killing_a_shard_reroutes_its_queued_links() {
        let set = hold_set(ShardConfig {
            shards: 2,
            queue_capacity: 8,
        });
        let acceptor = Acceptor::new(&set, AcceptPolicy::SessionAffinity);
        let telemetry = Telemetry::new();
        set.instrument(&telemetry);
        let to_zero = affinity_key(0, 2);
        // One link in service on shard 0 (client silent)...
        let (held_client, held_server) = duplex_pair("held", "s");
        let held = acceptor.submit_with_key(held_server, to_zero).unwrap();
        // ...wait until the worker holds it, then queue three more behind it.
        wait_until_dequeued(&set, 0);
        let mut clients = Vec::new();
        let mut queued = Vec::new();
        for _ in 0..3 {
            let (client, server) = duplex_pair("queued", "s");
            client.send(b"go").unwrap();
            clients.push(client);
            queued.push(acceptor.submit_with_key(server, to_zero).unwrap());
        }
        let report = set.kill_shard(0);
        assert_eq!(
            report.rerouted, 3,
            "all queued links move to the live shard"
        );
        assert_eq!(report.failed, 0);
        assert_eq!(set.health(0), ShardHealth::Failed);
        for handle in queued {
            assert_eq!(
                handle.join().unwrap(),
                1,
                "re-routed links serve on shard 1"
            );
        }
        // The link shard 0 was serving at kill time is allowed to finish.
        held_client.send(b"done").unwrap();
        assert_eq!(held.join().unwrap(), 0);
        let snapshot = telemetry.snapshot();
        assert_eq!(snapshot.counter("sched.submitted"), 4);
        assert_eq!(snapshot.counter("sched.completed"), 4);
        assert_eq!(snapshot.counter("sched.rejected"), 0);
        assert_eq!(snapshot.counter("sched.stolen"), 3);
        // A dead shard refuses new links; with no healthy sibling left
        // unsaturated the front door still works through shard 1.
        let (client, server) = duplex_pair("after", "s");
        client.send(b"go").unwrap();
        assert_eq!(acceptor.submit(server).unwrap().join().unwrap(), 1);
    }

    #[test]
    fn restart_revives_a_killed_shard_with_its_old_index() {
        let set = slow_hold_set(ShardConfig {
            shards: 2,
            ..ShardConfig::default()
        });
        let acceptor = Acceptor::new(&set, AcceptPolicy::SessionAffinity);
        let to_zero = affinity_key(0, 2);
        set.kill_shard(0);
        assert_eq!(set.health(0), ShardHealth::Failed);
        // While dead, links for shard 0 fall over to shard 1.
        let (fallback_client, fallback_server) = duplex_pair("fall", "s");
        fallback_client.send(b"go").unwrap();
        assert_eq!(
            acceptor
                .submit_with_key(fallback_server, to_zero)
                .unwrap()
                .join()
                .unwrap(),
            1
        );
        // Restarting cannot revive a healthy shard.
        assert!(set.restart_shard(1).is_err());
        // Revive shard 0: fresh kernel, old ring index.
        let boot_cost = set.restart_shard(0).expect("restart");
        assert!(boot_cost >= BOOT_WORK, "respawn boot cost measured");
        assert_eq!(set.shard_stats()[0].boot_cost, boot_cost);
        assert_eq!(set.health(0), ShardHealth::Healthy);
        let stats = set.shard_stats();
        assert_eq!(stats[0].restarts, 1);
        assert_eq!(stats[1].restarts, 0);
        // Affinity keys that hash to shard 0 land on it again.
        let (client, server) = duplex_pair("home", "s");
        client.send(b"go").unwrap();
        assert_eq!(
            acceptor
                .submit_with_key(server, to_zero)
                .unwrap()
                .join()
                .unwrap(),
            0,
            "post-restart links land on the revived shard"
        );
        // A second restart of the (now healthy) shard is refused.
        assert!(set.restart_shard(0).is_err());
    }

    #[test]
    fn restart_waits_for_the_in_flight_link_to_finish() {
        let set = hold_set(ShardConfig {
            shards: 1,
            ..ShardConfig::default()
        });
        let acceptor = Acceptor::new(&set, AcceptPolicy::RoundRobin);
        let (held_client, held_server) = duplex_pair("held", "s");
        let held = acceptor.submit(held_server).unwrap();
        // Wait until the worker is serving the link.
        wait_until_dequeued(&set, 0);
        set.kill_shard(0);
        // The restart must block on the in-flight link; release it from a
        // sibling thread after a beat.
        let release = thread::spawn(move || {
            thread::sleep(Duration::from_millis(50));
            held_client.send(b"done").unwrap();
            held_client
        });
        set.restart_shard(0).expect("restart");
        assert_eq!(set.health(0), ShardHealth::Healthy);
        assert_eq!(held.join().unwrap(), 0, "in-flight link finished first");
        drop(release.join().unwrap());
    }

    #[test]
    fn submissions_after_shutdown_fail_fast_instead_of_hanging() {
        let set = hold_set(ShardConfig {
            shards: 2,
            ..ShardConfig::default()
        });
        let acceptor = Acceptor::new(&set, AcceptPolicy::RoundRobin);
        // The acceptor outlives the set: its workers are joined and gone.
        drop(set);
        let (_client, server) = duplex_pair("late", "s");
        let err = acceptor.submit(server).unwrap_err();
        assert!(
            matches!(err, WedgeError::InvalidOperation(_)),
            "a dead set must refuse permanently (not retryable backpressure): {err:?}"
        );
    }

    #[test]
    fn fully_killed_set_sheds_with_backpressure_and_serve_all_terminates() {
        // The batch driver lives on the front-end now; drive it through
        // one to pin the all-dead semantics of the one shared retry loop.
        // Killed shards are *revivable* (restart_shard / supervisor), so
        // an all-dead unsupervised set sheds with the stack's uniform
        // `ResourceExhausted` — deterministically, never a spin — while a
        // shut-down set (see the test above) refuses permanently.
        let front = crate::front::ShardedFrontEnd::new(
            crate::front::FrontEndConfig {
                shards: 2,
                ..crate::front::FrontEndConfig::default()
            },
            |_id| Ok(HoldServer),
        )
        .expect("front");
        front.kill_shard(0);
        front.kill_shard(1);
        // Direct submission: deterministic backpressure.
        let (_c, s) = duplex_pair("late", "s");
        let err = front.serve(s).unwrap_err();
        assert!(matches!(err, WedgeError::ResourceExhausted { .. }));
        // Batch driver: an unsupervised dead set returns one error per
        // link instead of spinning on the backoff-retry loop forever.
        let outcomes = front.serve_all((0..3).map(|_| duplex_pair("batch", "s").1).collect());
        assert_eq!(outcomes.len(), 3);
        assert!(outcomes
            .iter()
            .all(|o| matches!(o, Err(WedgeError::ResourceExhausted { .. }))));
        // Reviving one shard makes the same front door serve again.
        front.restart_shard(0).expect("manual revival");
        let (client, server) = duplex_pair("revived", "s");
        client.send(b"go").unwrap();
        assert_eq!(front.serve(server).unwrap().join().unwrap(), 0);
    }

    #[test]
    fn killing_the_only_shard_sheds_with_an_error_not_silence() {
        let set = hold_set(ShardConfig {
            shards: 1,
            queue_capacity: 8,
        });
        let acceptor = Acceptor::new(&set, AcceptPolicy::RoundRobin);
        let telemetry = Telemetry::new();
        set.instrument(&telemetry);
        let (held_client, held_server) = duplex_pair("held", "s");
        let held = acceptor.submit(held_server).unwrap();
        wait_until_dequeued(&set, 0);
        let (_queued_client, queued_server) = duplex_pair("queued", "s");
        let queued = acceptor.submit(queued_server).unwrap();
        let report = set.kill_shard(0);
        assert_eq!(
            report,
            KillReport {
                rerouted: 0,
                failed: 1
            }
        );
        // The shed link resolves with the backpressure error — never
        // silently dropped.
        let err = queued.join().unwrap_err();
        assert!(matches!(err, WedgeError::ResourceExhausted { .. }));
        held_client.send(b"done").unwrap();
        assert_eq!(held.join().unwrap(), 0);
        let snapshot = telemetry.snapshot();
        assert_eq!(snapshot.counter("sched.submitted"), 2);
        assert_eq!(snapshot.counter("sched.completed"), 1);
        assert_eq!(snapshot.counter("sched.rejected"), 1);
        assert_eq!(
            snapshot.counter("sched.submitted"),
            snapshot.counter("sched.completed") + snapshot.counter("sched.rejected"),
            "every offered link resolves exactly once"
        );
    }
}
