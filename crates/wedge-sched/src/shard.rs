//! Forked kernel shards behind a shared front-end.
//!
//! A [`ShardSet`] is a multi-process front-end: each shard boots its
//! **own** server instance over an independent simulated kernel (paying
//! [`wedge_core::procsim::ForkSim`]'s fork cost — the shipped boot control
//! block (`BOOT_BLOCK_BYTES`, 4 KiB) plus the descriptor-table copy — once
//! at boot, amortised by pre-warming every shard before the first
//! connection), and runs a dedicated worker that drains the shard's
//! bounded link queue.
//!
//! Per-shard **health and backpressure** ride the same admission path as
//! everything else in the reproduction: each shard charges one slot per
//! in-flight link on a [`ResourceAccountant`] (`Sthreads` axis), so a
//! saturated shard refuses with [`WedgeError::ResourceExhausted`] and a
//! killed shard refuses outright; the [`crate::Acceptor`] skips refusing
//! shards and surfaces `ResourceExhausted` only when *every* shard
//! rejects. Killing a shard drains its queued links and re-routes them to
//! healthy siblings — a queued connection is never silently dropped; if no
//! sibling can take it, its handle resolves to the same
//! `ResourceExhausted` a fresh submission would have seen.
//!
//! A killed shard is no longer dead forever: [`ShardSet::restart_shard`]
//! respawns it **with its old ring index** — a fresh simulated kernel via
//! [`ForkSim`] (the same log + descriptor copy the original boot paid),
//! the factory re-run inside the forked child, the server swapped in and a
//! new queue worker started — after which placement policies see it
//! healthy again and session-affinity keys that hash to it come home. The
//! [`crate::Supervisor`] automates this with bounded exponential backoff
//! and restart-storm detection.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex, RwLock};

use wedge_core::procsim::ForkSim;
use wedge_core::resource::{ResourceAccountant, ResourceKind, ResourceLimits};
use wedge_core::{KernelStats, WedgeError};
use wedge_net::Duplex;
use wedge_telemetry::{Counter, HandshakeKind, Histogram, Telemetry, TelemetryEvent};

use crate::metrics::{SchedCounters, SchedStats};

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
    /// every freshly forked replacement server after a restart.
    fn instrument(&self, _telemetry: &Telemetry) {}
}

/// Bytes the simulated fork copies into a booting shard: the control
/// block its factory builds a server from over a fresh kernel (a page is
/// room for a live kernel's whole compartment table) — never an
/// address-space image, so boot cost does not scale with image size.
const BOOT_BLOCK_BYTES: usize = 4096;

/// Shard-set sizing, backpressure and boot-cost configuration.
#[derive(Debug, Clone, Copy)]
pub struct ShardConfig {
    /// Number of shard workers (independent kernels) to fork.
    pub shards: usize,
    /// Bounded per-shard link-queue capacity.
    pub queue_capacity: usize,
    /// Per-shard admission limit on in-flight links (queued + serving);
    /// `None` leaves the quota axis unlimited and only the bounded queue
    /// pushes back.
    pub max_inflight: Option<u64>,
    /// Descriptor-table size the simulated fork copies at shard boot.
    pub fork_fd_count: usize,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            shards: 4,
            queue_capacity: 64,
            max_inflight: None,
            // A handful of listening/log descriptors.
            fork_fd_count: 16,
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
/// through. Public only to the crate so the acceptor can build and
/// re-route jobs.
pub(crate) struct ShardJob<R> {
    pub(crate) link: Duplex,
    pub(crate) tx: crossbeam::channel::Sender<Result<R, WedgeError>>,
    /// The request's trace, when the link came through a traced listener.
    /// Boxed so the untraced job (the common case) stays small enough to
    /// bounce through `Result` re-routes by value.
    pub(crate) trace: Option<Box<JobTrace>>,
}

pub(crate) struct Shard<S: ShardServer> {
    pub(crate) id: usize,
    /// The shard's server instance. Swapped for a freshly forked one on
    /// restart; the worker holds the read side while serving, restart
    /// takes the write side only after the old worker has been joined.
    pub(crate) server: RwLock<S>,
    pub(crate) queue: Mutex<VecDeque<ShardJob<S::Report>>>,
    signal: Condvar,
    admission: Arc<ResourceAccountant>,
    health: AtomicU8,
    /// Queued + currently-serving links (the least-loaded policy's load
    /// signal).
    depth: AtomicUsize,
    pub(crate) counters: SchedCounters,
    /// Simulated fork + prewarm cost of the most recent boot.
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

    /// Try to enqueue a job. `rerouted` marks jobs drained from a dead
    /// sibling (counted as `stolen` on this shard instead of `submitted`,
    /// so aggregate submissions count each link once).
    // Err hands the whole job back for re-routing — it is the normal
    // refusal path, not a rare error, so its size is the job's size.
    #[allow(clippy::result_large_err)]
    pub(crate) fn try_enqueue(
        &self,
        job: ShardJob<S::Report>,
        rerouted: bool,
    ) -> Result<(), ShardJob<S::Report>> {
        if self.health() != ShardHealth::Healthy {
            return Err(job);
        }
        if self.admission.charge(ResourceKind::Sthreads, 1).is_err() {
            SchedCounters::bump(&self.counters.rejected);
            return Err(job);
        }
        let mut queue = self.queue.lock();
        // Re-check under the queue lock: a kill drains the queue under this
        // lock, so a job enqueued after the health flip would be stranded.
        if self.health() != ShardHealth::Healthy || queue.len() >= self.queue_capacity {
            drop(queue);
            self.admission.release(ResourceKind::Sthreads, 1);
            SchedCounters::bump(&self.counters.rejected);
            return Err(job);
        }
        queue.push_back(job);
        let depth = self.depth.fetch_add(1, Ordering::SeqCst) + 1;
        self.counters.observe_depth(depth as u64);
        if rerouted {
            SchedCounters::bump(&self.counters.stolen);
        } else {
            SchedCounters::bump(&self.counters.submitted);
        }
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
        for _ in &drained {
            self.admission.release(ResourceKind::Sthreads, 1);
            self.depth.fetch_sub(1, Ordering::SeqCst);
        }
        self.signal.notify_all();
        drained
    }
}

/// The shard set's "capacity or health changed" event count — what a
/// refused submitter, [`crate::ShardedFrontEnd::await_healthy`] and the
/// [`crate::Supervisor`] watchdog block on instead of sleeping. Every
/// event that can turn a refusal into an admission (a worker dequeue or
/// completion) or change what to do about a dead shard (kill, restart
/// landing or failing, storm abandonment, shutdown) bumps the generation
/// and wakes every waiter. Waiters read the generation *before* looking at
/// the state they wait on, so an event between the look and the block is
/// never lost.
#[derive(Default)]
pub(crate) struct ChangeSignal {
    generation: Mutex<u64>,
    changed: Condvar,
}

impl ChangeSignal {
    pub(crate) fn notify(&self) {
        *self.generation.lock() += 1;
        self.changed.notify_all();
    }

    /// The current generation; pass it to [`Self::wait_past`].
    pub(crate) fn seen(&self) -> u64 {
        *self.generation.lock()
    }

    /// Block until the generation has moved past `seen`, or until
    /// `deadline` when there is one. `false` means the deadline passed
    /// with no event.
    pub(crate) fn wait_past(&self, seen: u64, deadline: Option<Instant>) -> bool {
        let mut generation = self.generation.lock();
        while *generation == seen {
            match deadline {
                None => self.changed.wait(&mut generation),
                Some(deadline) => {
                    let left = deadline.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        return false;
                    }
                    self.changed.wait_for(&mut generation, left);
                }
            }
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
    /// Front-end-level counters: `submitted` counts every *offer* (a
    /// batch driver re-offering a refused link counts again, matching the
    /// `rejected` its refusal recorded — so `submitted == completed +
    /// rejected` always balances), `completed` each served link,
    /// `rejected` each offer refused by every shard (at submit time or
    /// after a failed re-route), `stolen` each link placed somewhere other
    /// than the acceptor policy's first choice.
    pub(crate) aggregate: SchedCounters,
    pub(crate) shutdown: AtomicBool,
    /// See [`ChangeSignal`]. `Arc`-held so the (non-generic)
    /// [`crate::Supervisor`] handle can wake its watchdog on drop.
    pub(crate) changes: Arc<ChangeSignal>,
    /// The per-shard server factory, kept so a restart can re-run it
    /// inside a freshly forked child.
    factory: Arc<dyn Fn(usize) -> Result<S, WedgeError> + Send + Sync>,
    fork_fd_count: usize,
    /// Set once by [`Self::instrument`]; workers check it with one
    /// lock-free load per link and skip all timing when absent.
    pub(crate) probes: std::sync::OnceLock<ShardProbes>,
}

impl<S: ShardServer> ShardSetInner<S> {
    /// The front-end counter snapshot: the aggregate counters, with the
    /// peak queue depth folded in from the per-shard observations (depth
    /// is observed where the queue lives).
    pub(crate) fn front_stats(&self) -> SchedStats {
        let mut stats = self.aggregate.snapshot();
        for shard in &self.shards {
            stats.peak_queue_depth = stats
                .peak_queue_depth
                .max(shard.counters.snapshot().peak_queue_depth);
        }
        stats
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
        rerouted: bool,
    ) -> Result<usize, ShardJob<S::Report>> {
        if self.shutdown.load(Ordering::SeqCst) {
            return Err(job);
        }
        for (position, &idx) in order.iter().enumerate() {
            match self.shards[idx].try_enqueue(job, rerouted) {
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
    /// and registers a pull collector for the scheduler counters and
    /// shard health/depth gauges. The collector holds a `Weak`, so a
    /// dropped set simply vanishes from later snapshots.
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
            let stats = inner.front_stats();
            sample.counter("sched.submitted", stats.submitted);
            sample.counter("sched.completed", stats.completed);
            sample.counter("sched.rejected", stats.rejected);
            sample.counter("sched.stolen", stats.stolen);
            sample.gauge_max("shard.queue_depth.peak", stats.peak_queue_depth);
            let mut depth = 0u64;
            let mut healthy = 0u64;
            let mut restarts = 0u64;
            for shard in &inner.shards {
                depth += shard.depth() as u64;
                healthy += u64::from(shard.health() == ShardHealth::Healthy);
                restarts += shard.restarts.load(Ordering::SeqCst);
            }
            sample.gauge("shard.queue_depth", depth);
            sample.gauge("shard.healthy", healthy);
            sample.counter("shard.restarts", restarts);
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
    /// it was serving at kill time is allowed to finish), fork a fresh
    /// kernel and re-run the factory inside the child, swap the new server
    /// in, start a new queue worker and rejoin the ring **with the old
    /// index** — placement policies (and affinity keys that hash here)
    /// see the shard healthy again.
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
        self.changes.notify();
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

        // The same boot a cold shard pays: ship the control block and let
        // the child build its server from it.
        let parent = ForkSim::new(BOOT_BLOCK_BYTES, self.fork_fd_count);
        let factory = self.factory.clone();
        let (server, boot_cost) = parent.fork_and_wait_timed(move |_image, _fds| factory(idx));
        let server = match server {
            Ok(server) => server,
            Err(err) => {
                // Failed respawn: the shard stays dead; a later restart
                // attempt can claim it again.
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
    /// The retained factory refused to build a replacement server; the
    /// shard stays dead. Counts as a failed respawn.
    FactoryFailed(WedgeError),
    /// Nothing was attempted: the claim was lost to a concurrent restart,
    /// the shard was not failed, or the set is shutting down. Not a
    /// respawn failure — the supervisor must not count it as one.
    Skipped(WedgeError),
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
        inner.changes.notify();
        let ShardJob { link, tx, trace } = job;
        let probes = inner.probes.get();
        let started = probes.map(|_| Instant::now());
        // Close the queue span (submit → dequeue), open the serve span,
        // and make it this thread's ambient trace: everything the server
        // does underneath — TLS handshake, kernel policy mutations, remote
        // cachenet ops — hangs its spans under `serve_ctx`, across
        // sthread spawns (wedge-core propagates the ambient trace).
        let serving = trace.as_ref().map(|jt| {
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
            shard.server.read().serve_link(me, link)
        }));
        shard.admission.release(ResourceKind::Sthreads, 1);
        shard.depth.fetch_sub(1, Ordering::SeqCst);
        SchedCounters::bump(&shard.counters.completed);
        SchedCounters::bump(&inner.aggregate.completed);
        // An in-flight admission slot just freed.
        inner.changes.notify();
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
        if let (Some(jt), Some((serve_ctx, dequeued_ns, scope))) = (trace.as_ref(), serving) {
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
        let _ = tx.send(result);
    }
}

/// Per-shard observability snapshot. Aggregate a set with `+=`; the
/// [`SchedStats`]/[`KernelStats`] `AddAssign` impls sum counters and take
/// the max of peak depths.
#[derive(Debug, Clone)]
pub struct ShardStats {
    /// The shard's id (meaningless after aggregation).
    pub shard: usize,
    /// Whether the shard is accepting links.
    pub healthy: bool,
    /// Simulated fork + prewarm cost paid at the most recent boot.
    pub boot_cost: Duration,
    /// Times the shard has been restarted after a kill.
    pub restarts: u64,
    /// Links queued + currently serving.
    pub depth: u64,
    /// Scheduler-style counters for this shard (`submitted` = links first
    /// accepted here, `stolen` = links re-routed here from a sibling).
    pub sched: SchedStats,
    /// The shard kernel's counters.
    pub kernel: KernelStats,
}

impl Default for ShardStats {
    /// The `+=` identity: counters zero and `healthy: true`, so folding
    /// shard snapshots into a default-constructed accumulator reports
    /// healthy exactly when every shard is.
    fn default() -> Self {
        ShardStats {
            shard: 0,
            healthy: true,
            boot_cost: Duration::ZERO,
            restarts: 0,
            depth: 0,
            sched: SchedStats::default(),
            kernel: KernelStats::default(),
        }
    }
}

impl std::ops::AddAssign<&ShardStats> for ShardStats {
    fn add_assign(&mut self, other: &ShardStats) {
        self.healthy &= other.healthy;
        self.boot_cost += other.boot_cost;
        self.restarts += other.restarts;
        self.depth += other.depth;
        self.sched += &other.sched;
        self.kernel += &other.kernel;
    }
}

/// N forked shard workers, each owning an independent kernel and serving
/// its own bounded link queue. Build an [`crate::Acceptor`] over the set
/// to distribute links.
pub struct ShardSet<S: ShardServer> {
    inner: Arc<ShardSetInner<S>>,
}

impl<S: ShardServer> std::fmt::Debug for ShardSet<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardSet")
            .field("shards", &self.inner.shards.len())
            .field("stats", &self.stats())
            .finish()
    }
}

impl<S: ShardServer> ShardSet<S> {
    /// Fork and pre-warm `config.shards` shards. `factory` builds shard
    /// `id`'s server; it runs inside the simulated forked child, so every
    /// shard pays the control-block + descriptor-table copy **once, at
    /// boot** — pre-warming amortises it across every
    /// connection the shard will ever serve (the same trade the paper's
    /// recycled callgates make for compartment creation). The factory is
    /// retained: [`ShardSet::restart_shard`] re-runs it inside a fresh
    /// fork to revive a killed shard.
    pub fn new<F>(config: ShardConfig, factory: F) -> Result<ShardSet<S>, WedgeError>
    where
        F: Fn(usize) -> Result<S, WedgeError> + Send + Sync + 'static,
    {
        let shard_count = config.shards.max(1);
        let factory: Arc<dyn Fn(usize) -> Result<S, WedgeError> + Send + Sync> = Arc::new(factory);
        let mut shards = Vec::with_capacity(shard_count);
        for id in 0..shard_count {
            let parent = ForkSim::new(BOOT_BLOCK_BYTES, config.fork_fd_count);
            let factory = factory.clone();
            // The child copies only the control block; the factory builds
            // the server, and its policy state, over a fresh kernel.
            let (server, boot_cost) = parent.fork_and_wait_timed(move |_image, _fds| factory(id));
            let server = server?;
            let mut limits = ResourceLimits::unlimited();
            if let Some(max) = config.max_inflight {
                limits = limits.with_sthreads(max);
            }
            shards.push(Shard {
                id,
                server: RwLock::new(server),
                queue: Mutex::new(VecDeque::new()),
                signal: Condvar::new(),
                admission: ResourceAccountant::new(limits),
                health: AtomicU8::new(HEALTH_HEALTHY),
                depth: AtomicUsize::new(0),
                counters: SchedCounters::default(),
                boot_cost: Mutex::new(boot_cost),
                restarts: AtomicU64::new(0),
                worker: Mutex::new(None),
                restart_claim: AtomicBool::new(false),
                queue_capacity: config.queue_capacity.max(1),
            });
        }
        let inner = Arc::new(ShardSetInner {
            shards,
            aggregate: SchedCounters::default(),
            shutdown: AtomicBool::new(false),
            changes: Arc::default(),
            factory,
            fork_fd_count: config.fork_fd_count,
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

    /// Run `f` against shard `idx`'s server (e.g. for per-shard
    /// assertions). The server may be swapped by a restart, so only a
    /// scoped borrow is offered.
    pub fn with_server<R>(&self, idx: usize, f: impl FnOnce(&S) -> R) -> R {
        f(&self.inner.shards[idx].server.read())
    }

    /// Shard `idx`'s health.
    pub fn health(&self, idx: usize) -> ShardHealth {
        self.inner.shards[idx].health()
    }

    /// Shard `idx`'s admission accountant (in-flight links are the
    /// `Sthreads` axis).
    pub fn admission(&self, idx: usize) -> &Arc<ResourceAccountant> {
        &self.inner.shards[idx].admission
    }

    /// Front-end-level counters: every *offer* bumps `submitted` and
    /// resolves into exactly one of `completed` or `rejected` (a batch
    /// driver re-offering a refused link counts as a fresh offer, so the
    /// balance holds even under backoff-and-retry); `stolen` counts links
    /// that landed somewhere other than the acceptor's first choice
    /// (skips and post-kill re-routes).
    pub fn stats(&self) -> SchedStats {
        self.inner.front_stats()
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
                sched: shard.counters.snapshot(),
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
        self.inner.changes.notify();
        let order: Vec<usize> = (1..n).map(|offset| (idx + offset) % n).collect();
        let mut report = KillReport::default();
        for job in drained {
            match self.inner.place(job, &order, true) {
                Ok(_) => {
                    SchedCounters::bump(&self.inner.aggregate.stolen);
                    report.rerouted += 1;
                }
                Err(job) => {
                    SchedCounters::bump(&self.inner.aggregate.rejected);
                    report.failed += 1;
                    let _ = job.tx.send(Err(all_shards_exhausted(n)));
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
        self.inner.changes.notify();
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
                shard.admission.release(ResourceKind::Sthreads, 1);
                shard.depth.fetch_sub(1, Ordering::SeqCst);
                SchedCounters::bump(&self.inner.aggregate.rejected);
                let _ = job.tx.send(Err(WedgeError::InvalidOperation(
                    "shard set shut down before the link was served".to_string(),
                )));
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

    #[test]
    fn boot_pays_fork_cost_once_per_shard() {
        let set = hold_set(ShardConfig {
            shards: 2,
            ..ShardConfig::default()
        });
        for stats in set.shard_stats() {
            assert!(stats.boot_cost > Duration::ZERO, "fork copy cost charged");
            assert!(stats.healthy);
            assert_eq!(stats.restarts, 0);
        }
    }

    #[test]
    fn round_robin_rotates_across_shards() {
        let set = hold_set(ShardConfig {
            shards: 3,
            ..ShardConfig::default()
        });
        let acceptor = Acceptor::new(&set, AcceptPolicy::RoundRobin);
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
        let stats = set.stats();
        assert_eq!(stats.submitted, 6);
        assert_eq!(stats.completed, 6);
        assert_eq!(stats.rejected, 0);
        assert_eq!(stats.stolen, 0);
    }

    #[test]
    fn least_loaded_prefers_the_idle_shard() {
        let set = hold_set(ShardConfig {
            shards: 2,
            ..ShardConfig::default()
        });
        let acceptor = Acceptor::new(&set, AcceptPolicy::LeastLoaded);
        // Pin shard 0 with a link whose client stays silent.
        let (busy_client, busy_server) = duplex_pair("busy", "s");
        let busy = acceptor
            .submit_with_key(busy_server, affinity_key(0, 2))
            .unwrap();
        // Wait until the worker actually picked the link up is not needed:
        // depth counts queued + serving either way.
        for _ in 0..4 {
            let (client, server) = duplex_pair("c", "s");
            client.send(b"go").unwrap();
            let handle = acceptor.submit(server).unwrap();
            assert_eq!(handle.join().unwrap(), 1, "idle shard must be preferred");
        }
        busy_client.send(b"done").unwrap();
        assert_eq!(busy.join().unwrap(), 0);
    }

    #[test]
    fn least_loaded_ignores_dead_shards() {
        let set = hold_set(ShardConfig {
            shards: 3,
            ..ShardConfig::default()
        });
        let acceptor = Acceptor::new(&set, AcceptPolicy::LeastLoaded);
        // A killed shard drains to depth 0 — it must not become the
        // permanently-preferred "least loaded" choice.
        set.kill_shard(0);
        for _ in 0..4 {
            let (client, server) = duplex_pair("c", "s");
            client.send(b"go").unwrap();
            let handle = acceptor.submit(server).unwrap();
            assert_ne!(handle.placed_on(), 0, "dead shard must never be preferred");
            assert!(handle.join().is_ok());
        }
        // The dead shard was never the first choice, so nothing counts as
        // skipped/re-routed.
        assert_eq!(set.stats().stolen, 0);
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
            max_inflight: Some(1),
            ..ShardConfig::default()
        });
        let acceptor = Acceptor::new(&set, AcceptPolicy::SessionAffinity);
        let to_zero = affinity_key(0, 2);
        // Saturate shard 0.
        let (c0, s0) = duplex_pair("hold0", "s");
        let h0 = acceptor.submit_with_key(s0, to_zero).unwrap();
        assert_eq!(h0.placed_on(), 0);
        // Wait for the worker to take it so the next affinity submission
        // exercises the admission quota, not a still-queued link.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while set.shard_stats()[0].depth > 0 && std::time::Instant::now() < deadline {
            // depth stays 1 while serving; what must drain is the queue.
            if set.inner().shards[0].queue.lock().is_empty() {
                break;
            }
            thread::sleep(Duration::from_millis(1));
        }
        // Preferring shard 0 now skips to shard 1 instead of failing.
        let (c1, s1) = duplex_pair("hold1", "s");
        let h1 = acceptor.submit_with_key(s1, to_zero).unwrap();
        assert_eq!(h1.placed_on(), 1, "saturated shard must be skipped");
        assert_eq!(set.stats().stolen, 1);
        // Both shards saturated: now — and only now — the front door fails.
        let (_c2, s2) = duplex_pair("extra", "s");
        let err = acceptor.submit_with_key(s2, to_zero).unwrap_err();
        assert!(matches!(err, WedgeError::ResourceExhausted { .. }));
        c0.send(b"done").unwrap();
        c1.send(b"done").unwrap();
        assert_eq!(h0.join().unwrap(), 0);
        assert_eq!(h1.join().unwrap(), 1);
        let stats = set.stats();
        assert_eq!(stats.submitted, 3);
        assert_eq!(stats.completed + stats.rejected, 3, "every link resolves");
    }

    #[test]
    fn killing_a_shard_reroutes_its_queued_links() {
        let set = hold_set(ShardConfig {
            shards: 2,
            queue_capacity: 8,
            ..ShardConfig::default()
        });
        let acceptor = Acceptor::new(&set, AcceptPolicy::SessionAffinity);
        let to_zero = affinity_key(0, 2);
        // One link in service on shard 0 (client silent)...
        let (held_client, held_server) = duplex_pair("held", "s");
        let held = acceptor.submit_with_key(held_server, to_zero).unwrap();
        // ...wait until the worker holds it, then queue three more behind it.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while !set.inner().shards[0].queue.lock().is_empty() || set.shard_stats()[0].depth == 0 {
            assert!(std::time::Instant::now() < deadline, "worker never started");
            thread::sleep(Duration::from_millis(1));
        }
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
        let stats = set.stats();
        assert_eq!(stats.submitted, 4);
        assert_eq!(stats.completed, 4);
        assert_eq!(stats.rejected, 0);
        assert_eq!(stats.stolen, 3);
        // A dead shard refuses new links; with no healthy sibling left
        // unsaturated the front door still works through shard 1.
        let (client, server) = duplex_pair("after", "s");
        client.send(b"go").unwrap();
        assert_eq!(acceptor.submit(server).unwrap().join().unwrap(), 1);
    }

    #[test]
    fn restart_revives_a_killed_shard_with_its_old_index() {
        let set = hold_set(ShardConfig {
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
        assert!(boot_cost > Duration::ZERO, "respawn pays the fork cost");
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
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while !set.inner().shards[0].queue.lock().is_empty() {
            assert!(std::time::Instant::now() < deadline, "worker never started");
            thread::sleep(Duration::from_millis(1));
        }
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
            ..ShardConfig::default()
        });
        let acceptor = Acceptor::new(&set, AcceptPolicy::RoundRobin);
        let (held_client, held_server) = duplex_pair("held", "s");
        let held = acceptor.submit(held_server).unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while !set.inner().shards[0].queue.lock().is_empty() {
            assert!(std::time::Instant::now() < deadline, "worker never started");
            thread::sleep(Duration::from_millis(1));
        }
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
        let stats = set.stats();
        assert_eq!(stats.submitted, 2);
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.rejected, 1);
        assert_eq!(
            stats.submitted,
            stats.completed + stats.rejected,
            "every offered link resolves exactly once"
        );
    }
}
