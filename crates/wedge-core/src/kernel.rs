//! The simulated kernel: the trusted arbiter of every Wedge privilege check.
//!
//! The paper implements sthreads and callgates as ~2000 lines of kernel
//! support code in Linux 2.6.19. This module is the reproduction's
//! equivalent: it owns all compartments, tagged segments, callgate entry
//! points and instances, file descriptors and globals, and performs every
//! policy check. Application code never touches segment bytes directly; it
//! holds [`SBuf`] names and goes through a [`crate::SthreadCtx`], which
//! forwards to the methods here.
//!
//! ## Concurrency architecture (the lock-sharded fast path)
//!
//! Tagged-memory checks sit on *every* access, so the kernel's hot path is
//! built for concurrency instead of a single state mutex:
//!
//! * the **segment table** is sharded by tag across [`SEGMENT_SHARDS`]
//!   independent `RwLock`s (copy-on-write overlays live in the same shard
//!   as their tag, so one guard covers both);
//! * the **compartment/policy table** is a separate `RwLock`, read-locked
//!   only on permission-cache misses;
//! * **stats** are relaxed atomics, **violations** and all control-plane
//!   tables (callgates, globals, fd ownership, the tag cache) live behind
//!   their own locks, off the data path;
//! * policy state is **op-log replicated** (the node-replication design):
//!   every policy mutation (grants, revocations, widenings, identity
//!   transitions, scrub resets, compartment creation) is validated against
//!   the authoritative table and appended as a typed effect to a shared,
//!   monotonically versioned [`crate::oplog::OpLog`]. There is one
//!   mutation path: take the compartments write lock, validate, apply,
//!   publish the effect, bump the target's version cell (`Kernel::publish`
//!   is the one place that happens). Each [`crate::oplog::KernelReplica`]
//!   lazily replays the log up to the published tail, and per-sthread
//!   permission caches (tag → [`MemProt`], fd → [`crate::FdProt`])
//!   revalidate on the **log version**, scanning only the new suffix for
//!   ops naming their own compartment — a mutation aimed elsewhere costs
//!   a cached reader nothing.
//!
//! Lock order (outer → inner): `compartments` → segment shard → `fds` →
//! `fd_owners` → `control` → `tag_cache` → `violations`. The op log's
//! entries lock is a leaf acquired under `compartments` (appends) or under
//! a replica's state lock (replay); the tracer lock is a leaf never held
//! while acquiring any other lock.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock, RwLockReadGuard};

use wedge_alloc::{Segment, TagCache, TagCacheConfig};

use crate::callgate::{CallgateFn, CgEntryId, TrustedArg};
use crate::error::WedgeError;
use crate::fdtable::{FdEntry, FdId, FdProt};
use crate::memory::SBuf;
use crate::oplog::{KernelReplica, OpLog, OpLogStats, PolicyOp, PolicyView, SnapshotView};
use crate::policy::{SecurityPolicy, Uid};
use crate::sthread::SthreadCtx;
use crate::syscall::{DomainTransitions, Syscall};
use crate::tag::{AccessMode, CompartmentId, IdHashMap, MemProt, Tag};
use crate::trace::{AccessSink, AllocEvent, CallEvent, MemAccessEvent, MemRegion, ViolationEvent};
use wedge_telemetry::{Telemetry, TelemetryEvent};

/// Number of independently locked segment-table shards. Tags are assigned
/// round-robin (`tag_new` increments the tag id), so consecutive tags land
/// on different shards and concurrent compartments rarely contend.
pub const SEGMENT_SHARDS: usize = 16;

/// Resident op-log entries at which the appender truncates. A constant,
/// not a knob: it only trades the suffix a lagging cache may still fold
/// against how often the appender pays one replay per replica.
const OPLOG_WATERMARK: u64 = 1024;

/// What a kernel keeps resident: a function of *live* compartments, not of
/// history (see [`Kernel::footprint`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelFootprint {
    /// Entries in the authoritative compartment table.
    pub compartments: usize,
    /// Callgate instances held for those compartments.
    pub callgate_instances: usize,
    /// Compartment views held by each replica.
    pub replica_views: Vec<usize>,
    /// Op-log entries still resident (at most the truncation watermark).
    pub log_resident: u64,
    /// Version of the oldest resident op-log entry.
    pub log_base: u64,
}

/// Counters describing kernel activity, used by tests and by the experiment
/// harnesses (e.g. "each request creates two sthreads and invokes eight
/// callgates", §6).
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct KernelStats {
    /// Sthreads created (excluding callgate activations).
    pub sthreads_created: u64,
    /// Standard callgate invocations.
    pub callgate_invocations: u64,
    /// Recycled callgate invocations.
    pub recycled_invocations: u64,
    /// Tags created via `tag_new` (including boundary tags).
    pub tags_created: u64,
    /// Tags deleted.
    pub tags_deleted: u64,
    /// `smalloc` allocations from shared (grantable) tags.
    pub smallocs: u64,
    /// Allocations that went to per-compartment private segments.
    pub private_allocs: u64,
    /// Tagged-memory reads that were checked.
    pub mem_reads: u64,
    /// Tagged-memory writes that were checked.
    pub mem_writes: u64,
    /// Protection faults raised (denied accesses, not counting emulated).
    pub faults: u64,
    /// Violations permitted because emulation mode was active.
    pub emulated_violations: u64,
    /// File-descriptor reads.
    pub fd_reads: u64,
    /// File-descriptor writes.
    pub fd_writes: u64,
    /// Scrubs (zeroize-between-principals on recycled sthreads; see
    /// [`crate::RecycledWorkerHandle::scrub`]), whether or not they found
    /// anything to wipe.
    pub private_scrubs: u64,
}

impl std::ops::AddAssign<&KernelStats> for KernelStats {
    /// Field-wise accumulation, used to aggregate counters across the
    /// independent kernels of a pooled-instance front-end. The exhaustive
    /// destructuring (no `..`) makes adding a `KernelStats` field without
    /// extending this impl a compile error.
    fn add_assign(&mut self, other: &KernelStats) {
        let KernelStats {
            sthreads_created,
            callgate_invocations,
            recycled_invocations,
            tags_created,
            tags_deleted,
            smallocs,
            private_allocs,
            mem_reads,
            mem_writes,
            faults,
            emulated_violations,
            fd_reads,
            fd_writes,
            private_scrubs,
        } = other;
        self.sthreads_created += sthreads_created;
        self.callgate_invocations += callgate_invocations;
        self.recycled_invocations += recycled_invocations;
        self.tags_created += tags_created;
        self.tags_deleted += tags_deleted;
        self.smallocs += smallocs;
        self.private_allocs += private_allocs;
        self.mem_reads += mem_reads;
        self.mem_writes += mem_writes;
        self.faults += faults;
        self.emulated_violations += emulated_violations;
        self.fd_reads += fd_reads;
        self.fd_writes += fd_writes;
        self.private_scrubs += private_scrubs;
    }
}

/// The kernel-internal counters: one relaxed atomic per [`KernelStats`]
/// field, so the data path never takes a lock just to count.
#[derive(Default)]
struct StatCells {
    sthreads_created: AtomicU64,
    callgate_invocations: AtomicU64,
    recycled_invocations: AtomicU64,
    tags_created: AtomicU64,
    tags_deleted: AtomicU64,
    smallocs: AtomicU64,
    private_allocs: AtomicU64,
    mem_reads: AtomicU64,
    mem_writes: AtomicU64,
    faults: AtomicU64,
    emulated_violations: AtomicU64,
    fd_reads: AtomicU64,
    fd_writes: AtomicU64,
    private_scrubs: AtomicU64,
}

impl StatCells {
    fn bump(cell: &AtomicU64) {
        cell.fetch_add(1, Ordering::Relaxed);
    }

    fn absorb(&self, counts: AccessCounts) {
        self.mem_reads
            .fetch_add(counts.mem_reads, Ordering::Relaxed);
        self.mem_writes
            .fetch_add(counts.mem_writes, Ordering::Relaxed);
        self.fd_reads.fetch_add(counts.fd_reads, Ordering::Relaxed);
        self.fd_writes
            .fetch_add(counts.fd_writes, Ordering::Relaxed);
    }

    fn snapshot(&self) -> KernelStats {
        KernelStats {
            sthreads_created: self.sthreads_created.load(Ordering::Relaxed),
            callgate_invocations: self.callgate_invocations.load(Ordering::Relaxed),
            recycled_invocations: self.recycled_invocations.load(Ordering::Relaxed),
            tags_created: self.tags_created.load(Ordering::Relaxed),
            tags_deleted: self.tags_deleted.load(Ordering::Relaxed),
            smallocs: self.smallocs.load(Ordering::Relaxed),
            private_allocs: self.private_allocs.load(Ordering::Relaxed),
            mem_reads: self.mem_reads.load(Ordering::Relaxed),
            mem_writes: self.mem_writes.load(Ordering::Relaxed),
            faults: self.faults.load(Ordering::Relaxed),
            emulated_violations: self.emulated_violations.load(Ordering::Relaxed),
            fd_reads: self.fd_reads.load(Ordering::Relaxed),
            fd_writes: self.fd_writes.load(Ordering::Relaxed),
            private_scrubs: self.private_scrubs.load(Ordering::Relaxed),
        }
    }
}

/// A recorded protection violation (kept by the kernel so Crowbar's
/// emulation workflow can enumerate every violation after a run, §3.4).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ViolationRecord {
    /// The offending compartment.
    pub compartment: CompartmentId,
    /// Its name.
    pub compartment_name: String,
    /// Where the denied access landed.
    pub region: MemRegion,
    /// The attempted access mode.
    pub mode: AccessMode,
    /// Whether emulation mode let the access proceed.
    pub emulated: bool,
}

/// A registered global variable (part of the pre-`main` snapshot).
#[derive(Debug, Clone)]
struct GlobalVar {
    initial: Vec<u8>,
    /// If the global was declared with `BOUNDARY_VAR`, the tag protecting it.
    boundary: Option<(u32, SBuf)>,
}

/// A segment backing a tag.
struct SegmentEntry {
    segment: Segment,
    /// The compartment that created the tag.
    owner: CompartmentId,
    /// Private segments back untagged allocations; they can never be named
    /// in another compartment's policy.
    private: bool,
}

/// One shard of the segment table. Copy-on-write overlays are co-located
/// with their tag so a single shard guard covers both the shared bytes and
/// any per-compartment private view.
#[derive(Default)]
struct SegmentShard {
    segments: IdHashMap<Tag, SegmentEntry>,
    /// Per-(compartment, tag) copy-on-write overlays for tags in this shard.
    overlays: IdHashMap<(CompartmentId, Tag), Vec<u8>>,
}

/// A compartment known to the kernel.
struct CompartmentEntry {
    name: String,
    parent: Option<CompartmentId>,
    policy: SecurityPolicy,
    /// Lazily created private segment for untagged allocations.
    private_tag: Option<Tag>,
    /// Set once the compartment may own state outside this entry (it
    /// created a tag or a descriptor, allocated private scratch, or wrote
    /// through a copy-on-write grant or to a snapshot global). Retirement
    /// and scrubs skip the shard scan otherwise; a scrub clears it.
    holds_state: AtomicBool,
    /// The version-cell value at which `policy` last was the baseline a
    /// scrub restores: creation, then each publishing scrub.
    scrubbed_at: u64,
    /// The **version cell**: bumped (under the `compartments` write lock,
    /// by [`Kernel::publish`]) after every op naming this compartment is
    /// published; per-sthread permission caches revalidate against it.
    version_cell: Arc<AtomicU64>,
}

impl CompartmentEntry {
    fn new(name: &str, parent: Option<CompartmentId>, policy: SecurityPolicy) -> Self {
        CompartmentEntry {
            name: name.to_string(),
            parent,
            policy,
            private_tag: None,
            holds_state: AtomicBool::new(false),
            scrubbed_at: 0,
            version_cell: Arc::new(AtomicU64::new(0)),
        }
    }
}

/// A callgate instance: created when a policy containing a
/// [`crate::CallgateGrant`] is bound to a new sthread.
struct CallgateInstance {
    policy: Arc<SecurityPolicy>,
    trusted: Option<TrustedArg>,
    creator: CompartmentId,
}

/// How a new child compartment is created, deciding subset validation and
/// which [`KernelStats`] counter it lands in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ChildKind {
    /// An application sthread: subset-validated, counts `sthreads_created`.
    Sthread,
    /// A callgate activation running an instance policy already validated
    /// against its creator: no subset check, counts `callgate_invocations`.
    Activation,
    /// An owned recycled worker spawned under an instance policy: no subset
    /// check, but it is a long-lived sthread, so counts `sthreads_created`
    /// (invocations are counted per `invoke`, not at spawn).
    OwnedWorker,
}

/// Everything the caller needs to actually run a callgate (returned by
/// [`Kernel::cgate_prepare`]; the spawn happens in `SthreadCtx`).
pub(crate) struct PreparedCall {
    pub(crate) entry_fn: CallgateFn,
    /// The instance's creator-fixed policy; the caller's `extra` grants are
    /// merged in only when an activation is actually spawned.
    pub(crate) policy: Arc<SecurityPolicy>,
    pub(crate) trusted: Option<TrustedArg>,
    pub(crate) creator: CompartmentId,
}

/// A long-lived worker backing a recycled callgate.
pub(crate) struct RecycledWorker {
    /// Serialises callers of the same recycled gate.
    pub(crate) call_lock: Mutex<()>,
    /// Inputs paired with the caller's ambient trace (if any), so the
    /// long-lived worker thread serves each invocation inside the
    /// invoking request's trace.
    pub(crate) tx: crossbeam::channel::Sender<(
        crate::callgate::CgInput,
        Option<wedge_telemetry::ActiveTrace>,
    )>,
    pub(crate) rx: crossbeam::channel::Receiver<Result<crate::callgate::CgOutput, WedgeError>>,
    /// The persistent activation compartment.
    pub(crate) activation: CompartmentId,
}

/// Control-plane state: consulted on compartment/callgate lifecycle events,
/// never on the tagged-memory data path.
struct ControlState {
    callgate_entries: HashMap<CgEntryId, (String, CallgateFn)>,
    callgate_instances: HashMap<(CompartmentId, CgEntryId), CallgateInstance>,
    recycled: HashMap<(CompartmentId, CgEntryId), Arc<RecycledWorker>>,
    globals: HashMap<String, GlobalVar>,
    boundary_tags: HashMap<u32, Tag>,
    /// Per-(compartment, global) private copies (the COW snapshot view).
    global_overlays: HashMap<(CompartmentId, String), Vec<u8>>,
    transitions: DomainTransitions,
    next_entry: u64,
}

/// The per-sthread permission cache: positive grants keyed by tag/fd,
/// validated against the log's published tail version and invalidated
/// *precisely* — only ops naming the caller's own compartment touch it.
/// Negative results (denials) are never cached, so every denied access
/// still reaches the authoritative tables (and the violation log).
pub(crate) struct PermCache {
    /// The compartment's version cell, bound at first sync, and the value
    /// this cache last revalidated at.
    version_cell: Option<Arc<AtomicU64>>,
    seen_cell: u64,
    /// The kernel replica this cache refills from (bound round-robin by
    /// [`Kernel::adopt_cache`]).
    replica: Option<Arc<KernelReplica>>,
    /// The log tail version this cache last revalidated against.
    seen_version: u64,
    /// Whether the first sync has completed (the caller's unconfined flag
    /// is only trustworthy afterwards).
    replica_ready: bool,
    /// The positive grants held (the same shape a replica keeps per
    /// compartment, folded through the same `apply`).
    view: PolicyView,
    /// Per-cache access counters, bumped under the cache lock the hot path
    /// already holds — no extra atomic per access. [`Kernel::stats`] sums
    /// them across the registry; [`PermCache::drop`] flushes them into the
    /// kernel's global cells so counts never go backwards.
    counts: AccessCounts,
    /// The kernel this cache is registered with (for the drop-time flush).
    kernel: Option<std::sync::Weak<Kernel>>,
}

/// The four data-path counters a [`PermCache`] accumulates locally.
#[derive(Debug, Default, Clone, Copy)]
struct AccessCounts {
    mem_reads: u64,
    mem_writes: u64,
    fd_reads: u64,
    fd_writes: u64,
}

/// Which counter an access should land in (resolved while the cache lock is
/// held, so counting is free on the cached fast path).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum StatKind {
    MemRead,
    MemWrite,
    FdRead,
    FdWrite,
    /// Permission resolution that is not itself a counted access
    /// (`smalloc`, `sfree`).
    None,
}

impl PermCache {
    pub(crate) fn new() -> Self {
        PermCache {
            version_cell: None,
            seen_cell: 0,
            replica: None,
            seen_version: 0,
            replica_ready: false,
            view: PolicyView::default(),
            counts: AccessCounts::default(),
            kernel: None,
        }
    }

    fn count(&mut self, kind: StatKind) {
        match kind {
            StatKind::MemRead => self.counts.mem_reads += 1,
            StatKind::MemWrite => self.counts.mem_writes += 1,
            StatKind::FdRead => self.counts.fd_reads += 1,
            StatKind::FdWrite => self.counts.fd_writes += 1,
            StatKind::None => {}
        }
    }
}

impl Drop for PermCache {
    fn drop(&mut self) {
        // Flush this cache's counts into the kernel's global cells so a
        // finished sthread's accesses stay visible in `Kernel::stats`.
        if let Some(kernel) = self.kernel.as_ref().and_then(std::sync::Weak::upgrade) {
            kernel.stats.absorb(self.counts);
        }
    }
}

/// A borrowed, zero-copy view of a tagged buffer (see
/// [`crate::SthreadCtx::read_guard`]). Holds the segment shard's read lock
/// for its lifetime: cheap for short-lived borrows, but while one is held
/// the current thread must not call back into ANY kernel operation. Writes,
/// allocations, `sfree`, `tag_delete` and scrubs write-lock a shard, and
/// even another *read* can deadlock behind a queued writer (the std
/// `RwLock` backing the shim makes recursive reads unreliable) — and since
/// tags hash across [`SEGMENT_SHARDS`] shards, an unrelated tag has a
/// 1-in-16 chance of sharing this one's lock. Read the bytes, drop the
/// guard, then do everything else. The same applies to [`AccessSink`]
/// callbacks, which can run under this lock.
pub struct MemReadGuard<'a> {
    shard: RwLockReadGuard<'a, SegmentShard>,
    /// `Some` when the reader has a copy-on-write overlay for the tag.
    overlay: Option<(CompartmentId, Tag)>,
    tag: Tag,
    start: usize,
    len: usize,
}

impl std::ops::Deref for MemReadGuard<'_> {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        let bytes: &[u8] = match self.overlay {
            Some(key) => self
                .shard
                .overlays
                .get(&key)
                .expect("overlay pinned by shard guard"),
            None => self
                .shard
                .segments
                .get(&self.tag)
                .expect("segment pinned by shard guard")
                .segment
                .arena()
                .data(),
        };
        &bytes[self.start..self.start + self.len]
    }
}

impl std::fmt::Debug for MemReadGuard<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemReadGuard")
            .field("tag", &self.tag)
            .field("start", &self.start)
            .field("len", &self.len)
            .finish()
    }
}

/// The simulated kernel.
pub struct Kernel {
    compartments: RwLock<HashMap<CompartmentId, CompartmentEntry>>,
    segment_shards: Vec<RwLock<SegmentShard>>,
    fds: RwLock<HashMap<FdId, FdEntry>>,
    /// Which compartment created each descriptor (a scrub removes the
    /// principal's descriptors).
    fd_owners: Mutex<HashMap<FdId, CompartmentId>>,
    control: Mutex<ControlState>,
    tag_cache: Mutex<TagCache>,
    /// Every per-sthread [`PermCache`] born of this kernel, so
    /// [`Kernel::stats`] can sum the per-cache access counters exactly.
    cache_registry: Mutex<Vec<std::sync::Weak<Mutex<PermCache>>>>,
    violations: Mutex<Vec<ViolationRecord>>,
    stats: StatCells,
    /// Compartments retired at exit (`kernel.compartments.retired`).
    retired: AtomicU64,
    emulation: AtomicBool,
    next_compartment: AtomicU64,
    next_tag: AtomicU64,
    next_fd: AtomicU64,
    tracer: RwLock<Option<Arc<dyn AccessSink>>>,
    /// Cheap data-path check: is a tracer installed at all? When false, no
    /// event is constructed and no name is cloned anywhere on the fast path.
    tracer_on: AtomicBool,
    /// The telemetry plane this kernel reports into, if registered (see
    /// [`Kernel::instrument`]). Only the cold paths (violations, scrubs)
    /// ever read it, so the fast path stays untouched.
    telemetry: std::sync::OnceLock<Telemetry>,
    /// The registry's `kernel.sthreads.recycled_runs`, once instrumented.
    recycled_runs: std::sync::OnceLock<wedge_telemetry::Counter>,
    /// The shared policy operation log. Appends happen under the
    /// compartments write lock; the tail is the version every permission
    /// cache revalidates against.
    oplog: OpLog,
    /// The per-shard kernel replicas permission caches refill from (never
    /// empty).
    replicas: Vec<Arc<KernelReplica>>,
    /// Round-robin cursor assigning fresh caches to replicas.
    next_replica: AtomicU64,
}

impl Default for Kernel {
    fn default() -> Self {
        Kernel::new()
    }
}

impl Kernel {
    /// Create a fresh kernel with no compartments, tags or globals. Policy
    /// mutations are appended to a shared versioned log and reads are
    /// served from per-shard replicas (see [`crate::oplog`]): one per
    /// available core, and always at least two so replica-local behaviour
    /// (round-robin cache binding, lag) is exercised even on a single-core
    /// host.
    pub fn new() -> Kernel {
        let replicas = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(2)
            .clamp(2, 8);
        Kernel {
            compartments: RwLock::new(HashMap::new()),
            segment_shards: (0..SEGMENT_SHARDS)
                .map(|_| RwLock::new(SegmentShard::default()))
                .collect(),
            fds: RwLock::new(HashMap::new()),
            fd_owners: Mutex::new(HashMap::new()),
            control: Mutex::new(ControlState {
                callgate_entries: HashMap::new(),
                callgate_instances: HashMap::new(),
                recycled: HashMap::new(),
                globals: HashMap::new(),
                boundary_tags: HashMap::new(),
                global_overlays: HashMap::new(),
                transitions: DomainTransitions::new(),
                next_entry: 1,
            }),
            tag_cache: Mutex::new(TagCache::new(TagCacheConfig::default())),
            cache_registry: Mutex::new(Vec::new()),
            violations: Mutex::new(Vec::new()),
            stats: StatCells::default(),
            retired: AtomicU64::new(0),
            emulation: AtomicBool::new(false),
            next_compartment: AtomicU64::new(1),
            next_tag: AtomicU64::new(1),
            next_fd: AtomicU64::new(1),
            tracer: RwLock::new(None),
            tracer_on: AtomicBool::new(false),
            telemetry: std::sync::OnceLock::new(),
            recycled_runs: std::sync::OnceLock::new(),
            oplog: OpLog::new(),
            replicas: (0..replicas)
                .map(|_| Arc::new(KernelReplica::new()))
                .collect(),
            next_replica: AtomicU64::new(0),
        }
    }

    fn shard(&self, tag: Tag) -> &RwLock<SegmentShard> {
        &self.segment_shards[(tag.0 as usize) % SEGMENT_SHARDS]
    }

    // ------------------------------------------------------------------
    // Configuration and inspection
    // ------------------------------------------------------------------

    /// Register this kernel with a telemetry plane. The kernel's activity
    /// counters are *pulled* into the shared totals (`kernel.read`,
    /// `kernel.write`, `kernel.violations`, `kernel.scrubs`, ...) only when
    /// a snapshot is taken — the data path is untouched, unlike
    /// [`Kernel::set_tracer`], which observes every access. Protection
    /// violations and private-scratch scrubs additionally emit audit
    /// events when the plane has a sink installed.
    ///
    /// Idempotent: a second registration (e.g. a supervisor re-wiring a
    /// restarted shard against the same plane) is a no-op. The collector
    /// holds the kernel weakly, so a dead shard's kernel simply drops out
    /// of subsequent snapshots.
    pub fn instrument(self: &Arc<Kernel>, telemetry: &Telemetry) {
        if self.telemetry.set(telemetry.clone()).is_err() {
            return;
        }
        self.oplog
            .bind_replay_histogram(telemetry.histogram("kernel.replica.replay"));
        let _ = self
            .recycled_runs
            .set(telemetry.counter("kernel.sthreads.recycled_runs"));
        let kernel = Arc::downgrade(self);
        telemetry.register_collector(move |sample| {
            let Some(kernel) = kernel.upgrade() else {
                return;
            };
            let stats = kernel.stats();
            sample.counter("kernel.read", stats.mem_reads);
            sample.counter("kernel.write", stats.mem_writes);
            sample.counter(
                "kernel.violations",
                stats.faults + stats.emulated_violations,
            );
            sample.counter("kernel.scrubs", stats.private_scrubs);
            sample.counter("kernel.sthreads", stats.sthreads_created);
            sample.counter(
                "kernel.callgates",
                stats.callgate_invocations + stats.recycled_invocations,
            );
            // Entries resident now (a function of live compartments, not
            // of history) and compartments retired so far.
            let (resident, retired) = (kernel.live_compartments(), &kernel.retired);
            sample.gauge("kernel.compartments.resident", resident as u64);
            sample.counter(
                "kernel.compartments.retired",
                retired.load(Ordering::Relaxed),
            );
            let oplog = kernel.oplog.stats();
            sample.gauge("kernel.oplog.resident", kernel.oplog.resident());
            sample.counter("kernel.oplog.truncations", oplog.truncations);
            sample.counter("kernel.oplog.appended", oplog.appended);
            sample.counter("kernel.oplog.replays", oplog.replays);
            // Worst-case replica staleness right now. Replicas sync
            // lazily, so a nonzero lag is normal; it bounds how much
            // replay the next cold read pays, not correctness.
            let min_applied = kernel
                .replicas
                .iter()
                .map(|r| r.applied())
                .min()
                .unwrap_or(0);
            sample.gauge("kernel.replica.lag", oplog.tail.saturating_sub(min_applied));
        });
    }

    /// Counter snapshot of the policy op log.
    pub fn oplog_stats(&self) -> OpLogStats {
        self.oplog.stats()
    }

    /// Number of kernel replicas serving permission-cache refills.
    pub fn replica_count(&self) -> usize {
        self.replicas.len()
    }

    /// Serialized size of the replicated policy state in bytes — the
    /// control block a replay-based shard boot ships instead of an
    /// address-space image: a checkpoint (one encoded snapshot per live
    /// compartment) plus the resident log suffix. Flat in history, since
    /// exited compartments are retired and the log is truncated.
    pub fn oplog_bytes(&self) -> usize {
        let comps = self.compartments.read();
        let checkpoint = comps
            .iter()
            .map(|(id, c)| Kernel::snapshot_of(*id, &c.policy).encoded_len());
        checkpoint.sum::<usize>() + self.oplog.encoded_bytes()
    }

    /// What this kernel currently keeps resident. Replicas replay lazily,
    /// so each is brought to the tail first: the reading is a function of
    /// the kernel's state, not of which replica last served a miss.
    pub fn footprint(&self) -> KernelFootprint {
        for replica in &self.replicas {
            replica.sync_to(&self.oplog, self.oplog.tail());
        }
        KernelFootprint {
            compartments: self.compartments.read().len(),
            callgate_instances: self.control.lock().callgate_instances.len(),
            replica_views: self.replicas.iter().map(|r| r.views()).collect(),
            log_resident: self.oplog.resident(),
            log_base: self.oplog.base(),
        }
    }

    /// Install (or remove) the instrumentation sink used by Crowbar.
    pub fn set_tracer(&self, tracer: Option<Arc<dyn AccessSink>>) {
        let installed = tracer.is_some();
        *self.tracer.write() = tracer;
        self.tracer_on.store(installed, Ordering::SeqCst);
    }

    pub(crate) fn tracer_active(&self) -> bool {
        self.tracer_on.load(Ordering::Relaxed)
    }

    fn tracer(&self) -> Option<Arc<dyn AccessSink>> {
        if !self.tracer_active() {
            return None;
        }
        self.tracer.read().clone()
    }

    /// Enable or disable emulation mode (§3.4's sthread emulation library):
    /// protection violations are recorded but the access is allowed, so a
    /// whole run can be observed without crashing.
    pub fn set_emulation(&self, enabled: bool) {
        self.emulation.store(enabled, Ordering::SeqCst);
    }

    /// Is emulation mode active?
    pub fn emulation_enabled(&self) -> bool {
        self.emulation.load(Ordering::SeqCst)
    }

    /// All protection violations recorded so far.
    pub fn violations(&self) -> Vec<ViolationRecord> {
        self.violations.lock().clone()
    }

    /// Forget recorded violations.
    pub fn clear_violations(&self) {
        self.violations.lock().clear();
    }

    /// Kernel activity counters. Data-path counts accumulate in the
    /// per-sthread permission caches (under the lock the fast path already
    /// holds, so counting costs no extra atomic); this sums them with the
    /// kernel's global cells for an exact snapshot.
    pub fn stats(&self) -> KernelStats {
        let mut snapshot = self.stats.snapshot();
        let caches: Vec<_> = {
            let mut registry = self.cache_registry.lock();
            registry.retain(|w| w.strong_count() > 0);
            registry
                .iter()
                .filter_map(std::sync::Weak::upgrade)
                .collect()
        };
        for cache in caches {
            let counts = cache.lock().counts;
            snapshot.mem_reads += counts.mem_reads;
            snapshot.mem_writes += counts.mem_writes;
            snapshot.fd_reads += counts.fd_reads;
            snapshot.fd_writes += counts.fd_writes;
        }
        snapshot
    }

    /// Bind a freshly created permission cache to this kernel: the drop-time
    /// counter flush targets this kernel's cells, and the registry makes the
    /// cache's live counters visible to [`Kernel::stats`].
    pub(crate) fn adopt_cache(self: &Arc<Self>, cache: &Arc<Mutex<PermCache>>) {
        {
            let mut c = cache.lock();
            c.kernel = Some(Arc::downgrade(self));
            // Spread caches across the replicas so reads shard naturally
            // (one replica per worker core).
            let slot = self.next_replica.fetch_add(1, Ordering::Relaxed) as usize;
            c.replica = Some(self.replicas[slot % self.replicas.len()].clone());
        }
        let mut registry = self.cache_registry.lock();
        if registry.len() % 32 == 31 {
            registry.retain(|w| w.strong_count() > 0);
        }
        registry.push(Arc::downgrade(cache));
    }

    fn count_uncached(&self, kind: StatKind) {
        match kind {
            StatKind::MemRead => StatCells::bump(&self.stats.mem_reads),
            StatKind::MemWrite => StatCells::bump(&self.stats.mem_writes),
            StatKind::FdRead => StatCells::bump(&self.stats.fd_reads),
            StatKind::FdWrite => StatCells::bump(&self.stats.fd_writes),
            StatKind::None => {}
        }
    }

    /// Pre-populate the userland tag cache with `count` default-size
    /// segments, so a pooled-worker spawn storm does not pay the simulated
    /// `mmap` cost per worker. Returns how many segments were parked.
    pub fn prewarm_tag_cache(&self, count: usize) -> usize {
        self.tag_cache.lock().prewarm(count).unwrap_or(0)
    }

    /// Permit an SELinux-style domain transition from `from` to `to`.
    pub fn allow_domain_transition(&self, from: &str, to: &str) {
        self.control.lock().transitions.allow(from, to);
    }

    /// Number of live (not yet exited) compartments.
    pub fn live_compartments(&self) -> usize {
        self.compartments.read().len()
    }

    /// The stored policy of a compartment.
    pub fn policy_of(&self, id: CompartmentId) -> Result<SecurityPolicy, WedgeError> {
        self.compartments
            .read()
            .get(&id)
            .map(|c| c.policy.clone())
            .ok_or(WedgeError::UnknownCompartment(id))
    }

    /// The name of a compartment.
    pub fn name_of(&self, id: CompartmentId) -> Result<String, WedgeError> {
        self.compartments
            .read()
            .get(&id)
            .map(|c| c.name.clone())
            .ok_or(WedgeError::UnknownCompartment(id))
    }

    /// The parent of a compartment (`None` for the root compartment).
    pub fn parent_of(&self, id: CompartmentId) -> Result<Option<CompartmentId>, WedgeError> {
        self.compartments
            .read()
            .get(&id)
            .map(|c| c.parent)
            .ok_or(WedgeError::UnknownCompartment(id))
    }

    // ------------------------------------------------------------------
    // The per-sthread permission cache
    // ------------------------------------------------------------------

    /// Bring `cache` up to date with the log. The warm case is one load of
    /// the caller's **version cell** (a precise "last op touching this
    /// compartment" version) — no locks beyond the cache's own, no
    /// allocation, and a mutation aimed at *another* compartment leaves
    /// this cache warm. On a cell change the cache folds the new log
    /// suffix in directly, applying only the ops naming the caller; the
    /// bound replica is not touched at all — it replays lazily, on the
    /// first cache *miss* that actually needs it (see
    /// [`Kernel::resolve_mem_grant`]).
    ///
    /// Ordering: [`Kernel::publish`] stores the log tail before it bumps
    /// the target's cell, and a mutation's caller is released only after
    /// the bump. So any read that starts after a `revoke_mem` returns
    /// observes the bumped cell, and the tail it then loads is guaranteed
    /// to cover the revocation — the stale grant is dropped on every
    /// replica.
    fn cache_sync(&self, caller: CompartmentId, cache: &mut PermCache) -> Result<(), WedgeError> {
        /// Longest log suffix a cache folds in place; past this it
        /// resets from its replica instead (one shared replay beats N
        /// per-cache walks of the same ops).
        const MAX_SUFFIX_FOLD: u64 = 128;
        let log = &self.oplog;
        if cache.replica_ready {
            let cell = cache
                .version_cell
                .as_ref()
                .expect("version cell is bound at first sync");
            let seen = cell.load(Ordering::SeqCst);
            if seen == cache.seen_cell {
                return Ok(());
            }
            let tail = log.tail();
            // Precise invalidation: fold the new log suffix into the
            // cached grants, touching only the caller's own ops. (Its own
            // `Retire` leaves the cache holding nothing, so the next access
            // misses and the replica answers "unknown".)
            let view = &mut cache.view;
            let folded = tail - cache.seen_version <= MAX_SUFFIX_FOLD
                && log.scan(cache.seen_version, tail, |op| {
                    if op.target() == caller {
                        view.apply(op);
                    }
                });
            cache.seen_version = tail;
            cache.seen_cell = seen;
            if !folded {
                // A long suffix (this cache slept through a mutation storm
                // aimed elsewhere) or a truncated one (`seen_version` fell
                // below the log's base): folding per-cache would re-walk
                // the same ops once per sthread, or cannot be done at all.
                // Let the shared replica replay once — amortised across
                // every cache bound to it — and refill lazily on miss.
                let replica = cache.replica.as_ref().expect("replica bound");
                replica.sync_to(log, tail);
                cache.view.clear();
                cache.view.unconfined = replica
                    .unconfined(caller)
                    .ok_or(WedgeError::UnknownCompartment(caller))?;
            }
            return Ok(());
        }
        // First sync: bind the caller's version cell and a replica, then
        // replay the replica up to the tail — the compartment's creation
        // snapshot was published before this context could exist, so the
        // replica is the authority on whether the caller even exists.
        if cache.replica.is_none() {
            // Cache created outside `adopt_cache` (defensive): bind the
            // first replica so the path still works.
            cache.replica = Some(self.replicas[0].clone());
        }
        let cell = self
            .compartments
            .read()
            .get(&caller)
            .ok_or(WedgeError::UnknownCompartment(caller))?
            .version_cell
            .clone();
        // Cell before tail: an op counted in this cell value published its
        // tail first, so the sync below cannot miss it.
        let seen = cell.load(Ordering::SeqCst);
        cache.version_cell = Some(cell);
        let tail = log.tail();
        let replica = cache.replica.as_ref().expect("replica bound").clone();
        replica.sync_to(log, tail);
        cache.view.clear();
        cache.view.unconfined = replica
            .unconfined(caller)
            .ok_or(WedgeError::UnknownCompartment(caller))?;
        cache.replica_ready = true;
        cache.seen_version = tail;
        cache.seen_cell = seen;
        Ok(())
    }

    /// The caller's memory grant for `tag`, through the per-sthread cache
    /// when one is supplied; without one it is read from the authoritative
    /// table.
    pub(crate) fn resolve_mem_grant(
        &self,
        caller: CompartmentId,
        tag: Tag,
        cache: Option<&Mutex<PermCache>>,
        count: StatKind,
    ) -> Result<Option<MemProt>, WedgeError> {
        let Some(cache) = cache else {
            self.count_uncached(count);
            return self
                .compartments
                .read()
                .get(&caller)
                .map(|c| c.policy.mem_grant(tag))
                .ok_or(WedgeError::UnknownCompartment(caller));
        };
        let mut c = cache.lock();
        self.cache_sync(caller, &mut c)?;
        c.count(count);
        if c.view.unconfined {
            return Ok(Some(MemProt::ReadWrite));
        }
        if let Some(prot) = c.view.mem.get(&tag) {
            return Ok(Some(*prot));
        }
        // Miss: refill replica-locally (reads never touch the
        // authoritative table) — this is where the bound replica lazily
        // replays the log, up to the version this cache has already
        // validated against.
        let replica = c.replica.as_ref().expect("replica bound by cache_sync");
        replica.sync_to(&self.oplog, c.seen_version);
        let grant = replica
            .mem_grant(caller, tag)
            .ok_or(WedgeError::UnknownCompartment(caller))?;
        if let Some(prot) = grant {
            c.view.mem.insert(tag, prot);
        }
        Ok(grant)
    }

    /// The caller's descriptor grant for `fd`, through the cache.
    pub(crate) fn resolve_fd_grant(
        &self,
        caller: CompartmentId,
        fd: FdId,
        cache: Option<&Mutex<PermCache>>,
        count: StatKind,
    ) -> Result<Option<FdProt>, WedgeError> {
        let Some(cache) = cache else {
            self.count_uncached(count);
            return self
                .compartments
                .read()
                .get(&caller)
                .map(|c| c.policy.fd_grant(fd))
                .ok_or(WedgeError::UnknownCompartment(caller));
        };
        let mut c = cache.lock();
        self.cache_sync(caller, &mut c)?;
        c.count(count);
        if c.view.unconfined {
            return Ok(Some(FdProt::ReadWrite));
        }
        if let Some(prot) = c.view.fds.get(&fd) {
            return Ok(Some(*prot));
        }
        let replica = c.replica.as_ref().expect("replica bound by cache_sync");
        replica.sync_to(&self.oplog, c.seen_version);
        let grant = replica
            .fd_grant(caller, fd)
            .ok_or(WedgeError::UnknownCompartment(caller))?;
        if let Some(prot) = grant {
            c.view.fds.insert(fd, prot);
        }
        Ok(grant)
    }

    // ------------------------------------------------------------------
    // Compartment lifecycle
    //
    // A compartment is resident exactly while it runs. Exit **retires** it
    // ([`Kernel::compartment_exited`]): the authoritative entry, its
    // callgate instances, its private scratch segment (zeroed, recycled),
    // its copy-on-write views of tagged memory and snapshot globals, every
    // replica's view of it and any recycled worker it created all go, so
    // kernel state is a function of live compartments, not of history.
    // Deliberately kept: tags it created with `tag_new` and descriptors it
    // opened — both may have been granted on, and live until `tag_delete`
    // or a scrub. Ids are never reused: a retired one is `UnknownCompartment`.
    // ------------------------------------------------------------------

    /// Snapshot effect for `target`'s current policy, for the op log.
    fn snapshot_of(target: CompartmentId, policy: &SecurityPolicy) -> PolicyOp {
        PolicyOp::Snapshot {
            target,
            view: Box::new(SnapshotView {
                unconfined: policy.is_unconfined(),
                mem: policy.mem_grants().iter().map(|(t, p)| (*t, *p)).collect(),
                fds: policy.fd_grants().iter().map(|(f, p)| (*f, *p)).collect(),
            }),
        }
    }

    /// The one place an effect reaches the log: **publish, then bump the
    /// version cell**. Must be called while holding the compartments write
    /// lock (which pins log order; see [`OpLog::publish`]), with `target`
    /// the table entry `op` names. The tail store happening *before* the
    /// bump is what lets [`Kernel::cache_sync`]'s warm check trust the
    /// cell: a cache that observes a bumped cell is guaranteed to load a
    /// tail covering the op that caused it — so once the mutator is
    /// released, no later-starting access succeeds through a stale grant,
    /// on any cache or replica. The one exception is a creation snapshot,
    /// published with `target: None`: the compartment has no cell yet, and
    /// no cache can exist for it until its creator returns. Allocates
    /// nothing beyond the log's own growth.
    fn publish(&self, op: PolicyOp, target: Option<&CompartmentEntry>) {
        self.oplog.publish(op);
        if let Some(entry) = target {
            entry.version_cell.fetch_add(1, Ordering::SeqCst);
        }
        self.truncate_log(OPLOG_WATERMARK);
    }

    /// The one mutation path: lock, validate and apply (`apply`, one of the
    /// `apply_*` bodies, which hands back the ≤ 1 effect it produced),
    /// publish, bump. The caller must hold no kernel locks.
    fn mutate(
        &self,
        apply: impl FnOnce(
            &mut HashMap<CompartmentId, CompartmentEntry>,
        ) -> Result<Option<PolicyOp>, WedgeError>,
    ) -> Result<(), WedgeError> {
        let mut comps = self.compartments.write();
        if let Some(op) = apply(&mut comps)? {
            let target = comps.get(&op.target());
            self.publish(op, target);
        }
        Ok(())
    }

    /// Truncate the log once `watermark` entries are resident. Runs on the
    /// appender, under the compartments write lock (the tail is still):
    /// bring every replica to the tail, then drop the prefix they have all
    /// applied — the replicas are the checkpoint. Lock order: compartments
    /// (held) → replica state → log entries.
    fn truncate_log(&self, watermark: u64) {
        let log = &self.oplog;
        if log.resident() < watermark {
            return;
        }
        let tail = log.tail();
        for replica in &self.replicas {
            replica.sync_to(log, tail);
        }
        log.truncate_to(tail);
    }

    /// Truncate now, whatever the resident length.
    #[cfg(test)]
    pub(crate) fn force_truncate(&self) {
        let _appender = self.compartments.write();
        self.truncate_log(0);
    }

    /// Create the unconfined root compartment and return its context.
    pub fn create_root_compartment(self: &Arc<Self>, name: &str) -> SthreadCtx {
        let id = CompartmentId(self.next_compartment.fetch_add(1, Ordering::Relaxed));
        {
            let mut comps = self.compartments.write();
            let policy = SecurityPolicy::unconfined();
            self.publish(Kernel::snapshot_of(id, &policy), None);
            comps.insert(id, CompartmentEntry::new(name, None, policy));
        }
        SthreadCtx::new(self.clone(), id, name)
    }

    /// Register a new child compartment. Validates the subset rule and
    /// instantiates the callgate grants carried by `policy`.
    pub(crate) fn register_child(
        &self,
        parent: CompartmentId,
        name: &str,
        policy: &SecurityPolicy,
        kind: ChildKind,
    ) -> Result<CompartmentId, WedgeError> {
        let mut comps = self.compartments.write();
        let parent_policy = &comps
            .get(&parent)
            .ok_or(WedgeError::UnknownCompartment(parent))?
            .policy;

        if kind == ChildKind::Sthread {
            parent_policy
                .validate_child(policy, &self.control.lock().transitions)
                .map_err(|detail| WedgeError::PrivilegeEscalation { detail })?;
            // Private tags can never be named in a grant. (Lock order:
            // compartments → segment shard.)
            for tag in policy.mem_grants().keys() {
                if let Some(seg) = self.shard(*tag).read().segments.get(tag) {
                    if seg.private {
                        return Err(WedgeError::PrivateTag(*tag));
                    }
                }
            }
        }

        // Inherit uid / fs_root from the parent when the child policy kept
        // the defaults (mirrors fork semantics).
        let mut child_policy = policy.clone();
        if child_policy.uid == Uid::ROOT && !parent_policy.uid.is_root() {
            child_policy.uid = parent_policy.uid;
        }
        if child_policy.fs_root == "/" && parent_policy.fs_root != "/" {
            child_policy.fs_root = parent_policy.fs_root.clone();
        }

        let id = CompartmentId(self.next_compartment.fetch_add(1, Ordering::Relaxed));

        // Instantiate callgate grants: the instance's permissions were
        // validated against the *creator* (the parent) above.
        {
            let mut control = self.control.lock();
            if let Some(unknown) = policy
                .callgate_grants()
                .iter()
                .find(|grant| !control.callgate_entries.contains_key(&grant.entry))
            {
                return Err(WedgeError::UnknownCallgate(unknown.entry));
            }
            for grant in policy.callgate_grants() {
                control.callgate_instances.insert(
                    (id, grant.entry),
                    CallgateInstance {
                        policy: grant.policy.clone(),
                        trusted: grant.trusted.clone(),
                        creator: parent,
                    },
                );
            }
        }

        // Publish the child's creation snapshot before the compartments
        // lock drops: replicas learn of the compartment strictly before
        // any context for it can issue a read.
        self.publish(Kernel::snapshot_of(id, &child_policy), None);
        comps.insert(id, CompartmentEntry::new(name, Some(parent), child_policy));
        match kind {
            ChildKind::Activation => StatCells::bump(&self.stats.callgate_invocations),
            ChildKind::Sthread | ChildKind::OwnedWorker => {
                StatCells::bump(&self.stats.sthreads_created)
            }
        }
        Ok(id)
    }

    /// Retire an exited compartment (the section comment lists what goes
    /// and what stays), linearised through the log like any other policy
    /// mutation: under the compartments write lock the entry is removed
    /// and `Retire` published through [`Kernel::publish`] (so a warm cache
    /// held by a leaked context notices). No access that starts after this
    /// returns succeeds, through any cache or replica.
    pub(crate) fn compartment_exited(&self, id: CompartmentId) {
        let entry = {
            let mut comps = self.compartments.write();
            let Some(entry) = comps.remove(&id) else {
                return;
            };
            self.publish(PolicyOp::Retire { target: id }, Some(&entry));
            entry
        };
        self.retired.fetch_add(1, Ordering::Relaxed);
        if entry.holds_state.into_inner() {
            self.release_segments(id, false);
        }
        let mut control = self.control.lock();
        for grant in entry.policy.callgate_grants() {
            control.callgate_instances.remove(&(id, grant.entry));
        }
        control.global_overlays.retain(|(c, _), _| *c != id);
        // Recycled workers this compartment created lose their slot: the
        // closed channel ends their loop and they retire themselves.
        control.recycled.retain(|(creator, _), _| *creator != id);
    }

    /// Change a compartment's uid and filesystem root. Only a caller whose
    /// own uid is root may do this — the idiom used by the OpenSSH
    /// authentication callgates ("the callgate, upon successful
    /// authentication, changes the worker's user ID and filesystem root").
    pub(crate) fn transition_identity(
        &self,
        caller: CompartmentId,
        target: CompartmentId,
        new_uid: Uid,
        new_fs_root: Option<&str>,
    ) -> Result<(), WedgeError> {
        self.mutate(|comps| {
            self.apply_transition_identity(comps, caller, target, new_uid, new_fs_root)
        })
    }

    fn apply_transition_identity(
        &self,
        comps: &mut HashMap<CompartmentId, CompartmentEntry>,
        caller: CompartmentId,
        target: CompartmentId,
        new_uid: Uid,
        new_fs_root: Option<&str>,
    ) -> Result<Option<PolicyOp>, WedgeError> {
        let caller_uid = comps
            .get(&caller)
            .ok_or(WedgeError::UnknownCompartment(caller))?
            .policy
            .uid;
        if !caller_uid.is_root() {
            return Err(WedgeError::IdentityDenied(format!(
                "caller uid {} is not root",
                caller_uid.0
            )));
        }
        let target_entry = comps
            .get_mut(&target)
            .ok_or(WedgeError::UnknownCompartment(target))?;
        target_entry.policy.uid = new_uid;
        if let Some(root) = new_fs_root {
            target_entry.policy.fs_root = root.to_string();
        }
        // Identity itself is not replicated (uid checks read the
        // authoritative table), but the snapshot keeps the "once this
        // returns, later reads revalidate" contract uniform across every
        // mutation kind.
        Ok(Some(Kernel::snapshot_of(target, &target_entry.policy)))
    }

    /// The uid a compartment currently runs as.
    pub fn uid_of(&self, id: CompartmentId) -> Result<Uid, WedgeError> {
        Ok(self.policy_of(id)?.uid)
    }

    /// Add a runtime memory grant to `target`'s policy (`policy_add`). The
    /// granter must itself hold a grant that allows delegating `prot` (or
    /// be unconfined), and private tags can never be named in another
    /// compartment's policy. The resulting grant is published to the log
    /// before this returns.
    pub(crate) fn policy_add(
        &self,
        caller: CompartmentId,
        target: CompartmentId,
        tag: Tag,
        prot: MemProt,
    ) -> Result<(), WedgeError> {
        self.mutate(|comps| self.apply_policy_add(comps, caller, target, tag, prot))
    }

    fn apply_policy_add(
        &self,
        comps: &mut HashMap<CompartmentId, CompartmentEntry>,
        caller: CompartmentId,
        target: CompartmentId,
        tag: Tag,
        prot: MemProt,
    ) -> Result<Option<PolicyOp>, WedgeError> {
        let caller_entry = comps
            .get(&caller)
            .ok_or(WedgeError::UnknownCompartment(caller))?;
        if !caller_entry.policy.is_unconfined() {
            match caller_entry.policy.mem_grant(tag) {
                Some(have) if have.allows_delegation_of(prot) => {}
                _ => {
                    return Err(WedgeError::PrivilegeEscalation {
                        detail: format!("runtime grant {tag}:{prot:?} exceeds caller's privileges"),
                    })
                }
            }
        }
        if caller != target {
            if let Some(seg) = self.shard(tag).read().segments.get(&tag) {
                if seg.private {
                    return Err(WedgeError::PrivateTag(tag));
                }
            }
        }
        let target_entry = comps
            .get_mut(&target)
            .ok_or(WedgeError::UnknownCompartment(target))?;
        if target_entry.policy.is_unconfined() {
            return Ok(None);
        }
        target_entry.policy.sc_mem_add(tag, prot);
        // Record the *resulting* grant read back from the table, so replay
        // is apply-only and cannot diverge.
        Ok(Some(PolicyOp::MemSet {
            target,
            tag,
            prot: target_entry.policy.mem_grant(tag),
        }))
    }

    /// Revoke a memory grant from `target`'s policy (`policy_del`). Allowed
    /// for the unconfined root, the target's parent, or the target itself.
    /// Once this returns, no access started afterwards can succeed through
    /// a stale cached grant: the revocation's log publication happens
    /// before the caller is released.
    pub(crate) fn policy_del(
        &self,
        caller: CompartmentId,
        target: CompartmentId,
        tag: Tag,
    ) -> Result<(), WedgeError> {
        self.mutate(|comps| self.apply_policy_del(comps, caller, target, tag))
    }

    fn apply_policy_del(
        &self,
        comps: &mut HashMap<CompartmentId, CompartmentEntry>,
        caller: CompartmentId,
        target: CompartmentId,
        tag: Tag,
    ) -> Result<Option<PolicyOp>, WedgeError> {
        let caller_unconfined = comps
            .get(&caller)
            .ok_or(WedgeError::UnknownCompartment(caller))?
            .policy
            .is_unconfined();
        let target_entry = comps
            .get_mut(&target)
            .ok_or(WedgeError::UnknownCompartment(target))?;
        if !(caller_unconfined || caller == target || target_entry.parent == Some(caller)) {
            return Err(WedgeError::PrivilegeEscalation {
                detail: format!("{caller} may not revoke grants from {target}"),
            });
        }
        target_entry.policy.sc_mem_del(tag);
        Ok(Some(PolicyOp::MemSet {
            target,
            tag,
            prot: None,
        }))
    }

    // ------------------------------------------------------------------
    // Tagged memory
    // ------------------------------------------------------------------

    /// `tag_new()`: create a tag backed by a (possibly recycled) segment and
    /// grant the creating compartment read-write access to it.
    pub(crate) fn tag_new(&self, caller: CompartmentId) -> Result<Tag, WedgeError> {
        self.tag_new_inner(caller, false)
    }

    fn tag_new_inner(&self, caller: CompartmentId, private: bool) -> Result<Tag, WedgeError> {
        let mut comps = self.compartments.write();
        let entry = comps
            .get_mut(&caller)
            .ok_or(WedgeError::UnknownCompartment(caller))?;
        self.tag_new_locked(caller, entry, private)
    }

    /// The body of `tag_new`, for callers already holding the compartments
    /// write lock (`entry` is the caller's table entry). Lock order:
    /// compartments (held) → tag cache / segment shard.
    fn tag_new_locked(
        &self,
        caller: CompartmentId,
        entry: &mut CompartmentEntry,
        private: bool,
    ) -> Result<Tag, WedgeError> {
        let segment = self
            .tag_cache
            .lock()
            .acquire_default()
            .map_err(|e| WedgeError::Alloc(e.to_string()))?;
        let tag = Tag(self.next_tag.fetch_add(1, Ordering::Relaxed));
        *entry.holds_state.get_mut() = true;
        self.shard(tag).write().segments.insert(
            tag,
            SegmentEntry {
                segment,
                owner: caller,
                private,
            },
        );
        StatCells::bump(&self.stats.tags_created);
        // The creator implicitly gains read-write access (it created the
        // region, exactly as mmap would map it into the caller).
        if !entry.policy.is_unconfined() {
            entry.policy.sc_mem_add(tag, MemProt::ReadWrite);
            let grant = PolicyOp::MemSet {
                target: caller,
                tag,
                prot: Some(MemProt::ReadWrite),
            };
            self.publish(grant, Some(entry));
        }
        Ok(tag)
    }

    /// `tag_delete()`: release a tag's segment back to the userland cache.
    pub(crate) fn tag_delete(&self, caller: CompartmentId, tag: Tag) -> Result<(), WedgeError> {
        // The caller's standing is read first (lock order: compartments
        // before segment shards), but reported second, matching the
        // pre-shard error precedence (unknown tag wins).
        let caller_unconfined = self
            .compartments
            .read()
            .get(&caller)
            .map(|c| c.policy.is_unconfined());
        let mut shard = self.shard(tag).write();
        let entry = shard
            .segments
            .get(&tag)
            .ok_or(WedgeError::UnknownTag(tag))?;
        // An exited caller may delete nothing, not even a tag it created.
        match caller_unconfined {
            None => return Err(WedgeError::UnknownCompartment(caller)),
            Some(false) if entry.owner != caller => {
                return Err(WedgeError::ProtectionFault {
                    compartment: caller,
                    tag,
                    mode: AccessMode::Write,
                })
            }
            Some(_) => {}
        }
        let entry = shard.segments.remove(&tag).expect("checked above");
        shard.overlays.retain(|(_, t), _| *t != tag);
        drop(shard);
        self.tag_cache.lock().release(entry.segment);
        StatCells::bump(&self.stats.tags_deleted);
        Ok(())
    }

    /// `smalloc()`: allocate from a tagged segment.
    pub(crate) fn smalloc(
        &self,
        caller: CompartmentId,
        size: usize,
        tag: Tag,
    ) -> Result<SBuf, WedgeError> {
        self.smalloc_cached(caller, size, tag, None)
    }

    pub(crate) fn smalloc_cached(
        &self,
        caller: CompartmentId,
        size: usize,
        tag: Tag,
        cache: Option<&Mutex<PermCache>>,
    ) -> Result<SBuf, WedgeError> {
        let grant = self.resolve_mem_grant(caller, tag, cache, StatKind::None)?;
        let event = {
            let mut shard = self.shard(tag).write();
            let entry = shard
                .segments
                .get_mut(&tag)
                .ok_or(WedgeError::UnknownTag(tag))?;
            match grant {
                Some(prot) if prot.permits(AccessMode::Write) || prot.permits(AccessMode::Read) => {
                }
                _ => {
                    return Err(WedgeError::ProtectionFault {
                        compartment: caller,
                        tag,
                        mode: AccessMode::Write,
                    })
                }
            }
            let private = entry.private;
            let offset = entry
                .segment
                .arena_mut()
                .alloc(size)
                .map_err(|e| WedgeError::Alloc(e.to_string()))?;
            if private {
                StatCells::bump(&self.stats.private_allocs);
            } else {
                StatCells::bump(&self.stats.smallocs);
            }
            AllocEvent {
                compartment: caller,
                tag,
                alloc_offset: offset,
                size,
                private,
            }
        };
        if let Some(tracer) = self.tracer() {
            tracer.on_alloc(&event);
        }
        Ok(SBuf::new(event.tag, event.alloc_offset, event.size))
    }

    /// Allocate from the caller's private (untagged) segment, creating it on
    /// first use. Private segments can never be granted to other
    /// compartments.
    pub(crate) fn private_alloc(
        &self,
        caller: CompartmentId,
        size: usize,
        cache: Option<&Mutex<PermCache>>,
    ) -> Result<SBuf, WedgeError> {
        // Check-and-create atomically under the compartments write lock:
        // two threads racing the first allocation must not each create a
        // private segment (the loser's would leak, unreachable, until the
        // next scrub).
        let tag = {
            let mut comps = self.compartments.write();
            let entry = comps
                .get_mut(&caller)
                .ok_or(WedgeError::UnknownCompartment(caller))?;
            match entry.private_tag {
                Some(tag) => tag,
                None => {
                    let tag = self.tag_new_locked(caller, entry, true)?;
                    entry.private_tag = Some(tag);
                    tag
                }
            }
        };
        self.smalloc_cached(caller, size, tag, cache)
    }

    /// `sfree()`: free an allocation.
    pub(crate) fn sfree(
        &self,
        caller: CompartmentId,
        buf: &SBuf,
        cache: Option<&Mutex<PermCache>>,
    ) -> Result<(), WedgeError> {
        let grant = self.resolve_mem_grant(caller, buf.tag, cache, StatKind::None)?;
        if grant.is_none() {
            return Err(WedgeError::ProtectionFault {
                compartment: caller,
                tag: buf.tag,
                mode: AccessMode::Write,
            });
        }
        let mut shard = self.shard(buf.tag).write();
        let entry = shard
            .segments
            .get_mut(&buf.tag)
            .ok_or(WedgeError::UnknownTag(buf.tag))?;
        entry
            .segment
            .arena_mut()
            .free(buf.offset)
            .map_err(|e| WedgeError::Alloc(e.to_string()))?;
        Ok(())
    }

    /// Record a violation and decide whether the access proceeds (emulation
    /// mode) or faults. A retired (or never-existing) `CompartmentId` has no
    /// name left to report: it is recorded as `<exited>`, is never emulated,
    /// and fails loudly with [`WedgeError::UnknownCompartment`].
    fn deny(
        &self,
        caller: CompartmentId,
        region: MemRegion,
        mode: AccessMode,
    ) -> Result<(), WedgeError> {
        let live_name = self.name_of(caller).ok();
        let exited = live_name.is_none();
        let emulated = !exited && self.emulation.load(Ordering::Relaxed);
        let name = live_name.unwrap_or_else(|| "<exited>".to_string());
        self.violations.lock().push(ViolationRecord {
            compartment: caller,
            compartment_name: name.clone(),
            region: region.clone(),
            mode,
            emulated,
        });
        if emulated {
            StatCells::bump(&self.stats.emulated_violations);
        } else {
            StatCells::bump(&self.stats.faults);
        }
        if let Some(telemetry) = self.telemetry.get() {
            telemetry.emit_with(|| TelemetryEvent::Violation {
                compartment: name.clone(),
                emulated,
            });
        }
        if let Some(tracer) = self.tracer() {
            tracer.on_violation(&ViolationEvent {
                compartment: caller,
                compartment_name: name,
                region: region.clone(),
                mode,
                emulated,
            });
        }
        if emulated {
            Ok(())
        } else if exited {
            Err(WedgeError::UnknownCompartment(caller))
        } else {
            match region {
                MemRegion::Tagged { tag, .. } => Err(WedgeError::ProtectionFault {
                    compartment: caller,
                    tag,
                    mode,
                }),
                MemRegion::Fd { fd, .. } => Err(WedgeError::FdFault {
                    compartment: caller,
                    fd,
                    mode,
                }),
                MemRegion::Global { .. } => Err(WedgeError::ProtectionFault {
                    compartment: caller,
                    tag: Tag(0),
                    mode,
                }),
            }
        }
    }

    /// Report an access to the tracer. The region (and the caller-name
    /// clone) is only constructed when a tracer is actually installed, so
    /// the untraced fast path allocates nothing here.
    fn emit_access(
        &self,
        caller: CompartmentId,
        region: impl FnOnce() -> MemRegion,
        offset: usize,
        len: usize,
        mode: AccessMode,
        allowed: bool,
    ) {
        let Some(tracer) = self.tracer() else { return };
        // A caller that retired since it was validated has no name left;
        // its denial is already in the violation log.
        let Ok(name) = self.name_of(caller) else {
            return;
        };
        tracer.on_access(&MemAccessEvent {
            compartment: caller,
            compartment_name: name,
            region: region(),
            offset,
            len,
            mode,
            allowed,
        });
    }

    /// The shared pre-shard pipeline for tagged accesses: resolve the grant
    /// (through the cache), record/deny violations, and bounds-check the
    /// request against the buffer — emitting an `allowed = false` trace
    /// event on every failing exit. Returns the grant plus whether the
    /// policy permitted the access (`false` only when emulation mode let a
    /// violation proceed). Keeping this single-sourced keeps the trace
    /// contract identical across reads, writes and borrowed guards.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    fn mem_access_check(
        &self,
        caller: CompartmentId,
        buf: &SBuf,
        offset: usize,
        len: usize,
        mode: AccessMode,
        cache: Option<&Mutex<PermCache>>,
        kind: StatKind,
    ) -> Result<(Option<MemProt>, bool), WedgeError> {
        let region = MemRegion::Tagged {
            tag: buf.tag,
            alloc_offset: buf.offset,
        };
        // The only way this fails is an exited caller, whose attempt is
        // recorded as a denial before the `UnknownCompartment` goes back.
        let grant = self
            .resolve_mem_grant(caller, buf.tag, cache, kind)
            .inspect_err(|_| {
                let _ = self.deny(caller, region.clone(), mode);
            })?;
        let permitted = grant.map(|g| g.permits(mode)).unwrap_or(false);
        if !permitted {
            if let Err(e) = self.deny(caller, region.clone(), mode) {
                self.emit_access(caller, || region, offset, len, mode, false);
                return Err(e);
            }
        }
        if offset
            .checked_add(len)
            .map(|end| end > buf.len)
            .unwrap_or(true)
        {
            self.emit_access(caller, || region, offset, len, mode, false);
            return Err(WedgeError::OutOfBounds {
                tag: buf.tag,
                offset: buf.offset + offset,
                len,
            });
        }
        Ok((grant, permitted))
    }

    /// The shared permission/bounds pipeline for tagged reads: on success,
    /// `sink` is invoked exactly once with the source bytes, under the
    /// shard's read lock. Denied and out-of-bounds exits always produce a
    /// trace event (allowed = false) before returning the error.
    fn mem_read_core(
        &self,
        caller: CompartmentId,
        buf: &SBuf,
        offset: usize,
        len: usize,
        cache: Option<&Mutex<PermCache>>,
        sink: impl FnOnce(&[u8]),
    ) -> Result<(), WedgeError> {
        let region = MemRegion::Tagged {
            tag: buf.tag,
            alloc_offset: buf.offset,
        };
        let (_, permitted) = self.mem_access_check(
            caller,
            buf,
            offset,
            len,
            AccessMode::Read,
            cache,
            StatKind::MemRead,
        )?;
        let start = buf.offset + offset;
        {
            let shard = self.shard(buf.tag).read();
            let Some(entry) = shard.segments.get(&buf.tag) else {
                drop(shard);
                self.emit_access(caller, || region, offset, len, AccessMode::Read, false);
                return Err(WedgeError::UnknownTag(buf.tag));
            };
            // One pass validates the allocation is live and yields its bytes.
            let Some(alloc) = entry.segment.arena().live_slice(buf.offset, buf.len) else {
                drop(shard);
                self.emit_access(caller, || region, offset, len, AccessMode::Read, false);
                return Err(WedgeError::OutOfBounds {
                    tag: buf.tag,
                    offset: buf.offset,
                    len: buf.len,
                });
            };
            // Copy-on-write view: if this compartment has a private overlay
            // for the tag, reads come from it. The emptiness check keeps the
            // common no-overlay case free of a second map lookup.
            let overlay = if shard.overlays.is_empty() {
                None
            } else {
                shard.overlays.get(&(caller, buf.tag))
            };
            if let Some(overlay) = overlay {
                sink(&overlay[start..start + len]);
            } else {
                sink(&alloc[offset..offset + len]);
            }
        }
        self.emit_access(caller, || region, offset, len, AccessMode::Read, permitted);
        Ok(())
    }

    /// Read `len` bytes at `offset` within a tagged buffer.
    #[cfg_attr(not(test), allow(dead_code))] // uncached convenience, exercised by unit tests
    pub(crate) fn mem_read(
        &self,
        caller: CompartmentId,
        buf: &SBuf,
        offset: usize,
        len: usize,
    ) -> Result<Vec<u8>, WedgeError> {
        self.mem_read_vec(caller, buf, offset, len, None)
    }

    /// [`Kernel::mem_read`] through a per-sthread permission cache.
    pub(crate) fn mem_read_vec(
        &self,
        caller: CompartmentId,
        buf: &SBuf,
        offset: usize,
        len: usize,
        cache: Option<&Mutex<PermCache>>,
    ) -> Result<Vec<u8>, WedgeError> {
        let mut out = Vec::new();
        self.mem_read_core(caller, buf, offset, len, cache, |src| {
            out.extend_from_slice(src)
        })?;
        Ok(out)
    }

    /// Zero-copy read: fill `dst` from the tagged buffer. With a warm
    /// permission cache and no tracer installed this performs no heap
    /// allocation at all.
    #[inline]
    pub(crate) fn mem_read_into(
        &self,
        caller: CompartmentId,
        buf: &SBuf,
        offset: usize,
        dst: &mut [u8],
        cache: Option<&Mutex<PermCache>>,
    ) -> Result<(), WedgeError> {
        self.mem_read_core(caller, buf, offset, dst.len(), cache, |src| {
            dst.copy_from_slice(src)
        })
    }

    /// Borrowed zero-copy read: returns a guard dereferencing to the bytes,
    /// holding the segment shard's read lock for its lifetime.
    pub(crate) fn mem_read_guard(
        &self,
        caller: CompartmentId,
        buf: &SBuf,
        offset: usize,
        len: usize,
        cache: Option<&Mutex<PermCache>>,
    ) -> Result<MemReadGuard<'_>, WedgeError> {
        let region = MemRegion::Tagged {
            tag: buf.tag,
            alloc_offset: buf.offset,
        };
        let (_, permitted) = self.mem_access_check(
            caller,
            buf,
            offset,
            len,
            AccessMode::Read,
            cache,
            StatKind::MemRead,
        )?;
        // Resolve the tracer + name BEFORE taking the shard lock: the lock
        // order is compartments → segment shard, and the event must be
        // emitted while the guard pins the shard.
        let traced = match self.tracer() {
            Some(tracer) => Some((tracer, self.name_of(caller)?)),
            None => None,
        };
        let shard = self.shard(buf.tag).read();
        let live = shard
            .segments
            .get(&buf.tag)
            .map(|e| e.segment.arena().contains_live_range(buf.offset, buf.len));
        match live {
            None => {
                drop(shard);
                self.emit_access(caller, || region, offset, len, AccessMode::Read, false);
                return Err(WedgeError::UnknownTag(buf.tag));
            }
            Some(false) => {
                drop(shard);
                self.emit_access(caller, || region, offset, len, AccessMode::Read, false);
                return Err(WedgeError::OutOfBounds {
                    tag: buf.tag,
                    offset: buf.offset,
                    len: buf.len,
                });
            }
            Some(true) => {}
        }
        let overlay = shard
            .overlays
            .contains_key(&(caller, buf.tag))
            .then_some((caller, buf.tag));
        if let Some((tracer, name)) = traced {
            tracer.on_access(&MemAccessEvent {
                compartment: caller,
                compartment_name: name,
                region,
                offset,
                len,
                mode: AccessMode::Read,
                allowed: permitted,
            });
        }
        Ok(MemReadGuard {
            shard,
            overlay,
            tag: buf.tag,
            start: buf.offset + offset,
            len,
        })
    }

    /// Write `data` at `offset` within a tagged buffer.
    pub(crate) fn mem_write(
        &self,
        caller: CompartmentId,
        buf: &SBuf,
        offset: usize,
        data: &[u8],
    ) -> Result<(), WedgeError> {
        self.mem_write_cached(caller, buf, offset, data, None)
    }

    /// [`Kernel::mem_write`] through a per-sthread permission cache.
    pub(crate) fn mem_write_cached(
        &self,
        caller: CompartmentId,
        buf: &SBuf,
        offset: usize,
        data: &[u8],
        cache: Option<&Mutex<PermCache>>,
    ) -> Result<(), WedgeError> {
        let region = MemRegion::Tagged {
            tag: buf.tag,
            alloc_offset: buf.offset,
        };
        let (grant, permitted) = self.mem_access_check(
            caller,
            buf,
            offset,
            data.len(),
            AccessMode::Write,
            cache,
            StatKind::MemWrite,
        )?;
        let writes_shared = grant.map(|g| g.writes_shared()).unwrap_or(true);
        if !writes_shared {
            // This write may materialise an overlay retirement must find.
            // (Marked before the shard lock: compartments → segment shard.)
            if let Some(entry) = self.compartments.read().get(&caller) {
                entry.holds_state.store(true, Ordering::Relaxed);
            }
        }
        let start = buf.offset + offset;
        {
            let mut shard = self.shard(buf.tag).write();
            let SegmentShard { segments, overlays } = &mut *shard;
            let Some(entry) = segments.get_mut(&buf.tag) else {
                drop(shard);
                self.emit_access(
                    caller,
                    || region,
                    offset,
                    data.len(),
                    AccessMode::Write,
                    false,
                );
                return Err(WedgeError::UnknownTag(buf.tag));
            };
            // Liveness covers both branches: a copy-on-write holder must not
            // write through a freed allocation either.
            if !entry
                .segment
                .arena()
                .contains_live_range(buf.offset, buf.len)
            {
                drop(shard);
                self.emit_access(
                    caller,
                    || region,
                    offset,
                    data.len(),
                    AccessMode::Write,
                    false,
                );
                return Err(WedgeError::OutOfBounds {
                    tag: buf.tag,
                    offset: buf.offset,
                    len: buf.len,
                });
            }
            if writes_shared {
                entry.segment.arena_mut().data_mut()[start..start + data.len()]
                    .copy_from_slice(data);
            } else {
                // Copy-on-write: materialise the overlay on first write.
                let overlay = overlays
                    .entry((caller, buf.tag))
                    .or_insert_with(|| entry.segment.arena().data().to_vec());
                overlay[start..start + data.len()].copy_from_slice(data);
            }
        }
        self.emit_access(
            caller,
            || region,
            offset,
            data.len(),
            AccessMode::Write,
            permitted,
        );
        Ok(())
    }

    /// Is the tag private (backing untagged allocations)?
    pub fn is_private_tag(&self, tag: Tag) -> bool {
        self.shard(tag)
            .read()
            .segments
            .get(&tag)
            .map(|s| s.private)
            .unwrap_or(false)
    }

    // ------------------------------------------------------------------
    // Globals and boundary variables (the pre-main snapshot)
    // ------------------------------------------------------------------

    /// Register a global variable as part of the pre-`main` snapshot. Every
    /// compartment receives a copy-on-write view of it by default.
    pub fn register_global(&self, name: &str, initial: &[u8]) {
        self.control.lock().globals.insert(
            name.to_string(),
            GlobalVar {
                initial: initial.to_vec(),
                boundary: None,
            },
        );
    }

    /// Declare a global with `BOUNDARY_VAR`: the variable is carved out of
    /// the snapshot and placed in tagged memory shared by all globals with
    /// the same `boundary_id`. Compartments need an explicit grant on the
    /// boundary tag to touch it.
    pub(crate) fn boundary_var(
        &self,
        caller: CompartmentId,
        name: &str,
        initial: &[u8],
        boundary_id: u32,
    ) -> Result<SBuf, WedgeError> {
        let existing = self.control.lock().boundary_tags.get(&boundary_id).copied();
        let tag = match existing {
            Some(tag) => tag,
            None => {
                let tag = self.tag_new(caller)?;
                self.control.lock().boundary_tags.insert(boundary_id, tag);
                tag
            }
        };
        let buf = self.smalloc(caller, initial.len().max(1), tag)?;
        self.mem_write(caller, &buf, 0, initial)?;
        self.control.lock().globals.insert(
            name.to_string(),
            GlobalVar {
                initial: initial.to_vec(),
                boundary: Some((boundary_id, buf)),
            },
        );
        Ok(buf)
    }

    /// `BOUNDARY_TAG`: the tag protecting all globals declared with the
    /// given boundary id.
    pub fn boundary_tag(&self, boundary_id: u32) -> Result<Tag, WedgeError> {
        self.control
            .lock()
            .boundary_tags
            .get(&boundary_id)
            .copied()
            .ok_or_else(|| WedgeError::UnknownGlobal(format!("boundary {boundary_id}")))
    }

    /// The tagged buffer behind a boundary global.
    pub fn boundary_buf(&self, name: &str) -> Result<SBuf, WedgeError> {
        let control = self.control.lock();
        let var = control
            .globals
            .get(name)
            .ok_or_else(|| WedgeError::UnknownGlobal(name.to_string()))?;
        var.boundary
            .map(|(_, buf)| buf)
            .ok_or_else(|| WedgeError::UnknownGlobal(format!("{name} is not a boundary var")))
    }

    /// Read a snapshot global. Ordinary globals are readable by every
    /// compartment (each sees its own COW view); boundary globals must be
    /// read through their tag instead.
    pub(crate) fn global_read(
        &self,
        caller: CompartmentId,
        name: &str,
        cache: Option<&Mutex<PermCache>>,
    ) -> Result<Vec<u8>, WedgeError> {
        // A dangling caller fails loudly instead of tracing as "".
        if !self.compartments.read().contains_key(&caller) {
            return Err(WedgeError::UnknownCompartment(caller));
        }
        let data = {
            let control = self.control.lock();
            let var = control
                .globals
                .get(name)
                .ok_or_else(|| WedgeError::UnknownGlobal(name.to_string()))?;
            if let Some((_, buf)) = var.boundary {
                drop(control);
                return self.mem_read_vec(caller, &buf, 0, buf.len, cache);
            }
            control
                .global_overlays
                .get(&(caller, name.to_string()))
                .cloned()
                .unwrap_or_else(|| var.initial.clone())
        };
        self.emit_access(
            caller,
            || MemRegion::Global {
                name: name.to_string(),
            },
            0,
            data.len(),
            AccessMode::Read,
            true,
        );
        Ok(data)
    }

    /// Write a snapshot global. Writes always go to the calling
    /// compartment's private COW view (the snapshot itself is immutable
    /// after `main` starts).
    pub(crate) fn global_write(
        &self,
        caller: CompartmentId,
        name: &str,
        value: &[u8],
        cache: Option<&Mutex<PermCache>>,
    ) -> Result<(), WedgeError> {
        match self.compartments.read().get(&caller) {
            Some(entry) => entry.holds_state.store(true, Ordering::Relaxed),
            None => return Err(WedgeError::UnknownCompartment(caller)),
        }
        {
            let mut control = self.control.lock();
            let var = control
                .globals
                .get(name)
                .ok_or_else(|| WedgeError::UnknownGlobal(name.to_string()))?;
            if let Some((_, buf)) = var.boundary {
                drop(control);
                return self.mem_write_cached(caller, &buf, 0, value, cache);
            }
            control
                .global_overlays
                .insert((caller, name.to_string()), value.to_vec());
        }
        self.emit_access(
            caller,
            || MemRegion::Global {
                name: name.to_string(),
            },
            0,
            value.len(),
            AccessMode::Write,
            true,
        );
        Ok(())
    }

    // ------------------------------------------------------------------
    // File descriptors
    // ------------------------------------------------------------------

    /// Create a file-backed descriptor and grant the creator read-write
    /// access to it.
    pub(crate) fn fd_create_file(
        &self,
        caller: CompartmentId,
        name: &str,
        data: Vec<u8>,
    ) -> Result<FdId, WedgeError> {
        self.fd_create(caller, FdEntry::file(name, data))
    }

    /// Create a stream-backed descriptor and grant the creator read-write
    /// access to it.
    pub(crate) fn fd_create_stream(
        &self,
        caller: CompartmentId,
        name: &str,
    ) -> Result<FdId, WedgeError> {
        self.fd_create(caller, FdEntry::stream(name))
    }

    fn fd_create(&self, caller: CompartmentId, entry: FdEntry) -> Result<FdId, WedgeError> {
        let mut comps = self.compartments.write();
        let comp = comps
            .get_mut(&caller)
            .ok_or(WedgeError::UnknownCompartment(caller))?;
        let fd = FdId(self.next_fd.fetch_add(1, Ordering::Relaxed));
        *comp.holds_state.get_mut() = true;
        self.fds.write().insert(fd, entry);
        self.fd_owners.lock().insert(fd, caller);
        if !comp.policy.is_unconfined() {
            comp.policy.sc_fd_add(fd, FdProt::ReadWrite);
            let grant = PolicyOp::FdSet {
                target: caller,
                fd,
                prot: Some(FdProt::ReadWrite),
            };
            self.publish(grant, Some(comp));
        }
        Ok(fd)
    }

    /// [`Kernel::resolve_fd_grant`] for the descriptor data path, recording
    /// an exited caller's attempt as [`Kernel::mem_access_check`] does.
    fn fd_grant_or_deny(
        &self,
        caller: CompartmentId,
        fd: FdId,
        cache: Option<&Mutex<PermCache>>,
        count: StatKind,
        mode: AccessMode,
    ) -> Result<Option<FdProt>, WedgeError> {
        self.resolve_fd_grant(caller, fd, cache, count)
            .inspect_err(|_| {
                let name = self.fds.read().get(&fd).map(FdEntry::name);
                let name = name.unwrap_or_default();
                let _ = self.deny(caller, MemRegion::Fd { fd, name }, mode);
            })
    }

    /// Read up to `len` bytes from a descriptor.
    #[cfg_attr(not(test), allow(dead_code))] // uncached convenience, exercised by unit tests
    pub(crate) fn fd_read(
        &self,
        caller: CompartmentId,
        fd: FdId,
        len: usize,
    ) -> Result<Vec<u8>, WedgeError> {
        self.fd_read_cached(caller, fd, len, None)
    }

    /// [`Kernel::fd_read`] through a per-sthread permission cache.
    pub(crate) fn fd_read_cached(
        &self,
        caller: CompartmentId,
        fd: FdId,
        len: usize,
        cache: Option<&Mutex<PermCache>>,
    ) -> Result<Vec<u8>, WedgeError> {
        let grant = self.fd_grant_or_deny(caller, fd, cache, StatKind::FdRead, AccessMode::Read)?;
        let entry = self
            .fds
            .read()
            .get(&fd)
            .cloned()
            .ok_or(WedgeError::UnknownFd(fd))?;
        let permitted = grant.map(|g| g.can_read()).unwrap_or(false);
        if !permitted {
            let region = MemRegion::Fd {
                fd,
                name: entry.name(),
            };
            if let Err(e) = self.deny(caller, region.clone(), AccessMode::Read) {
                self.emit_access(caller, || region, 0, len, AccessMode::Read, false);
                return Err(e);
            }
        }
        let data = entry.read(len);
        self.emit_access(
            caller,
            || MemRegion::Fd {
                fd,
                name: entry.name(),
            },
            0,
            data.len(),
            AccessMode::Read,
            permitted,
        );
        Ok(data)
    }

    /// Write bytes to a descriptor.
    #[cfg_attr(not(test), allow(dead_code))] // uncached convenience, exercised by unit tests
    pub(crate) fn fd_write(
        &self,
        caller: CompartmentId,
        fd: FdId,
        data: &[u8],
    ) -> Result<usize, WedgeError> {
        self.fd_write_cached(caller, fd, data, None)
    }

    /// [`Kernel::fd_write`] through a per-sthread permission cache.
    pub(crate) fn fd_write_cached(
        &self,
        caller: CompartmentId,
        fd: FdId,
        data: &[u8],
        cache: Option<&Mutex<PermCache>>,
    ) -> Result<usize, WedgeError> {
        let grant =
            self.fd_grant_or_deny(caller, fd, cache, StatKind::FdWrite, AccessMode::Write)?;
        let entry = self
            .fds
            .read()
            .get(&fd)
            .cloned()
            .ok_or(WedgeError::UnknownFd(fd))?;
        let permitted = grant.map(|g| g.can_write()).unwrap_or(false);
        if !permitted {
            let region = MemRegion::Fd {
                fd,
                name: entry.name(),
            };
            if let Err(e) = self.deny(caller, region.clone(), AccessMode::Write) {
                self.emit_access(caller, || region, 0, data.len(), AccessMode::Write, false);
                return Err(e);
            }
        }
        let written = entry.write(data);
        self.emit_access(
            caller,
            || MemRegion::Fd {
                fd,
                name: entry.name(),
            },
            0,
            data.len(),
            AccessMode::Write,
            permitted,
        );
        Ok(written)
    }

    // ------------------------------------------------------------------
    // Syscalls
    // ------------------------------------------------------------------

    /// Check a syscall against the caller's allow-list.
    pub(crate) fn syscall_check(
        &self,
        caller: CompartmentId,
        syscall: Syscall,
    ) -> Result<(), WedgeError> {
        let comps = self.compartments.read();
        let policy = &comps
            .get(&caller)
            .ok_or(WedgeError::UnknownCompartment(caller))?
            .policy;
        if policy.is_unconfined() || policy.syscalls.permits(syscall) {
            Ok(())
        } else {
            Err(WedgeError::SyscallDenied {
                compartment: caller,
                syscall,
            })
        }
    }

    // ------------------------------------------------------------------
    // Callgates
    // ------------------------------------------------------------------

    /// Register a callgate entry point (program text). Returns the id used
    /// in `sc_cgate_add` and `cgate`.
    pub fn cgate_register(&self, name: &str, entry: CallgateFn) -> CgEntryId {
        let mut control = self.control.lock();
        let id = CgEntryId(control.next_entry);
        control.next_entry += 1;
        control
            .callgate_entries
            .insert(id, (name.to_string(), entry));
        id
    }

    /// The human-readable name of a callgate entry point.
    pub fn cgate_name(&self, entry: CgEntryId) -> Option<String> {
        self.control
            .lock()
            .callgate_entries
            .get(&entry)
            .map(|(n, _)| n.clone())
    }

    /// Validate an invocation and return what the caller needs to run it:
    /// the entry function, the instance's policy (the caller merges its
    /// `extra` argument-reading grants in when it spawns an activation),
    /// the trusted argument and the instance creator. Nothing is cloned but
    /// reference counts; `extra` is checked against the caller's table
    /// entry in place, and not at all when it carries no grants.
    pub(crate) fn cgate_prepare(
        &self,
        caller: CompartmentId,
        entry: CgEntryId,
        extra: &SecurityPolicy,
        recycled: bool,
    ) -> Result<PreparedCall, WedgeError> {
        // Lock order: compartments → control.
        let has_extra = !(extra.mem_grants().is_empty() && extra.fd_grants().is_empty());
        let comps = has_extra.then(|| self.compartments.read());
        let caller_entry = comps
            .as_ref()
            .map(|c| c.get(&caller).ok_or(WedgeError::UnknownCompartment(caller)))
            .transpose()?;
        let control = self.control.lock();
        let instance =
            control
                .callgate_instances
                .get(&(caller, entry))
                .ok_or(WedgeError::CallgateDenied {
                    compartment: caller,
                    entry,
                })?;
        // The extra, argument-accessing permissions must be a subset of the
        // caller's current permissions (§4.1).
        if let Some(detail) = caller_entry.and_then(|e| e.policy.undelegable_grant(extra)) {
            return Err(WedgeError::PrivilegeEscalation { detail });
        }
        let (_, entry_fn) = control
            .callgate_entries
            .get(&entry)
            .cloned()
            .ok_or(WedgeError::UnknownCallgate(entry))?;
        if recycled {
            StatCells::bump(&self.stats.recycled_invocations);
        }
        Ok(PreparedCall {
            entry_fn,
            policy: instance.policy.clone(),
            trusted: instance.trusted.clone(),
            creator: instance.creator,
        })
    }

    /// Zeroize a compartment's per-principal state: **every** segment it
    /// created (its private scratch and any tags it made with `tag_new`) is
    /// wiped and recycled, every descriptor it created is removed from the
    /// fd table, its copy-on-write views of tagged memory and snapshot
    /// globals are dropped, and its policy is reset to `baseline` (the
    /// spawn-time policy), undoing the implicit grants `tag_new` /
    /// `fd_create` accumulate. Used between principals on recycled
    /// workers — the §3.3 residue a reused compartment could otherwise leak
    /// to the next caller. The policy reset's log snapshot invalidates
    /// every cached grant the worker accumulated before the scrub.
    ///
    /// A scrub costs what it finds: a compartment no op has named since
    /// its policy last was the baseline, and that owns no state, has
    /// nothing to undo — nothing is published and no shard is locked.
    pub(crate) fn scrub_compartment(
        &self,
        id: CompartmentId,
        baseline: &SecurityPolicy,
    ) -> Result<(), WedgeError> {
        let clean = {
            let comps = self.compartments.read();
            let entry = comps.get(&id).ok_or(WedgeError::UnknownCompartment(id))?;
            entry.version_cell.load(Ordering::SeqCst) == entry.scrubbed_at
                && !entry.holds_state.load(Ordering::Relaxed)
        };
        if !clean {
            self.scrub_state(id, baseline)?;
        }
        StatCells::bump(&self.stats.private_scrubs);
        if let Some(telemetry) = self.telemetry.get() {
            telemetry.emit_with(|| TelemetryEvent::Scrub {
                compartment: self.name_of(id).unwrap_or_default(),
            });
        }
        Ok(())
    }

    /// The working half of a scrub, for a compartment that kept something.
    fn scrub_state(&self, id: CompartmentId, baseline: &SecurityPolicy) -> Result<(), WedgeError> {
        {
            let mut comps = self.compartments.write();
            let entry = comps
                .get_mut(&id)
                .ok_or(WedgeError::UnknownCompartment(id))?;
            entry.private_tag = None;
            entry.policy = baseline.clone();
            *entry.holds_state.get_mut() = false;
            self.publish(Kernel::snapshot_of(id, &entry.policy), Some(entry));
            entry.scrubbed_at = entry.version_cell.load(Ordering::SeqCst);
        }
        self.release_segments(id, true);
        // Descriptors the principal created go too — their buffered bytes
        // are per-principal state the next principal must not inherit.
        let owned_fds: Vec<FdId> = {
            let owners = self.fd_owners.lock();
            owners
                .iter()
                .filter(|(_, owner)| **owner == id)
                .map(|(fd, _)| *fd)
                .collect()
        };
        if !owned_fds.is_empty() {
            let mut fds = self.fds.write();
            let mut owners = self.fd_owners.lock();
            for fd in owned_fds {
                fds.remove(&fd);
                owners.remove(&fd);
            }
        }
        self.control
            .lock()
            .global_overlays
            .retain(|(c, _), _| *c != id);
        Ok(())
    }

    /// The shard cleanup scrub and retirement share: wipe and recycle the
    /// segments `id` created — all of them for a scrub (`created_tags`),
    /// only its private scratch at retirement (tags it made may have been
    /// granted on) — and drop its copy-on-write views of tagged memory.
    fn release_segments(&self, id: CompartmentId, created_tags: bool) {
        for shard in &self.segment_shards {
            let mut shard = shard.write();
            let owned: Vec<Tag> = shard
                .segments
                .iter()
                .filter(|(_, seg)| seg.owner == id && (created_tags || seg.private))
                .map(|(tag, _)| *tag)
                .collect();
            for tag in owned {
                if let Some(mut seg) = shard.segments.remove(&tag) {
                    // The tag cache only scrubs on *reuse*; zero eagerly so
                    // the parked segment never holds the previous
                    // principal's bytes.
                    seg.segment.arena_mut().data_mut().fill(0);
                    self.tag_cache.lock().release(seg.segment);
                    StatCells::bump(&self.stats.tags_deleted);
                }
                shard.overlays.retain(|(_, t), _| *t != tag);
            }
            shard.overlays.retain(|(c, _), _| *c != id);
        }
    }

    /// The registered entry function of a callgate (owned-worker spawning).
    pub(crate) fn cgate_entry_fn(&self, entry: CgEntryId) -> Option<CallgateFn> {
        self.control
            .lock()
            .callgate_entries
            .get(&entry)
            .map(|(_, f)| f.clone())
    }

    /// Count one recycled-callgate invocation (owned workers invoke without
    /// going through `cgate_prepare`, so they account here instead).
    pub(crate) fn note_recycled_invocation(&self) {
        StatCells::bump(&self.stats.recycled_invocations);
    }

    /// Count one recycled-sthread run (`kernel.sthreads.recycled_runs`):
    /// with `kernel.sthreads`, which counts the workers' creations, every
    /// sthread body that ran is accounted for.
    pub(crate) fn note_recycled_run(&self) {
        if let Some(runs) = self.recycled_runs.get() {
            runs.incr();
        }
    }

    /// Shut down every recycled-callgate worker (slot dropped, loop ended
    /// by the closed channel, compartment retired). The workers hold this
    /// kernel and this kernel holds them: a server that is done calls this
    /// to break the cycle. A later `cgate_recycled` starts a fresh worker.
    pub fn shutdown_recycled_workers(&self) {
        self.control.lock().recycled.clear();
    }

    /// Look up an existing recycled worker for `(caller, entry)`.
    pub(crate) fn recycled_worker(
        &self,
        caller: CompartmentId,
        entry: CgEntryId,
    ) -> Option<Arc<RecycledWorker>> {
        self.control.lock().recycled.get(&(caller, entry)).cloned()
    }

    /// Store a newly created recycled worker.
    pub(crate) fn store_recycled_worker(
        &self,
        caller: CompartmentId,
        entry: CgEntryId,
        worker: Arc<RecycledWorker>,
    ) {
        self.control.lock().recycled.insert((caller, entry), worker);
    }

    /// Merge additional grants into an existing compartment's policy (used
    /// by recycled callgates, which trade some isolation for speed).
    pub(crate) fn widen_policy(&self, id: CompartmentId, extra: &SecurityPolicy) {
        // A widening that widens nothing (the common case: no extra grants
        // at all) publishes nothing. An unknown id is ignored, as below.
        match self.compartments.read().get(&id) {
            Some(c) if !c.policy.covers_grants(extra) => {}
            _ => return,
        }
        // A compartment retired since the check above is ignored too, so
        // the mutation cannot fail.
        let _ = self.mutate(|comps| Ok(self.apply_widen_policy(comps, id, extra)));
    }

    fn apply_widen_policy(
        &self,
        comps: &mut HashMap<CompartmentId, CompartmentEntry>,
        id: CompartmentId,
        extra: &SecurityPolicy,
    ) -> Option<PolicyOp> {
        let c = comps.get_mut(&id)?;
        c.policy.merge_grants(extra);
        Some(Kernel::snapshot_of(id, &c.policy))
    }

    /// Emit a function-boundary event to the tracer (used for Crowbar's
    /// shadow backtraces).
    pub(crate) fn emit_call(&self, compartment: CompartmentId, function: &str, entering: bool) {
        if let Some(tracer) = self.tracer() {
            tracer.on_call(&CallEvent {
                compartment,
                function: function.to_string(),
                entering,
            });
        }
    }

    /// Emit a free event to the tracer.
    pub(crate) fn emit_free(&self, compartment: CompartmentId, tag: Tag, alloc_offset: usize) {
        if let Some(tracer) = self.tracer() {
            tracer.on_free(compartment, tag, alloc_offset);
        }
    }
}

#[cfg(test)]
#[path = "prop_truncation.rs"]
mod prop_truncation;

#[cfg(test)]
mod tests {
    use super::*;

    fn kernel_and_root() -> (Arc<Kernel>, SthreadCtx) {
        let kernel = Arc::new(Kernel::new());
        let root = kernel.create_root_compartment("root");
        (kernel, root)
    }

    #[test]
    fn tag_new_grants_creator_rw() {
        let (kernel, root) = kernel_and_root();
        let tag = kernel.tag_new(root.id()).unwrap();
        let buf = kernel.smalloc(root.id(), 16, tag).unwrap();
        kernel.mem_write(root.id(), &buf, 0, b"abcd").unwrap();
        assert_eq!(kernel.mem_read(root.id(), &buf, 0, 4).unwrap(), b"abcd");
        assert_eq!(kernel.stats().tags_created, 1);
    }

    #[test]
    fn unknown_tag_is_reported() {
        let (kernel, root) = kernel_and_root();
        assert!(matches!(
            kernel.smalloc(root.id(), 8, Tag(999)),
            Err(WedgeError::UnknownTag(Tag(999)))
        ));
    }

    #[test]
    fn out_of_bounds_reads_rejected() {
        let (kernel, root) = kernel_and_root();
        let tag = kernel.tag_new(root.id()).unwrap();
        let buf = kernel.smalloc(root.id(), 8, tag).unwrap();
        assert!(matches!(
            kernel.mem_read(root.id(), &buf, 4, 8),
            Err(WedgeError::OutOfBounds { .. })
        ));
        assert!(matches!(
            kernel.mem_write(root.id(), &buf, 7, b"toolong"),
            Err(WedgeError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn tag_delete_recycles_segment() {
        let (kernel, root) = kernel_and_root();
        let tag = kernel.tag_new(root.id()).unwrap();
        kernel.tag_delete(root.id(), tag).unwrap();
        assert!(matches!(
            kernel.smalloc(root.id(), 8, tag),
            Err(WedgeError::UnknownTag(_))
        ));
        // A subsequent tag_new reuses the cached segment (generation > 1 is
        // internal, but the stats show no extra mmap).
        let _tag2 = kernel.tag_new(root.id()).unwrap();
        assert_eq!(kernel.stats().tags_created, 2);
        assert_eq!(kernel.stats().tags_deleted, 1);
    }

    #[test]
    fn globals_have_per_compartment_cow_views() {
        let (kernel, root) = kernel_and_root();
        kernel.register_global("config", b"initial");
        assert_eq!(
            kernel.global_read(root.id(), "config", None).unwrap(),
            b"initial"
        );
        kernel
            .global_write(root.id(), "config", b"changed", None)
            .unwrap();
        assert_eq!(
            kernel.global_read(root.id(), "config", None).unwrap(),
            b"changed"
        );

        // A second compartment still sees the pristine snapshot value.
        let child = kernel
            .register_child(
                root.id(),
                "child",
                &SecurityPolicy::deny_all(),
                ChildKind::Sthread,
            )
            .unwrap();
        assert_eq!(
            kernel.global_read(child, "config", None).unwrap(),
            b"initial"
        );
    }

    #[test]
    fn unknown_global_is_an_error() {
        let (kernel, root) = kernel_and_root();
        assert!(matches!(
            kernel.global_read(root.id(), "nope", None),
            Err(WedgeError::UnknownGlobal(_))
        ));
    }

    #[test]
    fn dangling_compartment_fails_loudly_not_as_empty_name() {
        let (kernel, _root) = kernel_and_root();
        kernel.register_global("config", b"x");
        let ghost = CompartmentId(9999);
        assert!(matches!(
            kernel.global_read(ghost, "config", None),
            Err(WedgeError::UnknownCompartment(CompartmentId(9999)))
        ));
        assert!(matches!(
            kernel.global_write(ghost, "config", b"y", None),
            Err(WedgeError::UnknownCompartment(_))
        ));
        let buf = SBuf::new(Tag(1), 0, 4);
        assert!(matches!(
            kernel.mem_read(ghost, &buf, 0, 4),
            Err(WedgeError::UnknownCompartment(_))
        ));
        assert!(matches!(
            kernel.mem_write(ghost, &buf, 0, b"abcd"),
            Err(WedgeError::UnknownCompartment(_))
        ));
        assert!(matches!(
            kernel.fd_read(ghost, FdId(1), 4),
            Err(WedgeError::UnknownCompartment(_))
        ));
        // No "" names leaked into the violation log.
        assert!(kernel
            .violations()
            .iter()
            .all(|v| !v.compartment_name.is_empty()));
    }

    #[test]
    fn fd_permissions_are_enforced() {
        let (kernel, root) = kernel_and_root();
        let fd = kernel
            .fd_create_file(root.id(), "/etc/shadow", b"root:x".to_vec())
            .unwrap();
        // Root (unconfined) may read.
        assert_eq!(kernel.fd_read(root.id(), fd, 4).unwrap(), b"root");

        // A default-deny child may not.
        let child = kernel
            .register_child(
                root.id(),
                "worker",
                &SecurityPolicy::deny_all(),
                ChildKind::Sthread,
            )
            .unwrap();
        assert!(matches!(
            kernel.fd_read(child, fd, 4),
            Err(WedgeError::FdFault { .. })
        ));

        // A child granted read-only access may read but not write.
        let mut policy = SecurityPolicy::deny_all();
        policy.sc_fd_add(fd, FdProt::Read);
        let reader = kernel
            .register_child(root.id(), "reader", &policy, ChildKind::Sthread)
            .unwrap();
        assert_eq!(kernel.fd_read(reader, fd, 2), Ok(b":x".to_vec()));
        assert!(matches!(
            kernel.fd_write(reader, fd, b"evil"),
            Err(WedgeError::FdFault { .. })
        ));
    }

    #[test]
    fn emulation_mode_records_but_allows() {
        let (kernel, root) = kernel_and_root();
        let tag = kernel.tag_new(root.id()).unwrap();
        let buf = kernel.smalloc(root.id(), 8, tag).unwrap();
        kernel.mem_write(root.id(), &buf, 0, b"secret!!").unwrap();

        let child = kernel
            .register_child(
                root.id(),
                "worker",
                &SecurityPolicy::deny_all(),
                ChildKind::Sthread,
            )
            .unwrap();
        // Without emulation: fault.
        assert!(kernel.mem_read(child, &buf, 0, 8).is_err());
        assert_eq!(kernel.stats().faults, 1);

        // With emulation: allowed, recorded.
        kernel.set_emulation(true);
        assert_eq!(kernel.mem_read(child, &buf, 0, 8).unwrap(), b"secret!!");
        let violations = kernel.violations();
        assert_eq!(violations.len(), 2);
        assert!(violations[1].emulated);
        assert_eq!(kernel.stats().emulated_violations, 1);
    }

    #[test]
    fn private_allocations_cannot_be_granted() {
        let (kernel, root) = kernel_and_root();
        let child = kernel
            .register_child(
                root.id(),
                "worker",
                &SecurityPolicy::deny_all(),
                ChildKind::Sthread,
            )
            .unwrap();
        let private = kernel.private_alloc(child, 32, None).unwrap();
        assert!(kernel.is_private_tag(private.tag));

        // Another compartment cannot be granted that tag.
        let mut policy = SecurityPolicy::deny_all();
        policy.sc_mem_add(private.tag, MemProt::Read);
        // The root is unconfined so subset validation passes, but the
        // private-tag check still refuses.
        assert!(matches!(
            kernel.register_child(root.id(), "spy", &policy, ChildKind::Sthread),
            Err(WedgeError::PrivateTag(_))
        ));
    }

    #[test]
    fn subset_violations_surface_as_privilege_escalation() {
        let (kernel, root) = kernel_and_root();
        let tag = kernel.tag_new(root.id()).unwrap();
        let mut parent_policy = SecurityPolicy::deny_all();
        parent_policy.sc_mem_add(tag, MemProt::Read);
        let parent = kernel
            .register_child(root.id(), "parent", &parent_policy, ChildKind::Sthread)
            .unwrap();

        let mut child_policy = SecurityPolicy::deny_all();
        child_policy.sc_mem_add(tag, MemProt::ReadWrite);
        assert!(matches!(
            kernel.register_child(parent, "child", &child_policy, ChildKind::Sthread),
            Err(WedgeError::PrivilegeEscalation { .. })
        ));
    }

    #[test]
    fn identity_transition_requires_root_caller() {
        let (kernel, root) = kernel_and_root();
        let worker = kernel
            .register_child(
                root.id(),
                "worker",
                &SecurityPolicy::deny_all().with_uid(Uid(1000)),
                ChildKind::Sthread,
            )
            .unwrap();
        // Root caller may change the worker's identity.
        kernel
            .transition_identity(root.id(), worker, Uid(42), Some("/home/user"))
            .unwrap();
        assert_eq!(kernel.uid_of(worker).unwrap(), Uid(42));
        assert_eq!(kernel.policy_of(worker).unwrap().fs_root, "/home/user");

        // The (now uid 42) worker cannot change identities itself.
        assert!(kernel
            .transition_identity(worker, worker, Uid(0), None)
            .is_err());
    }

    #[test]
    fn syscall_checks_respect_policy() {
        let (kernel, root) = kernel_and_root();
        let mut policy = SecurityPolicy::deny_all();
        policy.sc_sel_context(crate::syscall::SyscallPolicy::allowing(
            "net_t",
            &[Syscall::Send, Syscall::Recv],
        ));
        // Need a domain transition from the parent's allow-all context.
        kernel.allow_domain_transition("wedge_u:wedge_r:unconfined_t", "net_t");
        let child = kernel
            .register_child(root.id(), "net", &policy, ChildKind::Sthread)
            .unwrap();
        assert!(kernel.syscall_check(child, Syscall::Send).is_ok());
        assert!(matches!(
            kernel.syscall_check(child, Syscall::Open),
            Err(WedgeError::SyscallDenied { .. })
        ));
        assert!(kernel.syscall_check(root.id(), Syscall::Open).is_ok());
    }

    #[test]
    fn boundary_vars_require_grants() {
        let (kernel, root) = kernel_and_root();
        kernel
            .boundary_var(root.id(), "secret_global", b"hunter2", 7)
            .unwrap();
        let tag = kernel.boundary_tag(7).unwrap();
        let buf = kernel.boundary_buf("secret_global").unwrap();
        assert_eq!(buf.tag, tag);

        // Default-deny child cannot read it.
        let child = kernel
            .register_child(
                root.id(),
                "worker",
                &SecurityPolicy::deny_all(),
                ChildKind::Sthread,
            )
            .unwrap();
        assert!(kernel.mem_read(child, &buf, 0, 7).is_err());

        // Ordinary global_read on a boundary var goes through the tag check
        // as well.
        assert!(kernel.global_read(child, "secret_global", None).is_err());

        // A granted child can.
        let mut policy = SecurityPolicy::deny_all();
        policy.sc_mem_add(tag, MemProt::Read);
        let reader = kernel
            .register_child(root.id(), "reader", &policy, ChildKind::Sthread)
            .unwrap();
        assert_eq!(kernel.mem_read(reader, &buf, 0, 7).unwrap(), b"hunter2");
    }

    #[test]
    fn cow_grants_isolate_writes() {
        let (kernel, root) = kernel_and_root();
        let tag = kernel.tag_new(root.id()).unwrap();
        let buf = kernel.smalloc(root.id(), 8, tag).unwrap();
        kernel.mem_write(root.id(), &buf, 0, b"original").unwrap();

        let mut policy = SecurityPolicy::deny_all();
        policy.sc_mem_add(tag, MemProt::CopyOnWrite);
        let child = kernel
            .register_child(root.id(), "cow", &policy, ChildKind::Sthread)
            .unwrap();

        // The child reads the shared value, writes privately.
        assert_eq!(kernel.mem_read(child, &buf, 0, 8).unwrap(), b"original");
        kernel.mem_write(child, &buf, 0, b"mutated!").unwrap();
        assert_eq!(kernel.mem_read(child, &buf, 0, 8).unwrap(), b"mutated!");
        // The shared copy (and the root's view) is untouched.
        assert_eq!(kernel.mem_read(root.id(), &buf, 0, 8).unwrap(), b"original");
    }

    #[test]
    fn cow_writes_through_freed_allocations_are_rejected() {
        let (kernel, root) = kernel_and_root();
        let tag = kernel.tag_new(root.id()).unwrap();
        let buf = kernel.smalloc(root.id(), 8, tag).unwrap();
        let mut policy = SecurityPolicy::deny_all();
        policy.sc_mem_add(tag, MemProt::CopyOnWrite);
        let cow = kernel
            .register_child(root.id(), "cow", &policy, ChildKind::Sthread)
            .unwrap();
        kernel.sfree(root.id(), &buf, None).unwrap();
        // The overlay path must hit the same liveness wall as shared writes.
        assert!(matches!(
            kernel.mem_write(cow, &buf, 0, b"ghost"),
            Err(WedgeError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn permission_cache_hits_and_is_invalidated_by_revocation() {
        let (kernel, root) = kernel_and_root();
        let tag = kernel.tag_new(root.id()).unwrap();
        let buf = kernel.smalloc(root.id(), 8, tag).unwrap();
        kernel.mem_write(root.id(), &buf, 0, b"payload!").unwrap();

        let mut policy = SecurityPolicy::deny_all();
        policy.sc_mem_add(tag, MemProt::Read);
        let reader = kernel
            .register_child(root.id(), "reader", &policy, ChildKind::Sthread)
            .unwrap();

        let cache = Mutex::new(PermCache::new());
        // Warm the cache, then read repeatedly through it.
        for _ in 0..3 {
            assert_eq!(
                kernel
                    .mem_read_vec(reader, &buf, 0, 8, Some(&cache))
                    .unwrap(),
                b"payload!"
            );
        }
        // Revoke: the very next cached read must fault, not serve stale.
        kernel.policy_del(root.id(), reader, tag).unwrap();
        assert!(matches!(
            kernel.mem_read_vec(reader, &buf, 0, 8, Some(&cache)),
            Err(WedgeError::ProtectionFault { .. })
        ));
        // Re-grant: visible again through the same cache.
        kernel
            .policy_add(root.id(), reader, tag, MemProt::Read)
            .unwrap();
        assert_eq!(
            kernel
                .mem_read_vec(reader, &buf, 0, 8, Some(&cache))
                .unwrap(),
            b"payload!"
        );
    }

    #[test]
    fn policy_add_enforces_subset_and_private_tag_rules() {
        let (kernel, root) = kernel_and_root();
        let tag = kernel.tag_new(root.id()).unwrap();
        let mut granter_policy = SecurityPolicy::deny_all();
        granter_policy.sc_mem_add(tag, MemProt::Read);
        let granter = kernel
            .register_child(root.id(), "granter", &granter_policy, ChildKind::Sthread)
            .unwrap();
        let target = kernel
            .register_child(
                root.id(),
                "target",
                &SecurityPolicy::deny_all(),
                ChildKind::Sthread,
            )
            .unwrap();
        // A read-only holder cannot delegate read-write.
        assert!(matches!(
            kernel.policy_add(granter, target, tag, MemProt::ReadWrite),
            Err(WedgeError::PrivilegeEscalation { .. })
        ));
        // Read delegation is fine.
        kernel
            .policy_add(granter, target, tag, MemProt::Read)
            .unwrap();
        let buf = kernel.smalloc(root.id(), 4, tag).unwrap();
        assert!(kernel.mem_read(target, &buf, 0, 4).is_ok());
        // Private tags can never be granted to another compartment.
        let private = kernel.private_alloc(target, 8, None).unwrap();
        assert!(matches!(
            kernel.policy_add(root.id(), granter, private.tag, MemProt::Read),
            Err(WedgeError::PrivateTag(_))
        ));
        // Revocation is refused for unrelated confined compartments.
        assert!(matches!(
            kernel.policy_del(granter, target, tag),
            Err(WedgeError::PrivilegeEscalation { .. })
        ));
    }

    #[test]
    fn denied_and_out_of_bounds_accesses_emit_trace_events() {
        use std::sync::atomic::Ordering as AtomOrd;
        let (kernel, root) = kernel_and_root();
        let sink = Arc::new(crate::trace::CountingSink::default());
        kernel.set_tracer(Some(sink.clone()));
        let tag = kernel.tag_new(root.id()).unwrap();
        let buf = kernel.smalloc(root.id(), 8, tag).unwrap();

        // Out-of-bounds read and write both trace (the pre-refactor kernel
        // silently dropped these).
        let before = sink.accesses.load(AtomOrd::Relaxed);
        assert!(kernel.mem_read(root.id(), &buf, 4, 8).is_err());
        assert!(kernel.mem_write(root.id(), &buf, 7, b"toolong").is_err());
        assert_eq!(sink.accesses.load(AtomOrd::Relaxed), before + 2);

        // A denied read traces an access event (and a violation).
        let child = kernel
            .register_child(
                root.id(),
                "worker",
                &SecurityPolicy::deny_all(),
                ChildKind::Sthread,
            )
            .unwrap();
        let before = sink.accesses.load(AtomOrd::Relaxed);
        assert!(kernel.mem_read(child, &buf, 0, 8).is_err());
        assert_eq!(sink.accesses.load(AtomOrd::Relaxed), before + 1);
        assert_eq!(sink.violations.load(AtomOrd::Relaxed), 1);

        // Unknown-tag exits trace on the write path too (reads and writes
        // share the same always-emit contract).
        kernel.tag_delete(root.id(), tag).unwrap();
        let before = sink.accesses.load(AtomOrd::Relaxed);
        assert!(matches!(
            kernel.mem_write(root.id(), &buf, 0, b"gone"),
            Err(WedgeError::UnknownTag(_))
        ));
        assert!(matches!(
            kernel.mem_read(root.id(), &buf, 0, 4),
            Err(WedgeError::UnknownTag(_))
        ));
        assert_eq!(sink.accesses.load(AtomOrd::Relaxed), before + 2);
    }

    #[test]
    fn read_guard_sees_shared_bytes_and_cow_overlays() {
        let (kernel, root) = kernel_and_root();
        let tag = kernel.tag_new(root.id()).unwrap();
        let buf = kernel.smalloc(root.id(), 8, tag).unwrap();
        kernel.mem_write(root.id(), &buf, 0, b"borrowed").unwrap();
        {
            let guard = kernel.mem_read_guard(root.id(), &buf, 0, 8, None).unwrap();
            assert_eq!(&*guard, b"borrowed");
            assert_eq!(&guard[2..4], b"rr");
        }
        // COW overlay: the guard serves the private view.
        let mut policy = SecurityPolicy::deny_all();
        policy.sc_mem_add(tag, MemProt::CopyOnWrite);
        let child = kernel
            .register_child(root.id(), "cow", &policy, ChildKind::Sthread)
            .unwrap();
        kernel.mem_write(child, &buf, 0, b"private!").unwrap();
        let guard = kernel.mem_read_guard(child, &buf, 0, 8, None).unwrap();
        assert_eq!(&*guard, b"private!");
    }

    /// Concurrent mutators, each on its own live child and its own tag,
    /// with a warm reader cache per child: every op issued is appended
    /// exactly once, a read that starts after a `policy_del` returned
    /// faults (every round, the last included), and afterwards every
    /// replica answers as the authoritative table does.
    #[test]
    fn concurrent_mutators_append_every_op_and_revokes_hold_on_every_replica() {
        const THREADS: usize = 4;
        const PAIRS: usize = 200;
        let (kernel, root) = kernel_and_root();
        let root = root.id();
        // The unconfined root's `tag_new` publishes nothing.
        let tags: Vec<Tag> = (0..THREADS)
            .map(|_| kernel.tag_new(root).unwrap())
            .collect();
        let lanes: Vec<_> = (0..THREADS)
            .map(|i| {
                let buf = kernel.smalloc(root, 8, tags[i]).unwrap();
                kernel.mem_write(root, &buf, 0, b"payload!").unwrap();
                // A standing grant on the neighbour's tag, so the final
                // table is not uniformly empty.
                let mut policy = SecurityPolicy::deny_all();
                policy.sc_mem_add(tags[(i + 1) % THREADS], MemProt::Read);
                let child = kernel
                    .register_child(root, "lane", &policy, ChildKind::Sthread)
                    .unwrap();
                let cache = Arc::new(Mutex::new(PermCache::new()));
                kernel.adopt_cache(&cache);
                (child, tags[i], buf, cache)
            })
            .collect();
        let appended_before = kernel.oplog_stats().appended;
        assert_eq!(appended_before, 1 + THREADS as u64, "root + children");

        let start = std::sync::Barrier::new(THREADS);
        std::thread::scope(|scope| {
            for (child, tag, buf, cache) in &lanes {
                let (kernel, start) = (&kernel, &start);
                scope.spawn(move || {
                    let read = || kernel.mem_read_vec(*child, buf, 0, 8, Some(cache));
                    assert!(read().is_err(), "warm, and holding nothing yet");
                    start.wait();
                    for _ in 0..PAIRS {
                        kernel
                            .policy_add(root, *child, *tag, MemProt::Read)
                            .unwrap();
                        assert_eq!(read().unwrap(), b"payload!");
                        kernel.policy_del(root, *child, *tag).unwrap();
                        assert!(matches!(read(), Err(WedgeError::ProtectionFault { .. })));
                    }
                });
            }
        });

        let log = kernel.oplog_stats();
        assert_eq!(
            log.appended - appended_before,
            (THREADS * PAIRS * 2) as u64,
            "one op per mutation issued"
        );
        for replica in &kernel.replicas {
            replica.sync_to(&kernel.oplog, log.tail);
            for (child, ..) in &lanes {
                let policy = kernel.policy_of(*child).unwrap();
                for tag in &tags {
                    assert_eq!(
                        replica.mem_grant(*child, *tag),
                        Some(policy.mem_grant(*tag))
                    );
                }
            }
        }
    }

    #[test]
    fn prewarm_parks_segments_for_reuse() {
        let (kernel, root) = kernel_and_root();
        let parked = kernel.prewarm_tag_cache(4);
        assert_eq!(parked, 4);
        // Subsequent tag_new calls recycle the parked segments.
        for _ in 0..4 {
            kernel.tag_new(root.id()).unwrap();
        }
        assert_eq!(kernel.stats().tags_created, 4);
    }
}
