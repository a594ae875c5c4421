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
//! * policy has **one copy**, in the paper's own terms: the compartments
//!   table is the *page table* (the only holder of every compartment's
//!   grants), a per-sthread `PermCache` (tag → [`MemProt`], fd →
//!   [`crate::FdProt`]) is its *TLB*, and each table entry's **version
//!   cell** is the *shootdown* signal. A warm access costs one load of the
//!   caller's own cell; a changed cell flushes that one cache, and a miss
//!   refills from the table under `compartments.read()`. A mutation aimed
//!   at another compartment costs a cached reader nothing. The one
//!   mutation contract lives on `Kernel::bump`.
//!
//! Lock order (outer → inner): a permission cache's own lock →
//! `compartments` → segment shard → `fds` → `fd_owners` → `control` →
//! `tag_cache` → `violations`. The tracer lock is a leaf never held while
//! acquiring any other lock.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock, RwLockWriteGuard};

use wedge_alloc::{Segment, TagCache, TagCacheConfig};

use crate::callgate::{CallgateFn, CgEntryId, TrustedArg};
use crate::error::WedgeError;
use crate::fdtable::{FdEntry, FdId, FdProt};
use crate::memory::SBuf;
use crate::policy::{SecurityPolicy, Uid};
use crate::sthread::SthreadCtx;
use crate::tag::{AccessMode, CompartmentId, IdHashMap, MemProt, Tag};
use crate::trace::{AccessSink, AllocEvent, CallEvent, MemAccessEvent, MemRegion};
use wedge_telemetry::trace::{SpanGuard, SpanKind};
use wedge_telemetry::{Counter, Telemetry, TelemetryEvent};

/// Number of independently locked segment-table shards. Tags are assigned
/// round-robin (`tag_new` increments the tag id), so consecutive tags land
/// on different shards and concurrent compartments rarely contend.
pub const SEGMENT_SHARDS: usize = 16;

/// Violation records kept — the most recent ones (see
/// [`Kernel::violations`]). A constant, not a knob: an exploited sthread
/// can fault in a loop, so the log must not grow with it. Crowbar's
/// emulation workflow reads one record per missing grant; the largest such
/// run under `tests/` or `examples/` (`examples/crowbar_analysis.rs`)
/// records 2.
pub const VIOLATION_LOG_CAP: usize = 1024;

/// What a kernel keeps resident: a function of *live* compartments, not of
/// history (see [`Kernel::footprint`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelFootprint {
    /// Entries in the authoritative compartment table.
    pub compartments: usize,
    /// Callgate instances held for those compartments.
    pub callgate_instances: usize,
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
    /// [`crate::RecycledSthread::run`]), whether or not they found anything
    /// to wipe.
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
/// A tracer's [`AccessSink::on_violation`] is handed the same record.
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
    /// scrub restores: creation, then each scrub that reset it.
    scrubbed_at: u64,
    /// The **version cell**: bumped by [`Kernel::bump`] after every write to
    /// this entry; per-sthread permission caches revalidate against it.
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
    /// An application sthread — a recycled sthread's worker included:
    /// subset-validated, counts `sthreads_created`.
    Sthread,
    /// A callgate activation running an instance policy already validated
    /// against its creator: no subset check, counts `callgate_invocations`.
    Activation,
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
    /// Inputs paired with the caller's ambient trace (if any) and the
    /// invoking compartment (`None` for a recycled-sthread run), so the
    /// long-lived worker thread serves each invocation inside the invoking
    /// request's trace and on behalf of that invocation's caller.
    pub(crate) tx: crossbeam::channel::Sender<(
        crate::callgate::CgInput,
        Option<wedge_telemetry::ActiveTrace>,
        Option<CompartmentId>,
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
    next_entry: u64,
}

/// The positive grants a [`PermCache`] holds for its compartment.
#[derive(Debug, Default)]
struct PolicyView {
    unconfined: bool,
    mem: IdHashMap<Tag, MemProt>,
    fds: IdHashMap<FdId, FdProt>,
}

impl PolicyView {
    /// Hold nothing (and confine): every access misses.
    fn clear(&mut self) {
        self.unconfined = false;
        self.mem.clear();
        self.fds.clear();
    }
}

/// The per-sthread permission cache — the compartment's TLB: positive
/// grants keyed by tag/fd, revalidated against the compartment's version
/// cell and flushed whole when it moved. Negative results (denials) are
/// never cached, so every denied access still reaches the authoritative
/// table (and the violation log).
pub(crate) struct PermCache {
    /// The compartment's version cell, bound at first sync, and the value
    /// this cache last revalidated at.
    version_cell: Option<Arc<AtomicU64>>,
    seen_cell: u64,
    /// The positive grants held, refilled from the table on a miss.
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
    /// The most recent [`VIOLATION_LOG_CAP`] violations, oldest first.
    violations: Mutex<VecDeque<ViolationRecord>>,
    /// Records that fell off the front of `violations`.
    violations_dropped: AtomicU64,
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
    /// The registry counters this kernel pushes to, once instrumented.
    counters: std::sync::OnceLock<KernelCounters>,
}

/// Registry handles bound by [`Kernel::instrument`].
struct KernelCounters {
    /// `kernel.sthreads.recycled_runs`.
    recycled_runs: Counter,
    /// `kernel.policy.mutations`: version-cell bumps.
    mutations: Counter,
    /// `kernel.permcache.flushes`: caches that found their cell moved and
    /// dropped what they held.
    cache_flushes: Counter,
}

impl Default for Kernel {
    fn default() -> Self {
        Kernel::new()
    }
}

impl Kernel {
    /// Create a fresh kernel with no compartments, tags or globals.
    pub fn new() -> Kernel {
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
                next_entry: 1,
            }),
            tag_cache: Mutex::new(TagCache::new(TagCacheConfig::default())),
            cache_registry: Mutex::new(Vec::new()),
            violations: Mutex::new(VecDeque::new()),
            violations_dropped: AtomicU64::new(0),
            stats: StatCells::default(),
            retired: AtomicU64::new(0),
            emulation: AtomicBool::new(false),
            next_compartment: AtomicU64::new(1),
            next_tag: AtomicU64::new(1),
            next_fd: AtomicU64::new(1),
            tracer: RwLock::new(None),
            tracer_on: AtomicBool::new(false),
            telemetry: std::sync::OnceLock::new(),
            counters: std::sync::OnceLock::new(),
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
    /// `kernel.write`, `kernel.violations`, `kernel.scrubs`,
    /// `kernel.allocs`, ...) only when
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
        let _ = self.counters.set(KernelCounters {
            recycled_runs: telemetry.counter("kernel.sthreads.recycled_runs"),
            mutations: telemetry.counter("kernel.policy.mutations"),
            cache_flushes: telemetry.counter("kernel.permcache.flushes"),
        });
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
            sample.counter("kernel.allocs", stats.smallocs + stats.private_allocs);
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
            sample.counter(
                "kernel.violations.dropped",
                kernel.violations_dropped.load(Ordering::Relaxed),
            );
        });
    }

    /// What this kernel currently keeps resident.
    pub fn footprint(&self) -> KernelFootprint {
        KernelFootprint {
            compartments: self.compartments.read().len(),
            callgate_instances: self.control.lock().callgate_instances.len(),
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

    /// The protection violations recorded so far, oldest first — the most
    /// recent [`VIOLATION_LOG_CAP`] of them; `stats().faults` and
    /// `emulated_violations` count every one.
    pub fn violations(&self) -> Vec<ViolationRecord> {
        self.violations.lock().iter().cloned().collect()
    }

    /// Forget recorded violations (the counters keep their totals).
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
        cache.lock().kernel = Some(Arc::downgrade(self));
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

    /// Revalidate `cache` against the caller's **version cell**. The warm
    /// case is one load of the cell — no lock beyond the cache's own, no
    /// allocation — and a mutation aimed at *another* compartment leaves
    /// this cache warm. A moved cell flushes the cache: it drops every
    /// grant it held, re-reads `unconfined` and remembers the new value;
    /// the grants come back one miss at a time. The first sync binds the
    /// cell the same way.
    ///
    /// The flush reads the cell under `compartments.read()`, where no
    /// mutation is mid-flight, so the remembered value is the version of
    /// the table the refills that follow can only be newer than. A retired
    /// caller (entry gone, cell bumped — see [`Kernel::bump`]) flushes, finds
    /// no entry and is told `UnknownCompartment`, every time.
    fn cache_sync(&self, caller: CompartmentId, cache: &mut PermCache) -> Result<(), WedgeError> {
        if let Some(cell) = &cache.version_cell {
            if cell.load(Ordering::SeqCst) == cache.seen_cell {
                return Ok(());
            }
            if let Some(counters) = self.counters.get() {
                counters.cache_flushes.incr();
            }
        }
        cache.view.clear();
        let comps = self.compartments.read();
        let entry = comps
            .get(&caller)
            .ok_or(WedgeError::UnknownCompartment(caller))?;
        cache.seen_cell = entry.version_cell.load(Ordering::SeqCst);
        cache.view.unconfined = entry.policy.is_unconfined();
        cache
            .version_cell
            .get_or_insert_with(|| entry.version_cell.clone());
        Ok(())
    }

    /// Read one grant of `caller`'s from the authoritative table: what a
    /// cache miss refills from, and what a cache-less access checks.
    fn table_grant<G>(
        &self,
        caller: CompartmentId,
        grant: impl FnOnce(&SecurityPolicy) -> Option<G>,
    ) -> Result<Option<G>, WedgeError> {
        self.compartments
            .read()
            .get(&caller)
            .map(|c| grant(&c.policy))
            .ok_or(WedgeError::UnknownCompartment(caller))
    }

    /// The caller's memory grant for `tag`, through the per-sthread cache
    /// when one is supplied (lock order: cache → compartments).
    pub(crate) fn resolve_mem_grant(
        &self,
        caller: CompartmentId,
        tag: Tag,
        cache: Option<&Mutex<PermCache>>,
        count: StatKind,
    ) -> Result<Option<MemProt>, WedgeError> {
        let Some(cache) = cache else {
            self.count_uncached(count);
            return self.table_grant(caller, |policy| policy.mem_grant(tag));
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
        let grant = self.table_grant(caller, |policy| policy.mem_grant(tag))?;
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
            return self.table_grant(caller, |policy| policy.fd_grant(fd));
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
        let grant = self.table_grant(caller, |policy| policy.fd_grant(fd))?;
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
    // its copy-on-write views of tagged memory and snapshot globals and any
    // recycled worker it created all go, so kernel state is a function of
    // live compartments, not of history.
    // Deliberately kept: tags it created with `tag_new` and descriptors it
    // opened — both may have been granted on, and live until `tag_delete`
    // or a scrub. Ids are never reused: a retired one is `UnknownCompartment`.
    // ------------------------------------------------------------------

    /// Take the compartments write lock for a mutation. The `kernel.apply`
    /// span (free on an untraced thread) covers the hold.
    fn table_write(
        &self,
    ) -> (
        Option<SpanGuard>,
        RwLockWriteGuard<'_, HashMap<CompartmentId, CompartmentEntry>>,
    ) {
        let span = wedge_telemetry::trace::span(SpanKind::KernelApply, 1);
        (span, self.compartments.write())
    }

    /// The one mutation contract — the shootdown: **write the table entry,
    /// then bump its cell, both inside one hold of the compartments write
    /// lock, and release the mutator only afterwards.** `entry` is the
    /// entry just written (a `&mut` only that lock hands out), or the one
    /// just removed at retirement. A cache that still holds a grant the
    /// write took away is then behind a moved cell, so no access that
    /// starts after the mutator returns succeeds through it; and since a
    /// flush re-reads under the read lock, it can never pair the new cell
    /// value with the old table. A new entry is not bumped: no cache can
    /// exist for it until its creator returns.
    fn bump(&self, entry: &mut CompartmentEntry) {
        entry.version_cell.fetch_add(1, Ordering::SeqCst);
        if let Some(counters) = self.counters.get() {
            counters.mutations.incr();
        }
    }

    /// Create the unconfined root compartment and return its context.
    pub fn create_root_compartment(self: &Arc<Self>, name: &str) -> SthreadCtx {
        let id = CompartmentId(self.next_compartment.fetch_add(1, Ordering::Relaxed));
        {
            let (_span, mut comps) = self.table_write();
            let policy = SecurityPolicy::unconfined();
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
        let (_span, mut comps) = self.table_write();
        let parent_policy = &comps
            .get(&parent)
            .ok_or(WedgeError::UnknownCompartment(parent))?
            .policy;

        if kind == ChildKind::Sthread {
            parent_policy
                .validate_child(policy)
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

        comps.insert(id, CompartmentEntry::new(name, Some(parent), child_policy));
        match kind {
            ChildKind::Activation => StatCells::bump(&self.stats.callgate_invocations),
            ChildKind::Sthread => StatCells::bump(&self.stats.sthreads_created),
        }
        Ok(id)
    }

    /// Retire an exited compartment (the section comment lists what goes
    /// and what stays). The entry is removed, *then* its cell bumped, so a
    /// warm cache held by a leaked context flushes and its refill answers
    /// `UnknownCompartment`: no access that starts after this returns
    /// succeeds.
    pub(crate) fn compartment_exited(&self, id: CompartmentId) {
        let entry = {
            let (_span, mut comps) = self.table_write();
            let Some(mut entry) = comps.remove(&id) else {
                return;
            };
            self.bump(&mut entry);
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

    /// Change the uid and filesystem root of `invoker`, the compartment
    /// whose call the gate activation `caller` is serving. Reached only
    /// through [`SthreadCtx::transition_identity`], which passes the invoker
    /// the kernel recorded for the activation. Only a caller whose own uid
    /// is root may do this — the idiom used by the OpenSSH authentication
    /// callgates ("the callgate, upon successful authentication, changes the
    /// worker's user ID and filesystem root").
    pub(crate) fn transition_identity(
        &self,
        caller: CompartmentId,
        invoker: CompartmentId,
        new_uid: Uid,
        new_fs_root: Option<&str>,
    ) -> Result<(), WedgeError> {
        let (_span, mut comps) = self.table_write();
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
        let invoker_entry = comps
            .get_mut(&invoker)
            .ok_or(WedgeError::UnknownCompartment(invoker))?;
        invoker_entry.policy.uid = new_uid;
        if let Some(root) = new_fs_root {
            invoker_entry.policy.fs_root = root.to_string();
        }
        // Identity is never cached (uid checks read the table), but the
        // bump keeps "once this returns, later reads revalidate" uniform
        // across every mutation kind.
        self.bump(invoker_entry);
        Ok(())
    }

    /// The uid a compartment currently runs as.
    pub fn uid_of(&self, id: CompartmentId) -> Result<Uid, WedgeError> {
        Ok(self.policy_of(id)?.uid)
    }

    /// Add a runtime memory grant to `target`'s policy (`policy_add`). The
    /// granter must itself hold a grant that allows delegating `prot` (or
    /// be unconfined), and private tags can never be named in another
    /// compartment's policy.
    pub(crate) fn policy_add(
        &self,
        caller: CompartmentId,
        target: CompartmentId,
        tag: Tag,
        prot: MemProt,
    ) -> Result<(), WedgeError> {
        let (_span, mut comps) = self.table_write();
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
            return Ok(());
        }
        target_entry.policy.sc_mem_add(tag, prot);
        self.bump(target_entry);
        Ok(())
    }

    /// Revoke a memory grant from `target`'s policy (`policy_del`). Allowed
    /// for the unconfined root, the target's parent, or the target itself.
    /// Once this returns, no access started afterwards can succeed through
    /// a stale cached grant ([`Kernel::bump`]).
    pub(crate) fn policy_del(
        &self,
        caller: CompartmentId,
        target: CompartmentId,
        tag: Tag,
    ) -> Result<(), WedgeError> {
        let (_span, mut comps) = self.table_write();
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
        self.bump(target_entry);
        Ok(())
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
        let (_span, mut comps) = self.table_write();
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
            self.bump(entry);
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

    /// `smalloc()`: allocate from a tagged segment, through the caller's
    /// permission cache when it has one.
    pub(crate) fn smalloc(
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
        // next scrub). (No `kernel.apply` span: all but the first call only
        // look the tag up.)
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
        self.smalloc(caller, size, tag, cache)
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
        let verdict = if emulated {
            Ok(())
        } else if exited {
            Err(WedgeError::UnknownCompartment(caller))
        } else {
            Err(match region {
                MemRegion::Tagged { tag, .. } => WedgeError::ProtectionFault {
                    compartment: caller,
                    tag,
                    mode,
                },
                MemRegion::Fd { fd, .. } => WedgeError::FdFault {
                    compartment: caller,
                    fd,
                    mode,
                },
                MemRegion::Global { .. } => WedgeError::ProtectionFault {
                    compartment: caller,
                    tag: Tag(0),
                    mode,
                },
            })
        };
        if emulated {
            StatCells::bump(&self.stats.emulated_violations);
        } else {
            StatCells::bump(&self.stats.faults);
        }
        let record = ViolationRecord {
            compartment: caller,
            compartment_name: live_name.unwrap_or_else(|| "<exited>".to_string()),
            region,
            mode,
            emulated,
        };
        if let Some(telemetry) = self.telemetry.get() {
            telemetry.emit_with(|| TelemetryEvent::Violation {
                compartment: record.compartment_name.clone(),
                emulated,
            });
        }
        if let Some(tracer) = self.tracer() {
            tracer.on_violation(&record);
        }
        let mut log = self.violations.lock();
        if log.len() == VIOLATION_LOG_CAP {
            log.pop_front();
            self.violations_dropped.fetch_add(1, Ordering::Relaxed);
        }
        log.push_back(record);
        verdict
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

    /// Read `len` bytes at `offset` within a tagged buffer, through a
    /// per-sthread permission cache when one is supplied.
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

    /// Write `data` at `offset` within a tagged buffer, through the
    /// caller's permission cache when it has one.
    pub(crate) fn mem_write(
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
        let buf = self.smalloc(caller, initial.len().max(1), tag, None)?;
        self.mem_write(caller, &buf, 0, initial, None)?;
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
    pub(crate) fn boundary_tag(&self, boundary_id: u32) -> Result<Tag, WedgeError> {
        self.control
            .lock()
            .boundary_tags
            .get(&boundary_id)
            .copied()
            .ok_or_else(|| WedgeError::UnknownGlobal(format!("boundary {boundary_id}")))
    }

    /// The tagged buffer behind a boundary global.
    pub(crate) fn boundary_buf(&self, name: &str) -> Result<SBuf, WedgeError> {
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
                return self.mem_write(caller, &buf, 0, value, cache);
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
        let (_span, mut comps) = self.table_write();
        let comp = comps
            .get_mut(&caller)
            .ok_or(WedgeError::UnknownCompartment(caller))?;
        let fd = FdId(self.next_fd.fetch_add(1, Ordering::Relaxed));
        *comp.holds_state.get_mut() = true;
        self.fds.write().insert(fd, entry);
        self.fd_owners.lock().insert(fd, caller);
        if !comp.policy.is_unconfined() {
            comp.policy.sc_fd_add(fd, FdProt::ReadWrite);
            self.bump(comp);
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

    /// Read up to `len` bytes from a descriptor, through the caller's
    /// permission cache when it has one.
    pub(crate) fn fd_read(
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

    /// Write bytes to a descriptor, through the caller's permission cache
    /// when it has one.
    pub(crate) fn fd_write(
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
    /// to the next caller. The policy reset's bump invalidates every cached
    /// grant the worker accumulated before the scrub.
    ///
    /// A scrub costs what it finds: a compartment no mutation has named
    /// since its policy last was the baseline, and that owns no state, has
    /// nothing to undo — nothing is bumped and no shard is locked.
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
            let (_span, mut comps) = self.table_write();
            let entry = comps
                .get_mut(&id)
                .ok_or(WedgeError::UnknownCompartment(id))?;
            entry.private_tag = None;
            entry.policy = baseline.clone();
            *entry.holds_state.get_mut() = false;
            self.bump(entry);
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

    /// The registered entry function of a callgate (a recycled sthread's
    /// body).
    pub(crate) fn cgate_entry_fn(&self, entry: CgEntryId) -> Option<CallgateFn> {
        self.control
            .lock()
            .callgate_entries
            .get(&entry)
            .map(|(_, f)| f.clone())
    }

    /// Count one recycled-sthread run (`kernel.sthreads.recycled_runs`):
    /// with `kernel.sthreads`, which counts the workers' creations, every
    /// sthread body that ran is accounted for.
    pub(crate) fn note_recycled_run(&self) {
        if let Some(counters) = self.counters.get() {
            counters.recycled_runs.incr();
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
        // at all) takes only the read lock and bumps nothing. An unknown
        // id is ignored, here and below.
        let widens = |c: &CompartmentEntry| !c.policy.covers_grants(extra);
        if !self.compartments.read().get(&id).is_some_and(widens) {
            return;
        }
        let (_span, mut comps) = self.table_write();
        if let Some(c) = comps.get_mut(&id).filter(|c| widens(c)) {
            c.policy.merge_grants(extra);
            self.bump(c);
        }
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
impl Kernel {
    /// Is the tag private (backing untagged allocations)?
    pub(crate) fn is_private_tag(&self, tag: Tag) -> bool {
        self.shard(tag)
            .read()
            .segments
            .get(&tag)
            .is_some_and(|s| s.private)
    }
}

#[cfg(test)]
#[path = "prop_cache.rs"]
mod prop_cache;

#[cfg(test)]
mod tests {
    use super::*;

    impl Kernel {
        /// A live compartment's version-cell value: how many mutations
        /// have named it.
        pub(crate) fn version_of(&self, id: CompartmentId) -> Option<u64> {
            let comps = self.compartments.read();
            Some(comps.get(&id)?.version_cell.load(Ordering::SeqCst))
        }

        /// An uncached [`Kernel::mem_read_vec`].
        fn mem_read(
            &self,
            caller: CompartmentId,
            buf: &SBuf,
            offset: usize,
            len: usize,
        ) -> Result<Vec<u8>, WedgeError> {
            self.mem_read_vec(caller, buf, offset, len, None)
        }
    }

    fn kernel_and_root() -> (Arc<Kernel>, SthreadCtx) {
        let kernel = Arc::new(Kernel::new());
        let root = kernel.create_root_compartment("root");
        (kernel, root)
    }

    #[test]
    fn tag_new_grants_creator_rw() {
        let (kernel, root) = kernel_and_root();
        let tag = kernel.tag_new(root.id()).unwrap();
        let buf = kernel.smalloc(root.id(), 16, tag, None).unwrap();
        kernel.mem_write(root.id(), &buf, 0, b"abcd", None).unwrap();
        assert_eq!(kernel.mem_read(root.id(), &buf, 0, 4).unwrap(), b"abcd");
        assert_eq!(kernel.stats().tags_created, 1);
    }

    #[test]
    fn unknown_tag_is_reported() {
        let (kernel, root) = kernel_and_root();
        assert!(matches!(
            kernel.smalloc(root.id(), 8, Tag(999), None),
            Err(WedgeError::UnknownTag(Tag(999)))
        ));
    }

    #[test]
    fn out_of_bounds_reads_rejected() {
        let (kernel, root) = kernel_and_root();
        let tag = kernel.tag_new(root.id()).unwrap();
        let buf = kernel.smalloc(root.id(), 8, tag, None).unwrap();
        assert!(matches!(
            kernel.mem_read(root.id(), &buf, 4, 8),
            Err(WedgeError::OutOfBounds { .. })
        ));
        assert!(matches!(
            kernel.mem_write(root.id(), &buf, 7, b"toolong", None),
            Err(WedgeError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn tag_delete_recycles_segment() {
        let (kernel, root) = kernel_and_root();
        let tag = kernel.tag_new(root.id()).unwrap();
        kernel.tag_delete(root.id(), tag).unwrap();
        assert!(matches!(
            kernel.smalloc(root.id(), 8, tag, None),
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
            kernel.mem_write(ghost, &buf, 0, b"abcd", None),
            Err(WedgeError::UnknownCompartment(_))
        ));
        assert!(matches!(
            kernel.fd_read(ghost, FdId(1), 4, None),
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
        assert_eq!(kernel.fd_read(root.id(), fd, 4, None).unwrap(), b"root");

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
            kernel.fd_read(child, fd, 4, None),
            Err(WedgeError::FdFault { .. })
        ));

        // A child granted read-only access may read but not write.
        let mut policy = SecurityPolicy::deny_all();
        policy.sc_fd_add(fd, FdProt::Read);
        let reader = kernel
            .register_child(root.id(), "reader", &policy, ChildKind::Sthread)
            .unwrap();
        assert_eq!(kernel.fd_read(reader, fd, 2, None), Ok(b":x".to_vec()));
        assert!(matches!(
            kernel.fd_write(reader, fd, b"evil", None),
            Err(WedgeError::FdFault { .. })
        ));
    }

    #[test]
    fn emulation_mode_records_but_allows() {
        let (kernel, root) = kernel_and_root();
        let tag = kernel.tag_new(root.id()).unwrap();
        let buf = kernel.smalloc(root.id(), 8, tag, None).unwrap();
        kernel
            .mem_write(root.id(), &buf, 0, b"secret!!", None)
            .unwrap();

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
        use crate::callgate::typed_entry;
        let wedge = crate::Wedge::init();
        let login = |name| {
            wedge.kernel().cgate_register(
                name,
                typed_entry(|ctx, _t, uid: u32| {
                    ctx.transition_identity(Uid(uid), Some("/home/user"))
                }),
            )
        };
        let (root_gate, user_gate) = (login("root_login"), login("user_login"));
        let mut policy = SecurityPolicy::deny_all().with_uid(Uid(1000));
        // One activation inherits its creator's root uid; the other runs as 7.
        policy.sc_cgate_add(root_gate, SecurityPolicy::deny_all(), None);
        policy.sc_cgate_add(user_gate, SecurityPolicy::deny_all().with_uid(Uid(7)), None);
        let none = SecurityPolicy::deny_all();
        let (refused, uid_after_refusal, granted, uid, fs_root, own) = wedge
            .root()
            .sthread_create("worker", &policy, move |ctx| {
                let refused = ctx.cgate_expect::<()>(user_gate, &none, Box::new(0u32));
                let uid_after_refusal = ctx.uid();
                let granted = ctx.cgate_expect::<()>(root_gate, &none, Box::new(42u32));
                // The (now uid 42) worker cannot change identities itself.
                let own = ctx.transition_identity(Uid(0), None);
                let policy = ctx.policy();
                (
                    refused,
                    uid_after_refusal,
                    granted,
                    policy.uid,
                    policy.fs_root,
                    own,
                )
            })
            .unwrap()
            .join()
            .unwrap();
        assert!(matches!(refused, Err(WedgeError::IdentityDenied(_))));
        assert_eq!(uid_after_refusal, Uid(1000));
        granted.unwrap();
        assert_eq!((uid, fs_root.as_str()), (Uid(42), "/home/user"));
        assert!(matches!(own, Err(WedgeError::IdentityDenied(_))));
        // Root is no gate activation either: it has no invoker to act on.
        assert!(matches!(
            wedge.root().transition_identity(Uid(42), None),
            Err(WedgeError::IdentityDenied(_))
        ));
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
        let buf = kernel.smalloc(root.id(), 8, tag, None).unwrap();
        kernel
            .mem_write(root.id(), &buf, 0, b"original", None)
            .unwrap();

        let mut policy = SecurityPolicy::deny_all();
        policy.sc_mem_add(tag, MemProt::CopyOnWrite);
        let child = kernel
            .register_child(root.id(), "cow", &policy, ChildKind::Sthread)
            .unwrap();

        // The child reads the shared value, writes privately.
        assert_eq!(kernel.mem_read(child, &buf, 0, 8).unwrap(), b"original");
        kernel.mem_write(child, &buf, 0, b"mutated!", None).unwrap();
        assert_eq!(kernel.mem_read(child, &buf, 0, 8).unwrap(), b"mutated!");
        // The shared copy (and the root's view) is untouched.
        assert_eq!(kernel.mem_read(root.id(), &buf, 0, 8).unwrap(), b"original");
    }

    #[test]
    fn cow_writes_through_freed_allocations_are_rejected() {
        let (kernel, root) = kernel_and_root();
        let tag = kernel.tag_new(root.id()).unwrap();
        let buf = kernel.smalloc(root.id(), 8, tag, None).unwrap();
        let mut policy = SecurityPolicy::deny_all();
        policy.sc_mem_add(tag, MemProt::CopyOnWrite);
        let cow = kernel
            .register_child(root.id(), "cow", &policy, ChildKind::Sthread)
            .unwrap();
        kernel.sfree(root.id(), &buf, None).unwrap();
        // The overlay path must hit the same liveness wall as shared writes.
        assert!(matches!(
            kernel.mem_write(cow, &buf, 0, b"ghost", None),
            Err(WedgeError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn permission_cache_hits_and_is_invalidated_by_revocation() {
        let (kernel, root) = kernel_and_root();
        let tag = kernel.tag_new(root.id()).unwrap();
        let buf = kernel.smalloc(root.id(), 8, tag, None).unwrap();
        kernel
            .mem_write(root.id(), &buf, 0, b"payload!", None)
            .unwrap();

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
        let buf = kernel.smalloc(root.id(), 4, tag, None).unwrap();
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
        let buf = kernel.smalloc(root.id(), 8, tag, None).unwrap();

        // Out-of-bounds read and write both trace (the pre-refactor kernel
        // silently dropped these).
        let before = sink.accesses.load(AtomOrd::Relaxed);
        assert!(kernel.mem_read(root.id(), &buf, 4, 8).is_err());
        assert!(kernel
            .mem_write(root.id(), &buf, 7, b"toolong", None)
            .is_err());
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
            kernel.mem_write(root.id(), &buf, 0, b"gone", None),
            Err(WedgeError::UnknownTag(_))
        ));
        assert!(matches!(
            kernel.mem_read(root.id(), &buf, 0, 4),
            Err(WedgeError::UnknownTag(_))
        ));
        assert_eq!(sink.accesses.load(AtomOrd::Relaxed), before + 2);
    }

    /// Concurrent mutators, each on its own live child and its own tag,
    /// with a warm reader cache per child: every mutation issued bumps its
    /// target's cell exactly once, and a read that starts after a
    /// `policy_del` returned faults (every round, the last included).
    #[test]
    fn concurrent_mutators_bump_once_per_mutation_and_revokes_hold() {
        const THREADS: usize = 4;
        const PAIRS: usize = 200;
        let (kernel, root) = kernel_and_root();
        let root = root.id();
        let tags: Vec<Tag> = (0..THREADS)
            .map(|_| kernel.tag_new(root).unwrap())
            .collect();
        let lanes: Vec<_> = (0..THREADS)
            .map(|i| {
                let buf = kernel.smalloc(root, 8, tags[i], None).unwrap();
                kernel.mem_write(root, &buf, 0, b"payload!", None).unwrap();
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
        assert_eq!(kernel.version_of(root), Some(0), "creation bumps nothing");

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

        for (i, (child, tag, _, cache)) in lanes.iter().enumerate() {
            assert_eq!(kernel.version_of(*child), Some(2 * PAIRS as u64));
            let neighbour = tags[(i + 1) % THREADS];
            for (tag, held) in [(*tag, None), (neighbour, Some(MemProt::Read))] {
                let cached = kernel.resolve_mem_grant(*child, tag, Some(cache), StatKind::None);
                assert_eq!(cached, Ok(held));
            }
        }
    }

    /// PR 15's rule, on the cell: a widening that adds nothing bumps
    /// nothing (so the warm cache stays warm); one that adds a grant bumps
    /// once.
    #[test]
    fn a_no_op_widening_bumps_nothing() {
        let (kernel, root) = kernel_and_root();
        let tag = kernel.tag_new(root.id()).unwrap();
        let mut policy = SecurityPolicy::deny_all();
        policy.sc_mem_add(tag, MemProt::Read);
        let child = kernel
            .register_child(root.id(), "gate", &policy, ChildKind::Activation)
            .unwrap();
        kernel.widen_policy(child, &SecurityPolicy::deny_all());
        kernel.widen_policy(child, &policy);
        assert_eq!(kernel.version_of(child), Some(0));
        let mut wider = SecurityPolicy::deny_all();
        wider.sc_mem_add(tag, MemProt::ReadWrite);
        kernel.widen_policy(child, &wider);
        assert_eq!(kernel.version_of(child), Some(1));
        assert_eq!(
            kernel.policy_of(child).unwrap().mem_grant(tag),
            Some(MemProt::ReadWrite)
        );
        kernel.widen_policy(CompartmentId(9999), &wider);
    }

    /// Denials are never cached: a compartment probing tags and
    /// descriptors it does not hold cannot grow its own cache.
    #[test]
    fn denied_lookups_leave_the_cache_holding_nothing() {
        let (kernel, root) = kernel_and_root();
        let tag = kernel.tag_new(root.id()).unwrap();
        let mut policy = SecurityPolicy::deny_all();
        policy.sc_mem_add(tag, MemProt::Read);
        let child = kernel
            .register_child(root.id(), "prober", &policy, ChildKind::Sthread)
            .unwrap();
        let cache = Mutex::new(PermCache::new());
        for probe in 1_000..2_000 {
            let mem = kernel.resolve_mem_grant(child, Tag(probe), Some(&cache), StatKind::None);
            let fd = kernel.resolve_fd_grant(child, FdId(probe), Some(&cache), StatKind::None);
            assert_eq!((mem, fd), (Ok(None), Ok(None)));
        }
        let held = kernel.resolve_mem_grant(child, tag, Some(&cache), StatKind::None);
        assert_eq!(held, Ok(Some(MemProt::Read)));
        let cache = cache.lock();
        assert_eq!((cache.view.mem.len(), cache.view.fds.len()), (1, 0));
    }

    /// The violation log is a ring: an sthread faulting in a loop costs the
    /// kernel [`VIOLATION_LOG_CAP`] records, and the counters stay exact.
    #[test]
    fn the_violation_log_keeps_the_most_recent_records_only() {
        const DENIED: usize = 100_000;
        let (kernel, root) = kernel_and_root();
        let telemetry = Telemetry::new();
        kernel.instrument(&telemetry);
        let tag = kernel.tag_new(root.id()).unwrap();
        let child = kernel
            .register_child(
                root.id(),
                "looper",
                &SecurityPolicy::deny_all(),
                ChildKind::Sthread,
            )
            .unwrap();
        // Denied before the segment is looked at: any offset will do.
        for offset in 0..DENIED {
            let probe = SBuf::new(tag, offset, 1);
            assert!(kernel.mem_read(child, &probe, 0, 1).is_err());
        }
        let dropped = (DENIED - VIOLATION_LOG_CAP) as u64;
        let log = kernel.violations();
        assert_eq!(log.len(), VIOLATION_LOG_CAP);
        let newest = MemRegion::Tagged {
            tag,
            alloc_offset: DENIED - 1,
        };
        assert_eq!(log.last().map(|v| &v.region), Some(&newest));
        assert_eq!(kernel.stats().faults, DENIED as u64);
        let snapshot = telemetry.snapshot();
        assert_eq!(snapshot.counter("kernel.violations.dropped"), dropped);
        assert_eq!(snapshot.counter("kernel.violations"), DENIED as u64);

        // Clearing resets the ring, not the counters.
        kernel.clear_violations();
        assert!(kernel.violations().is_empty());
        assert!(kernel.mem_read(child, &SBuf::new(tag, 0, 1), 0, 1).is_err());
        assert_eq!(kernel.violations().len(), 1);
        assert_eq!(kernel.stats().faults, DENIED as u64 + 1);
        assert_eq!(
            telemetry.snapshot().counter("kernel.violations.dropped"),
            dropped
        );
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
