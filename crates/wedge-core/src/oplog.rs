//! The shared policy operation log and per-shard kernel replicas.
//!
//! This is the node-replication (NR / "op-log") design applied to the
//! kernel's policy state: every policy mutation — runtime grants and
//! revocations, widenings, identity transitions, scrub resets, the
//! implicit grants `tag_new`/`fd_create` add, and compartment creation
//! itself — becomes a typed [`PolicyOp`] appended to one shared,
//! monotonically versioned [`OpLog`]. Readers never consult the
//! authoritative compartment table on the data path; instead each
//! [`KernelReplica`] lazily **replays** the log up to the published tail
//! and serves permission-cache refills from replica-local state.
//!
//! Four properties carry the design:
//!
//! * **Effects, not requests.** Ops are recorded *post-validation*: a
//!   [`PolicyOp::MemSet`] carries the resulting grant (or its absence),
//!   a [`PolicyOp::Snapshot`] carries a compartment's whole replicated
//!   view. Replay is therefore trivially deterministic — a replica
//!   applies exactly what the authoritative table did, in log order.
//! * **One tail, published with `Release`.** Appenders push entries and
//!   then store the new tail with `Release` *before* any completion is
//!   signalled; readers load it with `Acquire`. Once a mutation returns
//!   to its caller, every later-starting read observes a tail at or past
//!   it — the revoke-linearization point.
//! * **Version-precise invalidation.** A per-sthread permission cache
//!   remembers the tail version it last saw and, on change, scans only
//!   the new suffix for ops naming *its* compartment. Mutations aimed at
//!   other compartments cost a cached reader nothing.
//! * **Bounded.** The log is a suffix, not a history: `entries[0]` holds
//!   version [`OpLog::base`], and everything below `base` has been dropped.
//!   Only the appender truncates ([`OpLog::truncate_to`], called by the
//!   kernel under the compartments write lock once the resident suffix
//!   reaches its watermark, so the tail is still), and only after it has
//!   brought every replica to the tail — the replicas *are* the
//!   checkpoint, so no snapshot ops are re-emitted and a replica can never
//!   need a dropped entry (the rule the shared logs SNIPPETS.md §1 lists
//!   follow — ScaleFS, Corfu: a prefix goes once every replica has applied
//!   it). A permission cache that slept across a truncation
//!   (`seen_version < base`) is told so by [`OpLog::scan`] and resets from
//!   its replica. State is bounded too: a compartment that exits publishes
//!   [`PolicyOp::Retire`], which removes its view from every replica; a
//!   cache folding a `Retire` naming its own compartment drops everything
//!   it held, so its next access misses, asks the replica, and is told the
//!   compartment is unknown.
//!
//! The appender lives in [`crate::kernel`] (mutations validate against the
//! compartments table, whose write lock is the append serialisation point);
//! this module owns the log, the replicas, and their counters.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use parking_lot::{Mutex, RwLock};

use wedge_telemetry::trace::{self, SpanKind};
use wedge_telemetry::Histogram;

use crate::fdtable::{FdId, FdProt};
use crate::tag::{CompartmentId, IdHashMap, MemProt, Tag};

/// One replicated policy mutation, recorded *after* validation against
/// the authoritative table — replaying an op can never fail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PolicyOp {
    /// Set (or, with `prot: None`, clear) one compartment's memory grant
    /// for a tag. Emitted by `policy_add`, `policy_del` and the implicit
    /// creator grant of `tag_new`.
    MemSet {
        /// The compartment whose policy changed.
        target: CompartmentId,
        /// The tag the grant names.
        tag: Tag,
        /// The resulting grant; `None` means revoked.
        prot: Option<MemProt>,
    },
    /// Set (or clear) one compartment's descriptor grant. Emitted by the
    /// implicit creator grant of `fd_create`.
    FdSet {
        /// The compartment whose policy changed.
        target: CompartmentId,
        /// The descriptor the grant names.
        fd: FdId,
        /// The resulting grant; `None` means revoked.
        prot: Option<FdProt>,
    },
    /// Replace a compartment's whole replicated view. Emitted on
    /// compartment creation, `widen_policy` merges, scrub resets and
    /// identity transitions — the rare, coarse mutations where a full
    /// snapshot is cheaper than a diff and obviously correct.
    Snapshot {
        /// The compartment whose policy changed.
        target: CompartmentId,
        /// The replacement view. Boxed so the rare, large snapshot does
        /// not inflate the enum the common grant/revoke ops are stored
        /// as — log appends move `PolicyOp` by value.
        view: Box<SnapshotView>,
    },
    /// The compartment exited: every replica forgets its view. Nothing may
    /// follow it for the same target — ids are never reused and the
    /// authoritative entry is removed in the same critical section.
    Retire {
        /// The compartment that exited.
        target: CompartmentId,
    },
}

/// The payload of a [`PolicyOp::Snapshot`]: one compartment's complete
/// replicated policy view.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotView {
    /// Whether the resulting policy is unconfined.
    pub unconfined: bool,
    /// The complete set of memory grants after the mutation.
    pub mem: Vec<(Tag, MemProt)>,
    /// The complete set of descriptor grants after the mutation.
    pub fds: Vec<(FdId, FdProt)>,
}

impl PolicyOp {
    /// The compartment this op mutates.
    pub fn target(&self) -> CompartmentId {
        match self {
            PolicyOp::MemSet { target, .. }
            | PolicyOp::FdSet { target, .. }
            | PolicyOp::Snapshot { target, .. }
            | PolicyOp::Retire { target } => *target,
        }
    }

    /// The op's serialized wire size in bytes (tag byte + fixed fields +
    /// grant entries). This is what a replay-based shard boot ships in
    /// place of an address-space image, so boot cost scales with logged
    /// operations rather than image size.
    pub fn encoded_len(&self) -> usize {
        match self {
            PolicyOp::MemSet { .. } => 1 + 8 + 8 + 2,
            PolicyOp::FdSet { .. } => 1 + 8 + 8 + 2,
            PolicyOp::Snapshot { view, .. } => {
                1 + 8 + 1 + 4 + 10 * (view.mem.len() + view.fds.len())
            }
            PolicyOp::Retire { .. } => 1 + 8,
        }
    }
}

/// A point-in-time view of the log's counters (see [`OpLog::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpLogStats {
    /// The current tail version (ops ever published).
    pub tail: u64,
    /// Version of the oldest resident entry; everything below was truncated.
    pub base: u64,
    /// Prefix truncations performed.
    pub truncations: u64,
    /// Total ops appended.
    pub appended: u64,
    /// Replica replay passes (a replica catching up to the tail).
    pub replays: u64,
    /// Ops applied across all replay passes.
    pub replayed_ops: u64,
}

/// The shared, monotonically versioned operation log.
///
/// Appends happen under the kernel's compartments write lock, so total
/// log order equals that lock's acquisition order; the tail is published
/// with `Release` after the entries are in place and read with `Acquire`
/// by every cache revalidation.
pub struct OpLog {
    /// The resident suffix: `entries[0]` is version `base`.
    entries: RwLock<Vec<PolicyOp>>,
    /// Stored only under the `entries` write lock.
    base: AtomicU64,
    tail: AtomicU64,
    truncations: AtomicU64,
    appended: AtomicU64,
    replays: AtomicU64,
    replayed_ops: AtomicU64,
    /// Live replay-latency histogram, bound by `Kernel::instrument`.
    replay_hist: std::sync::OnceLock<Histogram>,
}

impl Default for OpLog {
    fn default() -> Self {
        OpLog::new()
    }
}

impl OpLog {
    /// An empty log at version 0.
    pub fn new() -> OpLog {
        OpLog {
            entries: RwLock::new(Vec::new()),
            base: AtomicU64::new(0),
            tail: AtomicU64::new(0),
            truncations: AtomicU64::new(0),
            appended: AtomicU64::new(0),
            replays: AtomicU64::new(0),
            replayed_ops: AtomicU64::new(0),
            replay_hist: std::sync::OnceLock::new(),
        }
    }

    /// The published tail version (`Acquire`: a reader that sees version
    /// `v` also sees every entry below `v`).
    #[inline]
    pub fn tail(&self) -> u64 {
        self.tail.load(Ordering::Acquire)
    }

    /// Append `op` and publish the new tail, which is returned. The caller
    /// must hold the kernel's compartments write lock (the appender
    /// serialisation point), and must signal any completion only *after*
    /// this returns — the `Release` store here is what makes a finished
    /// mutation visible to every later-starting read.
    pub fn publish(&self, op: PolicyOp) -> u64 {
        // One relaxed load when the appending thread carries no trace;
        // otherwise the apply lands in the caller's request trace.
        let _span = trace::span(SpanKind::KernelApply, 1);
        let new_tail = {
            let mut entries = self.entries.write();
            entries.push(op);
            self.base.load(Ordering::Relaxed) + entries.len() as u64
        };
        self.appended.fetch_add(1, Ordering::Relaxed);
        self.tail.store(new_tail, Ordering::Release);
        new_tail
    }

    /// Version of the oldest resident entry.
    #[inline]
    pub fn base(&self) -> u64 {
        self.base.load(Ordering::Acquire)
    }

    /// Number of resident entries (`tail - base`).
    pub fn resident(&self) -> u64 {
        // Base first: it only grows, and never past the tail.
        let base = self.base();
        self.tail().saturating_sub(base)
    }

    /// Visit the half-open version range `[from, to)` in log order.
    /// Returns `false`, visiting nothing, when part of the range has been
    /// truncated (`from < base`); the check and the walk share one
    /// acquisition of the entries lock, so a concurrent truncation cannot
    /// split them.
    #[must_use = "a truncated range was not visited"]
    pub fn scan(&self, from: u64, to: u64, mut visit: impl FnMut(&PolicyOp)) -> bool {
        if from >= to {
            return true;
        }
        let entries = self.entries.read();
        let base = self.base.load(Ordering::Relaxed);
        if from < base {
            return false;
        }
        let to = ((to - base) as usize).min(entries.len());
        for op in &entries[((from - base) as usize).min(to)..to] {
            visit(op);
        }
        true
    }

    /// Drop every entry below version `upto`. The caller must hold the
    /// kernel's compartments write lock (so nothing is being appended) and
    /// must already have brought **every** replica to at least `upto`.
    pub fn truncate_to(&self, upto: u64) {
        let mut entries = self.entries.write();
        let base = self.base.load(Ordering::Relaxed);
        let dropped = (upto.saturating_sub(base) as usize).min(entries.len());
        if dropped == 0 {
            return;
        }
        entries.drain(..dropped);
        self.base.store(base + dropped as u64, Ordering::Release);
        self.truncations.fetch_add(1, Ordering::Relaxed);
    }

    /// Serialized size of the resident suffix. Together with a checkpoint
    /// of the live compartments (see `Kernel::oplog_bytes`) this is the
    /// control block a replay-based shard boot ships instead of an
    /// address-space image.
    pub fn encoded_bytes(&self) -> usize {
        self.entries.read().iter().map(PolicyOp::encoded_len).sum()
    }

    /// Bind the live replay-latency histogram (idempotent; the first
    /// telemetry registration wins).
    pub fn bind_replay_histogram(&self, hist: Histogram) {
        let _ = self.replay_hist.set(hist);
    }

    fn note_replay(&self, elapsed: Duration, ops: u64) {
        self.replays.fetch_add(1, Ordering::Relaxed);
        self.replayed_ops.fetch_add(ops, Ordering::Relaxed);
        if let Some(hist) = self.replay_hist.get() {
            hist.record_duration(elapsed);
        }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> OpLogStats {
        OpLogStats {
            tail: self.tail.load(Ordering::Acquire),
            base: self.base.load(Ordering::Acquire),
            truncations: self.truncations.load(Ordering::Relaxed),
            appended: self.appended.load(Ordering::Relaxed),
            replays: self.replays.load(Ordering::Relaxed),
            replayed_ops: self.replayed_ops.load(Ordering::Relaxed),
        }
    }
}

/// A compartment's replicated policy view: exactly the state the
/// permission-cache refill path needs, nothing more. It is also the shape
/// of a per-sthread permission cache, which folds the ops naming its own
/// compartment through the same [`PolicyView::apply`] a replica uses.
#[derive(Debug, Default, Clone)]
pub(crate) struct PolicyView {
    pub(crate) unconfined: bool,
    pub(crate) mem: IdHashMap<Tag, MemProt>,
    pub(crate) fds: IdHashMap<FdId, FdProt>,
}

impl PolicyView {
    /// Apply one op naming this view's compartment. `Retire` leaves the
    /// view holding nothing (a replica drops it outright).
    pub(crate) fn apply(&mut self, op: &PolicyOp) {
        match op {
            PolicyOp::MemSet { tag, prot, .. } => match prot {
                Some(prot) => {
                    self.mem.insert(*tag, *prot);
                }
                None => {
                    self.mem.remove(tag);
                }
            },
            PolicyOp::FdSet { fd, prot, .. } => match prot {
                Some(prot) => {
                    self.fds.insert(*fd, *prot);
                }
                None => {
                    self.fds.remove(fd);
                }
            },
            PolicyOp::Snapshot { view, .. } => {
                self.clear();
                self.unconfined = view.unconfined;
                self.mem.extend(view.mem.iter().copied());
                self.fds.extend(view.fds.iter().copied());
            }
            PolicyOp::Retire { .. } => self.clear(),
        }
    }

    /// Hold nothing (and confine): every access misses.
    pub(crate) fn clear(&mut self) {
        self.unconfined = false;
        self.mem.clear();
        self.fds.clear();
    }
}

struct ReplicaState {
    /// Log version this replica has applied up to.
    applied: u64,
    comps: IdHashMap<CompartmentId, PolicyView>,
}

impl ReplicaState {
    fn apply(&mut self, op: &PolicyOp) {
        match op {
            PolicyOp::Retire { target } => {
                self.comps.remove(target);
            }
            _ => self.comps.entry(op.target()).or_default().apply(op),
        }
    }
}

/// One kernel replica: a worker-shard-local copy of every compartment's
/// policy view, advanced by replaying the shared log. Reads (cache
/// refills) lock only this replica — never the authoritative table — so
/// the read majority carries zero cross-shard lock traffic.
pub struct KernelReplica {
    state: Mutex<ReplicaState>,
    /// Lock-free mirror of `state.applied` for the lag gauge.
    applied_hint: AtomicU64,
}

impl Default for KernelReplica {
    fn default() -> Self {
        KernelReplica::new()
    }
}

impl KernelReplica {
    /// A fresh replica at version 0 (it catches up on first use).
    pub fn new() -> KernelReplica {
        KernelReplica {
            state: Mutex::new(ReplicaState {
                applied: 0,
                comps: IdHashMap::default(),
            }),
            applied_hint: AtomicU64::new(0),
        }
    }

    /// The log version this replica has applied (lock-free; may lag the
    /// locked truth by one in-progress replay).
    pub fn applied(&self) -> u64 {
        self.applied_hint.load(Ordering::Relaxed)
    }

    /// Replay the log forward until this replica has applied at least
    /// `target`. No-op when already caught up; otherwise one locked pass
    /// over the new suffix, recorded in the replay-latency histogram.
    pub fn sync_to(&self, log: &OpLog, target: u64) {
        let mut state = self.state.lock();
        if state.applied >= target {
            return;
        }
        let started = Instant::now();
        let from = state.applied;
        let _span = trace::span(SpanKind::KernelReplay, (target - from) as u32);
        let st = &mut *state;
        // Truncation only ever drops a prefix every replica has applied.
        assert!(
            log.scan(from, target, |op| st.apply(op)),
            "replica at version {from} is behind the log's base"
        );
        state.applied = target;
        self.applied_hint.store(target, Ordering::Relaxed);
        log.note_replay(started.elapsed(), target - from);
    }

    /// Is `comp` known to this replica (i.e. was its creation replayed)?
    pub fn contains(&self, comp: CompartmentId) -> bool {
        self.state.lock().comps.contains_key(&comp)
    }

    /// Number of compartment views this replica holds.
    pub fn views(&self) -> usize {
        self.state.lock().comps.len()
    }

    /// Whether `comp`'s replicated policy is unconfined, or `None` when
    /// the compartment is unknown at this replica's applied version.
    pub fn unconfined(&self, comp: CompartmentId) -> Option<bool> {
        self.state.lock().comps.get(&comp).map(|c| c.unconfined)
    }

    /// `comp`'s replicated memory grant for `tag`. Outer `None` means the
    /// compartment itself is unknown.
    pub fn mem_grant(&self, comp: CompartmentId, tag: Tag) -> Option<Option<MemProt>> {
        let state = self.state.lock();
        let view = state.comps.get(&comp)?;
        if view.unconfined {
            return Some(Some(MemProt::ReadWrite));
        }
        Some(view.mem.get(&tag).copied())
    }

    /// `comp`'s replicated descriptor grant for `fd`. Outer `None` means
    /// the compartment itself is unknown.
    pub fn fd_grant(&self, comp: CompartmentId, fd: FdId) -> Option<Option<FdProt>> {
        let state = self.state.lock();
        let view = state.comps.get(&comp)?;
        if view.unconfined {
            return Some(Some(FdProt::ReadWrite));
        }
        Some(view.fds.get(&fd).copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const C1: CompartmentId = CompartmentId(1);
    const C2: CompartmentId = CompartmentId(2);

    #[test]
    fn publish_advances_the_tail_and_counts() {
        let log = OpLog::new();
        assert_eq!(log.tail(), 0);
        let tail = log.publish(PolicyOp::MemSet {
            target: C1,
            tag: Tag(7),
            prot: Some(MemProt::Read),
        });
        assert_eq!((tail, log.tail()), (1, 1));
        let stats = log.stats();
        assert_eq!(stats.appended, 1);
        assert_eq!(stats.tail, 1);
    }

    #[test]
    fn replica_replays_grants_revokes_and_snapshots() {
        let log = OpLog::new();
        let replica = KernelReplica::new();
        log.publish(PolicyOp::Snapshot {
            target: C1,
            view: Box::new(SnapshotView {
                unconfined: false,
                mem: vec![(Tag(1), MemProt::Read)],
                fds: vec![(FdId(4), FdProt::Write)],
            }),
        });
        log.publish(PolicyOp::MemSet {
            target: C1,
            tag: Tag(2),
            prot: Some(MemProt::ReadWrite),
        });
        replica.sync_to(&log, log.tail());
        assert_eq!(replica.mem_grant(C1, Tag(1)), Some(Some(MemProt::Read)));
        assert_eq!(
            replica.mem_grant(C1, Tag(2)),
            Some(Some(MemProt::ReadWrite))
        );
        assert_eq!(replica.fd_grant(C1, FdId(4)), Some(Some(FdProt::Write)));
        assert_eq!(replica.mem_grant(C2, Tag(1)), None, "unknown compartment");

        // A revoke replayed later removes the grant; the snapshot reset
        // drops everything the diff ops accumulated.
        log.publish(PolicyOp::MemSet {
            target: C1,
            tag: Tag(2),
            prot: None,
        });
        replica.sync_to(&log, log.tail());
        assert_eq!(replica.mem_grant(C1, Tag(2)), Some(None));
        log.publish(PolicyOp::Snapshot {
            target: C1,
            view: Box::new(SnapshotView {
                unconfined: false,
                mem: Vec::new(),
                fds: Vec::new(),
            }),
        });
        replica.sync_to(&log, log.tail());
        assert_eq!(replica.mem_grant(C1, Tag(1)), Some(None));
        assert_eq!(replica.applied(), log.tail());
        assert_eq!(log.stats().replays, 3);
    }

    #[test]
    fn sync_to_is_idempotent_and_lag_is_visible() {
        let log = OpLog::new();
        let replica = KernelReplica::new();
        log.publish(PolicyOp::MemSet {
            target: C1,
            tag: Tag(1),
            prot: Some(MemProt::Read),
        });
        assert_eq!(replica.applied(), 0, "lazy: nothing applied yet");
        replica.sync_to(&log, log.tail());
        replica.sync_to(&log, log.tail());
        assert_eq!(log.stats().replays, 1, "caught-up sync is free");
    }

    #[test]
    fn unconfined_snapshot_grants_everything() {
        let log = OpLog::new();
        let replica = KernelReplica::new();
        log.publish(PolicyOp::Snapshot {
            target: C1,
            view: Box::new(SnapshotView {
                unconfined: true,
                mem: Vec::new(),
                fds: Vec::new(),
            }),
        });
        replica.sync_to(&log, log.tail());
        assert_eq!(
            replica.mem_grant(C1, Tag(99)),
            Some(Some(MemProt::ReadWrite))
        );
        assert_eq!(
            replica.fd_grant(C1, FdId(99)),
            Some(Some(FdProt::ReadWrite))
        );
        assert_eq!(replica.unconfined(C1), Some(true));
        assert!(replica.contains(C1));
    }

    fn grant(target: CompartmentId, tag: u64) -> PolicyOp {
        PolicyOp::MemSet {
            target,
            tag: Tag(tag),
            prot: Some(MemProt::Read),
        }
    }

    #[test]
    fn retire_forgets_the_compartment_on_replay() {
        let log = OpLog::new();
        let replica = KernelReplica::new();
        log.publish(grant(C1, 1));
        log.publish(grant(C2, 1));
        replica.sync_to(&log, log.tail());
        assert_eq!(replica.views(), 2);
        log.publish(PolicyOp::Retire { target: C1 });
        replica.sync_to(&log, log.tail());
        assert_eq!(replica.mem_grant(C1, Tag(1)), None, "retired: unknown");
        assert_eq!(replica.mem_grant(C2, Tag(1)), Some(Some(MemProt::Read)));
        assert_eq!(replica.views(), 1);
        assert_eq!(PolicyOp::Retire { target: C1 }.encoded_len(), 9);
    }

    #[test]
    fn truncation_drops_the_applied_prefix_and_keeps_versions() {
        let log = OpLog::new();
        let replica = KernelReplica::new();
        for tag in 0..10 {
            log.publish(grant(C1, tag));
        }
        replica.sync_to(&log, 6);
        log.truncate_to(6);
        assert_eq!((log.base(), log.tail(), log.resident()), (6, 10, 4));
        assert_eq!(log.stats().truncations, 1);

        // A range below the base is refused whole; one at or above it is
        // served with version arithmetic intact.
        assert!(!log.scan(5, 10, |_| panic!("truncated range visited")));
        let mut seen = Vec::new();
        assert!(log.scan(6, 10, |op| seen.push(op.clone())));
        assert_eq!(seen, (6..10).map(|tag| grant(C1, tag)).collect::<Vec<_>>());
        assert!(
            log.scan(3, 3, |_| panic!("empty range")),
            "empty is vacuous"
        );

        // The replica picks up exactly where it was; appends keep counting
        // from the tail, not from the resident length.
        replica.sync_to(&log, log.tail());
        assert_eq!(replica.mem_grant(C1, Tag(9)), Some(Some(MemProt::Read)));
        assert_eq!(log.publish(grant(C1, 10)), 11);
        log.truncate_to(4);
        assert_eq!(log.base(), 6, "truncating below the base is a no-op");
        assert_eq!(log.stats().truncations, 1);
    }

    #[test]
    #[should_panic(expected = "behind the log's base")]
    fn a_replica_behind_the_base_is_a_bug_not_a_silent_gap() {
        let log = OpLog::new();
        log.publish(grant(C1, 1));
        log.publish(grant(C1, 2));
        log.truncate_to(2);
        KernelReplica::new().sync_to(&log, log.tail());
    }

    #[test]
    fn encoded_bytes_scale_with_ops_not_address_space() {
        let log = OpLog::new();
        for i in 0..100u64 {
            log.publish(PolicyOp::MemSet {
                target: C1,
                tag: Tag(i),
                prot: Some(MemProt::Read),
            });
        }
        let bytes = log.encoded_bytes();
        assert!(bytes > 0 && bytes < 16 * 1024, "compact: {bytes} bytes");
    }
}
