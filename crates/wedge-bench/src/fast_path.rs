//! The kernel fast-path experiment: op-log replicated tagged reads vs. the
//! two ablation tiers the repo's kernel grew through.
//!
//! The workload is the paper's Figure 7 primitive cost, scaled out: `N`
//! reader compartments hammer `mem_read` on buffers in shared tagged
//! memory. Three kernel profiles serve it:
//!
//! * [`KernelProfile::Legacy`] — [`wedge_core::Kernel::legacy_baseline`],
//!   the pre-sharding contention profile (one global lock around every
//!   access, a per-access compartment-name clone, no permission caches);
//! * [`KernelProfile::Sharded`] — [`wedge_core::Kernel::sharded_baseline`],
//!   the PR 2 design: sharded tables, per-sthread permission caches
//!   validated against a per-compartment **epoch**, fully flushed on any
//!   policy mutation;
//! * [`KernelProfile::OpLog`] — [`wedge_core::Kernel::new`], the shipping
//!   default: policy mutations flat-combined onto a shared versioned op
//!   log, reads served replica-locally, caches invalidated **precisely**
//!   by log version (see `wedge_core::oplog`).
//!
//! The pure-read workload separates legacy from the cached tiers; the
//! **mixed** workload ([`run_mixed_reads`]) is where op-log replication
//! earns its keep. Each tier runs its own deployment shape: the epoch
//! tiers replicate kernel state per forked shard (one kernel instance per
//! reader — PR 2's model), so a logical update to shard-replicated state
//! must be applied once *per instance*; the op-log kernel replicates
//! internally, so the same update is one flat-combined log append that
//! every replica observes. With a background mutator draining a fixed
//! quota of such updates, the op-log tier finishes the identical logical
//! workload well ahead of the broadcast tier. [`compare_boot_cost`]
//! measures the third claim: a shard booted by log replay ships KiB of
//! ops instead of an address-space image.

use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use wedge_core::{
    CompartmentId, Kernel, KernelStats, MemProt, SBuf, SecurityPolicy, SthreadCtx, Tag, WedgeError,
};
use wedge_net::Duplex;
use wedge_sched::{BootStrategy, ShardConfig, ShardServer, ShardSet};

/// The concurrent tagged-read workload.
#[derive(Debug, Clone, Copy)]
pub struct FastPathWorkload {
    /// Concurrent reader compartments.
    pub workers: usize,
    /// `mem_read`s per reader.
    pub iters_per_worker: usize,
    /// Bytes per read.
    pub payload: usize,
}

impl Default for FastPathWorkload {
    fn default() -> Self {
        FastPathWorkload {
            workers: 4,
            iters_per_worker: 10_000,
            payload: 32,
        }
    }
}

/// Which kernel profile serves the readers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelProfile {
    /// The pre-refactor baseline: one global lock, per-access name clone,
    /// no permission caches.
    Legacy,
    /// The PR 2 ablation tier: sharded tables with per-sthread permission
    /// caches validated against per-compartment epochs (any policy
    /// mutation flushes every cache bound to the compartment).
    Sharded,
    /// The shipping default: op-log replicated policy state with
    /// flat-combined mutations and version-precise cache invalidation.
    OpLog,
}

impl KernelProfile {
    /// Stable artifact/bench label for this tier.
    pub fn label(self) -> &'static str {
        match self {
            KernelProfile::Legacy => "legacy",
            KernelProfile::Sharded => "sharded",
            KernelProfile::OpLog => "oplog",
        }
    }
}

fn build_root(profile: KernelProfile) -> SthreadCtx {
    let kernel = match profile {
        KernelProfile::Legacy => Arc::new(Kernel::legacy_baseline()),
        KernelProfile::Sharded => Arc::new(Kernel::sharded_baseline()),
        KernelProfile::OpLog => Arc::new(Kernel::new()),
    };
    kernel.prewarm_tag_cache(2);
    kernel.create_root_compartment("bench-root")
}

/// Run the workload on the given kernel profile; returns the wall time from
/// the moment all readers are released to the last reader finishing.
pub fn run_concurrent_reads(profile: KernelProfile, workload: FastPathWorkload) -> Duration {
    let root = build_root(profile);
    drive_readers(&root, profile, workload)
}

/// [`run_concurrent_reads`] on the default (op-log) kernel with the kernel
/// **instrumented** on a fresh [`wedge_telemetry::Telemetry`] registry (no
/// sink installed) — the overhead-gate configuration: registration must
/// not slow the warm read path, because kernel counters are *pulled* at
/// snapshot time, never pushed per read. Returns the wall time plus the
/// post-run snapshot so callers can assert the reads actually showed up.
pub fn run_concurrent_reads_telemetered(
    workload: FastPathWorkload,
) -> (Duration, wedge_telemetry::TelemetrySnapshot) {
    let root = build_root(KernelProfile::OpLog);
    let telemetry = wedge_telemetry::Telemetry::new();
    root.kernel().instrument(&telemetry);
    let elapsed = drive_readers(&root, KernelProfile::OpLog, workload);
    (elapsed, telemetry.snapshot())
}

/// [`run_concurrent_reads_telemetered`] with a [`wedge_telemetry::Tracer`]
/// **installed but untriggered**: no listener mints a root trace, so every
/// trace hook on the serving path (sthread spawns, op-log appends) takes
/// its one-relaxed-load early exit. The tracing overhead gate compares
/// this against the sink-less telemetered run — the PR 6 baseline.
pub fn run_concurrent_reads_traced(
    workload: FastPathWorkload,
) -> (Duration, wedge_telemetry::TelemetrySnapshot) {
    let root = build_root(KernelProfile::OpLog);
    let telemetry = wedge_telemetry::Telemetry::new();
    root.kernel().instrument(&telemetry);
    telemetry.install_tracer(wedge_telemetry::Tracer::new(
        wedge_telemetry::TracerConfig::default(),
    ));
    let elapsed = drive_readers(&root, KernelProfile::OpLog, workload);
    (elapsed, telemetry.snapshot())
}

/// Untriggered-tracing overhead: `(baseline, traced)` pure-read wall
/// times, min over `rounds` interleaved rounds (a runner load spike lands
/// on both variants in the same round instead of biasing one block).
pub fn compare_traced_overhead(workload: FastPathWorkload, rounds: usize) -> (Duration, Duration) {
    let mut baseline = Duration::MAX;
    let mut traced = Duration::MAX;
    for _ in 0..rounds.max(1) {
        baseline = baseline.min(run_concurrent_reads_telemetered(workload).0);
        traced = traced.min(run_concurrent_reads_traced(workload).0);
    }
    (baseline, traced)
}

fn drive_readers(
    root: &SthreadCtx,
    profile: KernelProfile,
    workload: FastPathWorkload,
) -> Duration {
    let tag = root.tag_new().expect("tag");
    let payload: Vec<u8> = (0..workload.payload).map(|i| i as u8).collect();
    let buf = root.smalloc_init(tag, &payload).expect("buf");

    // One grant per reader; all readers share the tag (the Apache/SSH shape:
    // many workers, few hot shared regions).
    let barrier = Arc::new(Barrier::new(workload.workers + 1));
    let mut policy = SecurityPolicy::deny_all();
    policy.sc_mem_add(tag, MemProt::Read);

    let handles: Vec<_> = (0..workload.workers)
        .map(|i| {
            let barrier = barrier.clone();
            let expected = payload.clone();
            root.sthread_create(&format!("reader-{i}"), &policy, move |ctx| {
                barrier.wait();
                let mut dst = vec![0u8; expected.len()];
                let mut last = Vec::new();
                for _ in 0..workload.iters_per_worker {
                    if profile == KernelProfile::Legacy {
                        // The pre-refactor API: every read allocates its
                        // result and re-walks the policy table.
                        last = ctx.read(&buf, 0, expected.len()).expect("legacy read");
                    } else {
                        ctx.read_into(&buf, 0, &mut dst).expect("fast read");
                    }
                }
                // Verify once, outside the timed loop (and keep the reads
                // observable so the loop cannot be optimised away).
                if profile == KernelProfile::Legacy {
                    assert_eq!(last, expected);
                } else {
                    assert_eq!(dst, expected);
                }
            })
            .expect("spawn reader")
        })
        .collect();

    // Start the clock *before* releasing the barrier: on a 1-core box the
    // released workers can run to completion before this thread is
    // rescheduled, so a post-wait timestamp would miss the whole run.
    let started = Instant::now();
    barrier.wait();
    for handle in handles {
        handle.join().expect("reader");
    }
    started.elapsed()
}

/// Outcome of one mutation-heavy mixed run.
#[derive(Debug, Clone, Copy)]
pub struct MixedOutcome {
    /// Wall time from barrier release until the readers *and* the
    /// mutation quota have both drained — the fixed logical workload's
    /// total serving cost.
    pub elapsed: Duration,
    /// Physical policy mutations applied to drain the quota. On the
    /// per-process tiers every logical update is broadcast to each
    /// kernel instance, so this lands at roughly `workers ×` the op-log
    /// tier's count for the same logical work.
    pub mutations: u64,
}

/// Hot tagged regions per mixed-workload reader — the Apache-worker
/// shape: a request touches the connection buffer, the config, the
/// session entry, the log ring, … each under its own tag.
const MIXED_HOT_TAGS: usize = 8;

/// One kernel instance in the mixed-workload deployment: its root
/// context, the shard-replicated "config" compartment the mutator
/// updates, a distractor tag, and the reader hot set.
struct MixedShard {
    root: SthreadCtx,
    /// Parked until `release_config` drops (see [`build_mixed_shard`]).
    config: wedge_core::SthreadHandle<()>,
    release_config: std::sync::mpsc::Sender<()>,
    distractor: Tag,
    policy: SecurityPolicy,
    bufs: Vec<SBuf>,
}

fn build_mixed_shard(profile: KernelProfile, payload: &[u8]) -> MixedShard {
    let root = build_root(profile);
    let distractor = root.tag_new().expect("distractor tag");
    // The "config" principal: shard-replicated control-plane state. A
    // compartment is a mutation target only while it lives (exit retires
    // it), so the sthread parks until the run releases it.
    let (release_config, parked) = std::sync::mpsc::channel::<()>();
    let config = root
        .sthread_create("config", &SecurityPolicy::deny_all(), move |_| {
            let _ = parked.recv();
        })
        .expect("config compartment");
    let mut policy = SecurityPolicy::deny_all();
    let bufs: Vec<SBuf> = (0..MIXED_HOT_TAGS)
        .map(|_| {
            let tag = root.tag_new().expect("tag");
            policy.sc_mem_add(tag, MemProt::Read);
            root.smalloc_init(tag, payload).expect("buf")
        })
        .collect();
    MixedShard {
        root,
        config,
        release_config,
        distractor,
        policy,
        bufs,
    }
}

/// The mutation-heavy mixed workload, measured over each tier's **own
/// deployment shape**. The op-log kernel is internally replicated (one
/// instance, per-shard [`wedge_core::KernelReplica`]s), so one instance
/// serves every reader and a policy update is **one log append** that
/// reaches all replicas. The epoch tiers replicate at the process level —
/// PR 2's forked-shard model, one kernel per reader — so the same logical
/// update to shard-replicated state (here a "config" compartment present
/// on every instance) must be **broadcast**: applied once per kernel.
///
/// `workers` readers cycle over [`MIXED_HOT_TAGS`] hot tags while a
/// background mutator drains a fixed quota of logical config updates
/// (grant + revoke of a distractor tag), plus an occasional grant/revoke
/// aimed at a reader's own compartment to keep the invalidation path
/// honest (full cache flush on the epoch tiers, version-precise suffix
/// fold on the op-log tier). The workload is deterministic — same reads,
/// same logical updates — so elapsed wall time compares the tiers'
/// total cost for identical logical work.
pub fn run_mixed_reads(profile: KernelProfile, workload: FastPathWorkload) -> MixedOutcome {
    let instances = match profile {
        KernelProfile::OpLog => 1,
        KernelProfile::Legacy | KernelProfile::Sharded => workload.workers.max(1),
    };
    let payload: Vec<u8> = (0..workload.payload).map(|i| i as u8).collect();
    let shards: Vec<MixedShard> = (0..instances)
        .map(|_| build_mixed_shard(profile, &payload))
        .collect();

    let barrier = Arc::new(Barrier::new(workload.workers + 2));
    let handles: Vec<_> = (0..workload.workers)
        .map(|i| {
            let shard = &shards[i % instances];
            let barrier = barrier.clone();
            let expected = payload.clone();
            let bufs = shard.bufs.clone();
            shard
                .root
                .sthread_create(&format!("mixed-reader-{i}"), &shard.policy, move |ctx| {
                    barrier.wait();
                    let mut dst = vec![0u8; expected.len()];
                    let mut last = Vec::new();
                    for iter in 0..workload.iters_per_worker {
                        let buf = &bufs[iter % bufs.len()];
                        if profile == KernelProfile::Legacy {
                            last = ctx.read(buf, 0, expected.len()).expect("legacy read");
                        } else {
                            ctx.read_into(buf, 0, &mut dst).expect("fast read");
                        }
                    }
                    if profile == KernelProfile::Legacy {
                        assert_eq!(last, expected);
                    } else {
                        assert_eq!(dst, expected);
                    }
                })
                .expect("spawn reader")
        })
        .collect();

    // Targets for the occasional reader-aimed mutation: each reader's id
    // paired with the root of the kernel instance that hosts it.
    let reader_targets: Vec<(SthreadCtx, CompartmentId, Tag)> = handles
        .iter()
        .enumerate()
        .map(|(i, h)| {
            let shard = &shards[i % instances];
            (shard.root.clone(), h.id(), shard.distractor)
        })
        .collect();
    let config_targets: Vec<(SthreadCtx, CompartmentId, Tag)> = shards
        .iter()
        .map(|s| (s.root.clone(), s.config.id(), s.distractor))
        .collect();

    // Fixed quota: 3 logical config updates per reader iteration — a
    // mutation-heavy mix, so the tiers' update paths carry the bulk of
    // the measured work.
    let rounds = (workload.iters_per_worker * 3).max(1);
    let mutator = {
        let barrier = barrier.clone();
        std::thread::spawn(move || {
            barrier.wait();
            let mut count = 0u64;
            for round in 0..rounds {
                for (root, config, tag) in &config_targets {
                    root.grant_mem(*config, *tag, MemProt::Read)
                        .expect("grant config");
                    root.revoke_mem(*config, *tag).expect("revoke config");
                    count += 2;
                }
                if round % 64 == 0 {
                    let (root, id, tag) = &reader_targets[(round / 64) % reader_targets.len()];
                    // A reader that has already finished is retired: the
                    // kernel refuses mutations aimed at it on every tier.
                    for result in [
                        root.grant_mem(*id, *tag, MemProt::Read),
                        root.revoke_mem(*id, *tag),
                    ] {
                        match result {
                            Ok(()) => count += 1,
                            Err(WedgeError::UnknownCompartment(_)) => {}
                            Err(e) => panic!("reader-aimed mutation: {e}"),
                        }
                    }
                }
            }
            count
        })
    };

    // Start the clock before releasing the barrier (on a 1-core box the
    // released threads can finish before this one is rescheduled).
    let started = Instant::now();
    barrier.wait();
    for handle in handles {
        handle.join().expect("reader");
    }
    let mutations = mutator.join().expect("mutator");
    let elapsed = started.elapsed();
    for shard in shards {
        drop(shard.release_config);
        shard.config.join().expect("config exits");
    }
    MixedOutcome { elapsed, mutations }
}

/// Outcome of one legacy-vs-sharded comparison.
#[derive(Debug, Clone, Copy)]
pub struct FastPathComparison {
    /// Wall time on the legacy (global-lock) kernel.
    pub legacy: Duration,
    /// Wall time on the sharded-epoch kernel.
    pub sharded: Duration,
    /// `legacy / sharded` — how many times faster the sharded fast path is.
    pub speedup: f64,
}

/// Run the same workload on the legacy and sharded-epoch profiles.
pub fn compare_fast_path(workload: FastPathWorkload) -> FastPathComparison {
    let legacy = run_concurrent_reads(KernelProfile::Legacy, workload);
    let sharded = run_concurrent_reads(KernelProfile::Sharded, workload);
    FastPathComparison {
        legacy,
        sharded,
        speedup: legacy.as_secs_f64() / sharded.as_secs_f64().max(f64::EPSILON),
    }
}

/// A do-nothing shard server over a representative op-log kernel, used to
/// isolate *boot* cost: the factory builds the kernel and replays a
/// serving-stack-shaped prefix of policy ops (root + a few dozen tagged
/// segments), which is exactly the state a replay-based boot reconstructs.
struct BootProbeServer {
    kernel: Arc<Kernel>,
}

impl ShardServer for BootProbeServer {
    type Report = ();

    fn serve_link(&self, _shard: usize, _link: Duplex) -> Result<(), WedgeError> {
        Ok(())
    }

    fn kernel_stats(&self) -> KernelStats {
        self.kernel.stats()
    }
}

fn boot_probe_factory() -> Result<BootProbeServer, WedgeError> {
    let kernel = Arc::new(Kernel::new());
    let root = kernel.create_root_compartment("shard-root");
    // A serving stack's boot-time policy state: a few dozen tagged
    // segments with their implicit creator grants — each one a logged op
    // the child's replicas replay.
    for _ in 0..32 {
        let tag = root.tag_new()?;
        let _ = root.smalloc(64, tag)?;
    }
    Ok(BootProbeServer { kernel })
}

/// Mean per-shard boot cost under each [`BootStrategy`].
#[derive(Debug, Clone, Copy)]
pub struct BootComparison {
    /// Mean boot cost with classic full-image fork semantics.
    pub image_copy: Duration,
    /// Mean boot cost shipping only the serialized op log.
    pub log_replay: Duration,
}

fn mean_boot_cost(strategy: BootStrategy, shards: usize) -> Duration {
    let config = ShardConfig {
        shards,
        boot: strategy,
        ..ShardConfig::default()
    };
    let set = ShardSet::new(config, |_| boot_probe_factory()).expect("boot shard set");
    let stats = set.shard_stats();
    let total: Duration = stats.iter().map(|s| s.boot_cost).sum();
    total / stats.len().max(1) as u32
}

/// Boot `shards` shards under both strategies, `rounds` times each, and
/// return the **minimum** mean boot cost per strategy (scheduler noise
/// only ever adds wall time, so the min is the best estimate of the true
/// cost — the same estimator the read gates use).
pub fn compare_boot_cost(shards: usize, rounds: usize) -> BootComparison {
    let mut image_copy = Duration::MAX;
    let mut log_replay = Duration::MAX;
    for _ in 0..rounds.max(1) {
        image_copy = image_copy.min(mean_boot_cost(BootStrategy::ImageCopy, shards));
        log_replay = log_replay.min(mean_boot_cost(
            BootStrategy::LogReplay { log_bytes: 4096 },
            shards,
        ));
    }
    BootComparison {
        image_copy,
        log_replay,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Noise-robust speedup estimate: scheduler noise on a loaded 1-core
    /// runner only ever *adds* wall time, so the minimum over several
    /// interleaved rounds is the best estimate of each profile's true cost.
    fn measured_speedup(rounds: usize) -> (f64, Duration, Duration) {
        let workload = FastPathWorkload::default();
        let outcomes: Vec<_> = (0..rounds).map(|_| compare_fast_path(workload)).collect();
        let legacy = outcomes.iter().map(|r| r.legacy).min().expect("rounds");
        let sharded = outcomes.iter().map(|r| r.sharded).min().expect("rounds");
        (
            legacy.as_secs_f64() / sharded.as_secs_f64().max(f64::EPSILON),
            legacy,
            sharded,
        )
    }

    /// The PR 2 acceptance criterion, retained as an ablation gate: the
    /// sharded-epoch tier serves ≥3× the throughput of the pre-refactor
    /// kernel on 4-worker concurrent tagged reads. Release-only — an
    /// unoptimised build inflates both profiles with fixed
    /// interpreter-grade overhead that hides the locking and allocation
    /// deltas this measures (CI runs it via
    /// `cargo test --release -p wedge-bench fast_path`).
    #[cfg(not(debug_assertions))]
    #[test]
    fn fast_path_beats_legacy_by_3x_at_4_workers() {
        let (speedup, legacy, sharded) = measured_speedup(5);
        assert!(
            speedup >= 3.0,
            "expected ≥3x over the legacy kernel at 4 workers, got {speedup:.2}x \
             (legacy {legacy:?}, sharded {sharded:?})"
        );
    }

    /// The op-log acceptance criterion, part 1: on the **pure-read**
    /// workload the op-log tier must never be slower than the sharded
    /// epoch tier it replaces (its warm path is the same shape: one
    /// atomic load, one cache-map hit, one shard read lock). The 5%
    /// tolerance absorbs timer noise on a loaded 1-core runner; the bench
    /// artifact records the true ratio.
    #[cfg(not(debug_assertions))]
    #[test]
    fn oplog_pure_reads_match_the_sharded_tier() {
        let workload = FastPathWorkload::default();
        // Interleaved rounds: a load spike on the runner lands on both
        // tiers in the same round instead of biasing whichever tier's
        // block it happens to fall into.
        let mut sharded = Duration::MAX;
        let mut oplog = Duration::MAX;
        for _ in 0..9 {
            sharded = sharded.min(run_concurrent_reads(KernelProfile::Sharded, workload));
            oplog = oplog.min(run_concurrent_reads(KernelProfile::OpLog, workload));
        }
        let ratio = sharded.as_secs_f64() / oplog.as_secs_f64().max(f64::EPSILON);
        assert!(
            ratio >= 0.95,
            "op-log pure reads must not regress vs the sharded tier: \
             {ratio:.2}x (sharded {sharded:?}, oplog {oplog:?})"
        );
    }

    /// The op-log acceptance criterion, part 2 (the headline): with a
    /// background mutator draining a fixed quota of updates to
    /// shard-replicated policy state, the op-log tier must finish the
    /// identical logical workload (4 concurrent readers + the mutation
    /// quota) ≥1.5× as fast as the sharded-epoch tier — one flat-combined
    /// log append per update vs. a per-kernel-instance broadcast.
    #[cfg(not(debug_assertions))]
    #[test]
    fn oplog_beats_sharded_by_1_5x_on_the_mixed_workload() {
        let workload = FastPathWorkload::default();
        // Interleaved min-over-rounds, same rationale as the pure-read
        // gate above.
        let mut sharded = Duration::MAX;
        let mut oplog = Duration::MAX;
        for _ in 0..5 {
            sharded = sharded.min(run_mixed_reads(KernelProfile::Sharded, workload).elapsed);
            oplog = oplog.min(run_mixed_reads(KernelProfile::OpLog, workload).elapsed);
        }
        let speedup = sharded.as_secs_f64() / oplog.as_secs_f64().max(f64::EPSILON);
        assert!(
            speedup >= 1.5,
            "expected the op-log tier ≥1.5x over the sharded tier under a \
             mutation storm, got {speedup:.2}x (sharded {sharded:?}, oplog {oplog:?})"
        );
    }

    /// The op-log acceptance criterion, part 3: booting a shard by log
    /// replay (ship the KiB-sized op log, replay into fresh replicas)
    /// must cost no more than the classic full-image copy it replaces.
    #[cfg(not(debug_assertions))]
    #[test]
    fn replay_boot_is_not_costlier_than_image_copy() {
        let boot = compare_boot_cost(4, 8);
        assert!(
            boot.log_replay <= boot.image_copy,
            "replay-based shard boot must not cost more than the 1 MiB \
             image copy: replay {:?} vs image {:?}",
            boot.log_replay,
            boot.image_copy
        );
    }

    /// The telemetry overhead gate: with the (op-log) kernel *instrumented*
    /// on a live [`wedge_telemetry::Telemetry`] registry but **no sink
    /// installed**, the ≥3× speedup over the legacy kernel must still
    /// hold — i.e. registering metrics costs the warm read path nothing
    /// measurable (kernel counters are pulled at snapshot time, never
    /// pushed per read). The snapshot check pins that the instrumented
    /// run really was observed, so this cannot pass vacuously.
    #[cfg(not(debug_assertions))]
    #[test]
    fn fast_path_3x_gate_holds_with_telemetry_registered_no_sink() {
        let workload = FastPathWorkload::default();
        let mut legacy = Duration::MAX;
        let mut oplog = Duration::MAX;
        let mut reads_seen = 0u64;
        for _ in 0..5 {
            legacy = legacy.min(run_concurrent_reads(KernelProfile::Legacy, workload));
            let (elapsed, snapshot) = run_concurrent_reads_telemetered(workload);
            oplog = oplog.min(elapsed);
            reads_seen = reads_seen.max(snapshot.counter("kernel.read"));
        }
        let expected_reads = (workload.workers * workload.iters_per_worker) as u64;
        assert!(
            reads_seen >= expected_reads,
            "instrumented run must surface its reads in the snapshot: \
             saw {reads_seen}, expected ≥{expected_reads}"
        );
        let speedup = legacy.as_secs_f64() / oplog.as_secs_f64().max(f64::EPSILON);
        assert!(
            speedup >= 3.0,
            "telemetry registration (no sink) must not erode the 3x gate: \
             got {speedup:.2}x (legacy {legacy:?}, instrumented oplog {oplog:?})"
        );
    }

    /// The tracing overhead gate (the PR 10 satellite): a tracer
    /// **installed but untriggered** — compiled in, gate armed, no trace
    /// ever started — must keep the kernel fast-path read within 1.1× of
    /// the sink-less telemetered baseline. The started-counter check pins
    /// that the run really was untriggered, so the gate cannot pass by
    /// accidentally measuring a traced run against itself.
    #[cfg(not(debug_assertions))]
    #[test]
    fn untriggered_tracing_stays_within_10_percent_of_the_baseline() {
        let workload = FastPathWorkload::default();
        let (baseline, traced) = compare_traced_overhead(workload, 9);
        let (_, snapshot) = run_concurrent_reads_traced(workload);
        assert_eq!(
            snapshot.counter("trace.started"),
            0,
            "no root trace may start in the untriggered configuration"
        );
        let ratio = traced.as_secs_f64() / baseline.as_secs_f64().max(f64::EPSILON);
        assert!(
            ratio <= 1.1,
            "untriggered tracing must cost ≤1.1x the sink-less baseline: \
             got {ratio:.3}x (baseline {baseline:?}, traced {traced:?})"
        );
    }

    /// Debug-build sanity bound for the same workload, so plain
    /// `cargo test` still guards against a fast-path regression.
    #[cfg(debug_assertions)]
    #[test]
    fn fast_path_beats_legacy_even_unoptimised() {
        let (speedup, legacy, sharded) = measured_speedup(3);
        assert!(
            speedup >= 1.5,
            "expected ≥1.5x over the legacy kernel in a debug build, got {speedup:.2}x \
             (legacy {legacy:?}, sharded {sharded:?})"
        );
    }

    /// The mixed workload completes and actually mutates on every tier —
    /// the debug-build guard that the harness itself is sound (the timing
    /// gates above are release-only).
    #[test]
    fn mixed_workload_runs_on_every_tier() {
        let workload = FastPathWorkload {
            workers: 2,
            iters_per_worker: 200,
            payload: 16,
        };
        for profile in [
            KernelProfile::Legacy,
            KernelProfile::Sharded,
            KernelProfile::OpLog,
        ] {
            let outcome = run_mixed_reads(profile, workload);
            assert!(
                outcome.mutations > 0,
                "mutator must land mutations under {profile:?}"
            );
        }
    }

    /// All three profiles enforce the same policy: a reader without a
    /// grant faults identically on any kernel.
    #[test]
    fn profiles_agree_on_denials() {
        for profile in [
            KernelProfile::Legacy,
            KernelProfile::Sharded,
            KernelProfile::OpLog,
        ] {
            let root = build_root(profile);
            let tag = root.tag_new().unwrap();
            let buf = root.smalloc_init(tag, b"secret").unwrap();
            let handle = root
                .sthread_create("snoop", &SecurityPolicy::deny_all(), move |ctx| {
                    ctx.read(&buf, 0, 6).is_err()
                })
                .unwrap();
            assert!(handle.join().unwrap(), "denial must hold under {profile:?}");
        }
    }

    /// Replay-based boot really is replay-based: the probe factory's
    /// kernel carries a compact op log whose serialized size is a few KiB
    /// (vs the 1 MiB default fork image).
    #[test]
    fn boot_probe_log_is_compact() {
        let server = boot_probe_factory().expect("factory");
        let bytes = server.kernel.oplog_bytes().expect("op-log kernel");
        assert!(
            bytes > 0 && bytes < 64 * 1024,
            "serialized boot log should be KiB-scale, got {bytes} bytes"
        );
    }
}
