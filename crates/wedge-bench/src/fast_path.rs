//! The kernel fast-path experiment: concurrent tagged reads on one
//! kernel, with and without a mutation storm — the workspace's only
//! measurement of several runnable readers sharing a kernel.
//!
//! The workload is the paper's Figure 7 primitive cost, scaled out: `N`
//! reader compartments hammer `mem_read` on buffers in shared tagged
//! memory, served by [`wedge_core::Kernel::new`] — each reader's
//! permission cache revalidates on its own compartment's version cell
//! and refills from the compartment table (see `wedge_core::kernel`).
//!
//! [`run_concurrent_reads`] is the pure-read workload; the **mixed**
//! workload ([`run_mixed_reads`]) adds a background mutator draining a
//! fixed quota of grant/revoke pairs, almost all aimed at a compartment
//! the readers are not — the case per-compartment cells exist for.
//! (`crates/wedge-core/README.md` keeps the dated tables of this workload
//! against the kernel designs this one replaced.)

use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use wedge_core::{Kernel, MemProt, SBuf, SecurityPolicy, SthreadCtx, WedgeError};

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

fn build_root() -> SthreadCtx {
    let kernel = Arc::new(Kernel::new());
    kernel.prewarm_tag_cache(2);
    kernel.create_root_compartment("bench-root")
}

/// Run the workload; returns the wall time from the moment all readers
/// are released to the last reader finishing.
pub fn run_concurrent_reads(workload: FastPathWorkload) -> Duration {
    drive_readers(&build_root(), workload)
}

/// [`run_concurrent_reads`] with the kernel **instrumented** on a fresh
/// [`wedge_telemetry::Telemetry`] registry (no sink installed) — the
/// overhead-gate configuration: registration must not slow the warm read
/// path, because kernel counters are *pulled* at snapshot time, never
/// pushed per read. Returns the wall time plus the post-run snapshot so
/// callers can assert the reads actually showed up.
pub(crate) fn run_concurrent_reads_telemetered(
    workload: FastPathWorkload,
) -> (Duration, wedge_telemetry::TelemetrySnapshot) {
    let root = build_root();
    let telemetry = wedge_telemetry::Telemetry::new();
    root.kernel().instrument(&telemetry);
    let elapsed = drive_readers(&root, workload);
    (elapsed, telemetry.snapshot())
}

/// [`run_concurrent_reads_telemetered`] with a [`wedge_telemetry::Tracer`]
/// **installed but untriggered**: no listener mints a root trace, so every
/// trace hook on the serving path (sthread spawns, policy mutations) takes
/// its one-relaxed-load early exit. The tracing overhead gate compares
/// this against the sink-less telemetered run — the PR 6 baseline.
pub(crate) fn run_concurrent_reads_traced(
    workload: FastPathWorkload,
) -> (Duration, wedge_telemetry::TelemetrySnapshot) {
    let root = build_root();
    let telemetry = wedge_telemetry::Telemetry::new();
    root.kernel().instrument(&telemetry);
    telemetry.install_tracer(wedge_telemetry::Tracer::new(
        wedge_telemetry::TracerConfig::default(),
    ));
    let elapsed = drive_readers(&root, workload);
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

fn drive_readers(root: &SthreadCtx, workload: FastPathWorkload) -> Duration {
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
                for _ in 0..workload.iters_per_worker {
                    ctx.read_into(&buf, 0, &mut dst).expect("fast read");
                }
                // Verify once, outside the timed loop (and keep the reads
                // observable so the loop cannot be optimised away).
                assert_eq!(dst, expected);
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
    /// mutation quota have both drained — the fixed workload's total
    /// serving cost.
    pub elapsed: Duration,
    /// Policy mutations applied to drain the quota.
    pub mutations: u64,
}

/// Hot tagged regions per mixed-workload reader — the Apache-worker
/// shape: a request touches the connection buffer, the config, the
/// session entry, the log ring, … each under its own tag.
const MIXED_HOT_TAGS: usize = 8;

/// The mutation-heavy mixed workload: `workers` readers cycle over
/// `MIXED_HOT_TAGS` (8) hot tags while a background mutator drains a fixed
/// quota of updates to a "config" compartment (grant + revoke of a
/// distractor tag — each one bump of a cell no reader's cache watches),
/// plus an occasional grant/revoke aimed at a reader's own compartment to
/// keep the invalidation path honest (that reader's cache flushes and
/// refills). The workload is deterministic — same
/// reads, same updates — so elapsed wall time is comparable across runs.
pub fn run_mixed_reads(workload: FastPathWorkload) -> MixedOutcome {
    let payload: Vec<u8> = (0..workload.payload).map(|i| i as u8).collect();
    let root = build_root();
    let distractor = root.tag_new().expect("distractor tag");
    // The "config" principal: control-plane state the mutator updates. A
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
            root.smalloc_init(tag, &payload).expect("buf")
        })
        .collect();

    let barrier = Arc::new(Barrier::new(workload.workers + 2));
    let handles: Vec<_> = (0..workload.workers)
        .map(|i| {
            let barrier = barrier.clone();
            let expected = payload.clone();
            let bufs = bufs.clone();
            root.sthread_create(&format!("mixed-reader-{i}"), &policy, move |ctx| {
                barrier.wait();
                let mut dst = vec![0u8; expected.len()];
                for iter in 0..workload.iters_per_worker {
                    ctx.read_into(&bufs[iter % bufs.len()], 0, &mut dst)
                        .expect("fast read");
                }
                assert_eq!(dst, expected);
            })
            .expect("spawn reader")
        })
        .collect();
    let readers: Vec<_> = handles.iter().map(|h| h.id()).collect();

    // Fixed quota: 3 config updates per reader iteration — a
    // mutation-heavy mix, so the update path carries the bulk of the
    // measured work.
    let rounds = (workload.iters_per_worker * 3).max(1);
    let mutator = {
        let barrier = barrier.clone();
        let root = root.clone();
        let config = config.id();
        std::thread::spawn(move || {
            barrier.wait();
            let mut count = 0u64;
            for round in 0..rounds {
                root.grant_mem(config, distractor, MemProt::Read)
                    .expect("grant config");
                root.revoke_mem(config, distractor).expect("revoke config");
                count += 2;
                if round % 64 == 0 {
                    let reader = readers[(round / 64) % readers.len()];
                    // A reader that has already finished is retired: the
                    // kernel refuses mutations aimed at it.
                    for result in [
                        root.grant_mem(reader, distractor, MemProt::Read),
                        root.revoke_mem(reader, distractor),
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
    drop(release_config);
    config.join().expect("config exits");
    MixedOutcome { elapsed, mutations }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The timing gates compare wall times within 10 %: they (and the one
    /// other test here that spins up reader threads) run one at a time,
    /// not on the parallel threads `cargo test` would give them.
    static ONE_AT_A_TIME: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn alone() -> std::sync::MutexGuard<'static, ()> {
        ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The telemetry overhead gate: with the kernel *instrumented* on a
    /// live [`wedge_telemetry::Telemetry`] registry but **no sink
    /// installed**, the warm read path must stay within 1.1× of the
    /// un-instrumented run — kernel counters are pulled at snapshot time,
    /// never pushed per read. Interleaved min-of-rounds: scheduler noise
    /// only ever adds wall time, and a load spike lands on both variants
    /// of a round. The snapshot check pins that the instrumented run
    /// really was observed, so this cannot pass vacuously. Release-only —
    /// an unoptimised build buries the delta under fixed overhead (CI runs
    /// it via `cargo test --release -p wedge-bench fast_path`).
    #[cfg(not(debug_assertions))]
    #[test]
    fn telemetry_registered_no_sink_stays_within_10_percent_of_uninstrumented() {
        let _alone = alone();
        let workload = FastPathWorkload::default();
        let mut bare = Duration::MAX;
        let mut instrumented = Duration::MAX;
        let mut reads_seen = 0u64;
        for _ in 0..9 {
            bare = bare.min(run_concurrent_reads(workload));
            let (elapsed, snapshot) = run_concurrent_reads_telemetered(workload);
            instrumented = instrumented.min(elapsed);
            reads_seen = reads_seen.max(snapshot.counter("kernel.read"));
        }
        let expected_reads = (workload.workers * workload.iters_per_worker) as u64;
        assert!(
            reads_seen >= expected_reads,
            "instrumented run must surface its reads in the snapshot: \
             saw {reads_seen}, expected ≥{expected_reads}"
        );
        let ratio = instrumented.as_secs_f64() / bare.as_secs_f64().max(f64::EPSILON);
        assert!(
            ratio <= 1.1,
            "telemetry registration (no sink) must cost ≤1.1x the bare read path: \
             got {ratio:.3}x (bare {bare:?}, instrumented {instrumented:?})"
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
        let _alone = alone();
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

    /// The mixed workload completes and actually mutates — the
    /// debug-build guard that the harness itself is sound (the timing
    /// gates above are release-only).
    #[test]
    fn mixed_workload_runs_and_mutates() {
        let _alone = alone();
        let outcome = run_mixed_reads(FastPathWorkload {
            workers: 2,
            iters_per_worker: 200,
            payload: 16,
        });
        assert!(
            outcome.mutations >= 2 * 600,
            "the config quota always lands: {outcome:?}"
        );
    }

    /// A reader without a grant faults.
    #[test]
    fn a_reader_without_a_grant_is_denied() {
        let root = build_root();
        let tag = root.tag_new().unwrap();
        let buf = root.smalloc_init(tag, b"secret").unwrap();
        let handle = root
            .sthread_create("snoop", &SecurityPolicy::deny_all(), move |ctx| {
                ctx.read(&buf, 0, 6).is_err()
            })
            .unwrap();
        assert!(handle.join().unwrap());
    }
}
