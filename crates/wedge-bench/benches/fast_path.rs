//! The kernel fast-path experiment: concurrent tagged reads on one kernel,
//! plus the mutation-heavy mixed workload.
//!
//! Expected shape: pure reads scale with readers until the cores run out
//! (warm path: one atomic load, a cache hit, a shard read lock), and the
//! **mixed** workload costs little more per read, because mutations aimed
//! at other compartments leave a reader's cache warm. The companion
//! assertions (`cargo test --release -p wedge-bench fast_path`) pin the
//! telemetry and untriggered-tracing overhead gates.
//!
//! Alongside the criterion timing groups, the run emits
//! `BENCH_fast_path.json` (via `wedge_bench::report`) carrying the
//! pure-read and mixed wall times, the mutation count and the tracing
//! ratio.
//!
//! Set `WEDGE_FAST_PATH_SMOKE=1` to run a tiny workload — the CI smoke mode
//! that keeps the harness compiling, running and emitting the artifact
//! without burning minutes.

use std::time::Duration;

use criterion::{BenchmarkId, Criterion};

use wedge_bench::fast_path::{
    compare_traced_overhead, run_concurrent_reads, run_mixed_reads, FastPathWorkload,
};
use wedge_bench::report::{artifact_path, bench_artifact, millis};

fn smoke() -> bool {
    std::env::var_os("WEDGE_FAST_PATH_SMOKE").is_some()
}

fn workload(workers: usize) -> FastPathWorkload {
    FastPathWorkload {
        workers,
        iters_per_worker: if smoke() { 200 } else { 5_000 },
        payload: 64,
    }
}

fn fast_path_timing(c: &mut Criterion) {
    let mut group = c.benchmark_group("fast_path");
    if smoke() {
        group.sample_size(2);
        group.warm_up_time(Duration::from_millis(10));
        group.measurement_time(Duration::from_millis(50));
    } else {
        group.sample_size(10);
        group.warm_up_time(Duration::from_millis(200));
        group.measurement_time(Duration::from_millis(1500));
    }

    for workers in [1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("reads", workers),
            &workers,
            |b, workers| {
                b.iter(|| run_concurrent_reads(workload(*workers)));
            },
        );
    }
    group.bench_function("mixed", |b| {
        b.iter(|| run_mixed_reads(workload(4)).elapsed);
    });
    group.finish();
}

/// Min-over-rounds: scheduler noise only ever adds wall time, so the
/// minimum is the best estimate of the true cost.
fn min_over(rounds: usize, mut run: impl FnMut() -> Duration) -> Duration {
    (0..rounds.max(1)).map(|_| run()).min().expect("rounds")
}

fn emit_json() {
    let rounds = if smoke() { 1 } else { 3 };
    let wl = workload(4);

    let pure = min_over(rounds, || run_concurrent_reads(wl));
    let mut mutations = 0u64;
    let mixed = min_over(rounds, || {
        let outcome = run_mixed_reads(wl);
        mutations = mutations.max(outcome.mutations);
        outcome.elapsed
    });

    // Untriggered-tracing overhead: tracer installed, no trace started.
    // The release gate asserts ≤1.1×; the artifact pins the measured
    // ratio so drift is visible between releases.
    let (trace_baseline, trace_traced) = compare_traced_overhead(wl, rounds.max(3));

    let json = bench_artifact("fast_path", |w| {
        w.field_bool("smoke", smoke());
        w.nested("workload", |w| {
            w.field_u64("workers", wl.workers as u64);
            w.field_u64("iters_per_worker", wl.iters_per_worker as u64);
            w.field_u64("payload", wl.payload as u64);
        });
        w.field_f64("pure_read_ms", millis(pure));
        w.nested("mixed", |w| {
            w.field_f64("ms", millis(mixed));
            w.field_u64("mutations", mutations);
        });
        w.nested("tracing", |w| {
            w.field_f64("baseline_ms", millis(trace_baseline));
            w.field_f64("traced_untriggered_ms", millis(trace_traced));
            w.field_f64(
                "traced_over_baseline",
                trace_traced.as_secs_f64() / trace_baseline.as_secs_f64().max(f64::EPSILON),
            );
        });
    });

    let path = artifact_path("fast_path");
    std::fs::write(&path, &json).expect("write BENCH_fast_path.json");
    println!("wrote {path}");
    println!("{json}");
}

fn main() {
    let mut criterion = Criterion::default().configure_from_args();
    fast_path_timing(&mut criterion);
    emit_json();
}
