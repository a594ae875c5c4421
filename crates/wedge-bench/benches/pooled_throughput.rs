//! The wedge-sched experiment: sequential vs. pooled connection service on
//! the simulated Apache workload (full TLS handshake + one GET per
//! connection, 5 ms client think time).
//!
//! Expected shape: the sequential server pays every client's think time
//! serially; the pooled front-end overlaps them, so wall time per batch
//! drops roughly linearly with worker count until workers exceed the
//! batch's parallelism. The companion assertion (`cargo test -p
//! wedge-bench sharded`) pins the ≥2× criterion at 4 workers.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use wedge_bench::sharded::{run_sequential, run_sharded, ShardedWorkload};

fn workload() -> ShardedWorkload {
    ShardedWorkload {
        connections: 12,
        think_time: Duration::from_millis(5),
        seed: 77,
    }
}

fn pooled_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("pooled_throughput");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(200));
    group.measurement_time(Duration::from_millis(1500));

    group.bench_function("sequential", |b| {
        b.iter(|| run_sequential(workload()));
    });

    for workers in [1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("pooled", workers),
            &workers,
            |b, workers| {
                b.iter(|| run_sharded(workload(), *workers));
            },
        );
    }
    group.finish();
}

criterion_group!(benches, pooled_throughput);
criterion_main!(benches);
