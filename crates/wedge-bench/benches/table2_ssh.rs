//! Table 2 (bottom half): OpenSSH interactive latency — login delay and a
//! 10 MB scp upload, vanilla vs Wedge-partitioned.
//!
//! The paper's finding: Wedge's primitives add negligible latency to the
//! interactive application (0.145 s vs 0.148 s login; 0.376 s vs 0.370 s
//! scp). The expected shape here is the same: the two variants should be
//! within a few percent of each other, because the per-login cost of a
//! handful of sthreads/callgates is small compared with the protocol work.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use wedge_bench::{ssh_login, ssh_scp};

fn table2_ssh(c: &mut Criterion) {
    let mut group = c.benchmark_group("table2_ssh");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_millis(1200));

    for (label, wedged) in [("vanilla", false), ("wedge", true)] {
        group.bench_with_input(
            BenchmarkId::new("login_delay", label),
            &wedged,
            |b, &wedged| b.iter(|| ssh_login(wedged)),
        );
    }

    // 10 MB upload, as in the paper. The in-memory link is much faster than
    // the paper's LAN, so absolute numbers are not comparable; the
    // vanilla-vs-wedge *ratio* is what this bench establishes.
    const SCP_BYTES: usize = 10 * 1024 * 1024;
    for (label, wedged) in [("vanilla", false), ("wedge", true)] {
        group.bench_with_input(
            BenchmarkId::new("scp_10mb", label),
            &wedged,
            |b, &wedged| b.iter(|| ssh_scp(wedged, SCP_BYTES)),
        );
    }

    group.finish();
}

criterion_group!(benches, table2_ssh);
criterion_main!(benches);
