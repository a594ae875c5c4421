//! Table 2 (top half): Apache throughput — Vanilla vs Wedge vs Recycled,
//! with and without SSL session caching.
//!
//! The paper reports requests/second over a 1 Gbps LAN; this bench measures
//! the per-request service time of each variant over the in-memory link
//! (throughput is its reciprocal, less the LAN's network time). The
//! expected *shape*: Vanilla is
//! fastest; the Wedge partitioning pays per-request sthread/callgate costs
//! and the gap is widest when session caching removes the RSA handshake
//! work; recycled callgates claw part of the gap back.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use wedge_bench::{ApacheBed, ApacheVariant};

fn table2_apache(c: &mut Criterion) {
    let mut group = c.benchmark_group("table2_apache");
    group.sample_size(20);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_millis(1200));

    let variants = [
        ("vanilla", ApacheVariant::Vanilla),
        ("simple", ApacheVariant::Simple),
        ("wedge", ApacheVariant::Wedge),
        ("recycled", ApacheVariant::Recycled),
    ];

    for (label, variant) in variants {
        // Sessions cached: every measured connection resumes, so the server
        // never performs the RSA key exchange.
        group.bench_with_input(
            BenchmarkId::new("sessions_cached", label),
            &variant,
            |b, &variant| {
                let mut bed = ApacheBed::new(variant, 31);
                bed.warm();
                b.iter(|| bed.request("/index.html"))
            },
        );

        // Sessions not cached: every measured connection performs the full
        // handshake including the RSA decryption of the premaster secret.
        group.bench_with_input(
            BenchmarkId::new("sessions_not_cached", label),
            &variant,
            |b, &variant| {
                let mut bed = ApacheBed::new(variant, 32);
                b.iter(|| {
                    bed.forget_session();
                    bed.request("/index.html")
                })
            },
        );
    }

    group.finish();
}

criterion_group!(benches, table2_apache);
criterion_main!(benches);
