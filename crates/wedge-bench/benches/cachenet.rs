//! Distributed session-cache benchmarks: remote lookup latency against a
//! 3-node ring, and cross-machine resumption at 1 vs 3 cache nodes with
//! a node killed between the phases.
//!
//! Besides the Criterion timings this bench emits the machine-readable
//! artifact **`BENCH_cachenet.json`** — local-vs-remote lookup latency
//! (and their ratio) plus the resumption rates under a node kill — to
//! the path in
//! `WEDGE_BENCH_JSON` (default: `BENCH_cachenet.json` at the workspace
//! root), so CI can trend the cache protocol without scraping logs.
//!
//! Set `WEDGE_CACHENET_SMOKE=1` to run a tiny workload — the CI smoke
//! mode that keeps the harness compiling and running without burning
//! minutes.

use std::time::Duration;

use criterion::{BenchmarkId, Criterion};

use wedge_bench::cachenet::{
    cachenet_bench_json, measure_lookup_latency, ring_for, run_cross_machine, spawn_nodes,
    CachenetWorkload,
};
use wedge_tls::{SessionId, SessionStore};

fn smoke() -> bool {
    std::env::var_os("WEDGE_CACHENET_SMOKE").is_some()
}

fn workload() -> CachenetWorkload {
    CachenetWorkload {
        sessions: if smoke() { 8 } else { 30 },
        lookups: if smoke() { 64 } else { 512 },
    }
}

fn ring_lookup_latency(criterion: &mut Criterion) {
    let mut group = criterion.benchmark_group("cachenet");
    if smoke() {
        group.sample_size(2);
        group.warm_up_time(Duration::from_millis(10));
        group.measurement_time(Duration::from_millis(50));
    } else {
        group.sample_size(10);
        group.warm_up_time(Duration::from_millis(200));
        group.measurement_time(Duration::from_millis(1000));
    }
    for node_count in [1usize, 3] {
        let nodes = spawn_nodes(node_count);
        let ring = ring_for(&nodes, 1);
        let id = SessionId::from_bytes(&[7u8; 16]).expect("id");
        ring.insert(id, b"premaster-secret".to_vec());
        group.bench_with_input(
            BenchmarkId::new("remote_lookup", node_count),
            &node_count,
            |b, _| {
                b.iter(|| ring.lookup(&id).expect("hit"));
            },
        );
    }
    group.finish();
}

fn emit_json() {
    let workload = workload();
    let latency = measure_lookup_latency(workload.lookups);
    let single = run_cross_machine(workload.sessions, 1, true);
    let three = run_cross_machine(workload.sessions, 3, true);
    let json = cachenet_bench_json(workload, &latency, &single, &three);
    let path = wedge_bench::report::artifact_path("cachenet");
    std::fs::write(&path, &json).expect("write bench artifact");
    println!("wrote {path}:\n{json}");
}

fn main() {
    let mut criterion = Criterion::default().configure_from_args();
    ring_lookup_latency(&mut criterion);
    emit_json();
}
