//! # wedge-bench — shared harness code for the evaluation benchmarks
//!
//! Each Criterion bench target under `benches/` regenerates one figure or
//! table of the paper's evaluation (§6); this library holds the pieces they
//! share: synthetic SPEC-like workloads for the Crowbar overhead experiment
//! (Figure 9) and end-to-end drivers for the Apache and OpenSSH case
//! studies (Table 2). Beside them sit the unit-scale, in-run ratio gates
//! ([`fast_path`], [`cachenet`], [`sharded`], `tests/bulk_path.rs`)
//! that compare two paths inside one process. Load over the whole serving
//! stack — open-loop arrivals, chaos, per-hop latency — is not measured
//! here: `wedge-e2e` (the `BENCHMARK.json` binary) is the only generator.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cachenet;
pub mod fast_path;
pub mod harness;
pub mod report;
pub mod sharded;
pub mod spec;

pub use cachenet::{
    cachenet_bench_json, measure_lookup_latency, run_cross_machine, CachenetWorkload,
    LatencyComparison, ResumptionRun,
};
pub use fast_path::{run_concurrent_reads, FastPathWorkload};
pub use harness::{apache_request, ssh_login, ssh_scp, ApacheBed, ApacheVariant, SshBed};
pub use sharded::{run_sequential, run_sharded, ShardedRun, ShardedWorkload};
pub use spec::{spec_workloads, SpecWorkload};
