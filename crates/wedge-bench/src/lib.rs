//! # wedge-bench — shared harness code for the evaluation benchmarks
//!
//! Each Criterion bench target under `benches/` regenerates one figure or
//! table of the paper's evaluation (§6); this library holds the pieces they
//! share: synthetic SPEC-like workloads for the Crowbar overhead experiment
//! (Figure 9) and end-to-end drivers for the Apache and OpenSSH case
//! studies (Table 2).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cachenet;
pub mod fast_path;
pub mod harness;
pub mod listener;
pub mod load;
pub mod pooled;
pub mod report;
pub mod sharded;
pub mod spec;

pub use cachenet::{
    cachenet_bench_json, measure_lookup_latency, run_cross_machine, CachenetWorkload,
    LatencyComparison, ResumptionRun,
};
pub use fast_path::{run_concurrent_reads, FastPathWorkload};
pub use harness::{apache_request, ssh_login, ssh_scp, ApacheBed, ApacheVariant, SshBed};
pub use listener::{
    listener_bench_json, measure_restart_latency, run_listener_pop3, ListenerRun, ListenerWorkload,
    RestartMeasurement,
};
pub use load::{
    load_bench_json, probe_idle_link_memory, run_load, run_load_with_plan, FrontReport,
    IdleLinkProbe, LoadPhase, LoadProfile, LoadRunReport, LoadStack, PhaseReport, ProtocolMix,
};
pub use pooled::{compare, run_pooled, run_sequential, PooledWorkload, ThroughputComparison};
pub use sharded::{
    compare_sharded, run_sharded, ShardScalingComparison, ShardedRun, ShardedWorkload,
};
pub use spec::{spec_workloads, SpecWorkload};
