//! # wedge-chaos — seeded fault schedules for the Wedge serving stack
//!
//! The ROADMAP's north star is "millions of users" served **under
//! failure**; this crate is the failure half of that claim. It turns the
//! stack's fault-injection hooks — shard kills (`ShardSet::kill_shard`),
//! cache-node `kill()`/`restart()` epoch bumps, supervisor restart
//! storms, listener rate-limit floods — into a **deterministic, seeded,
//! replayable timeline**:
//!
//! * [`ChaosRng`] / [`Zipf`] — a seeded splitmix64 stream and a Zipf
//!   sampler (the vendored `rand` shim only has OS entropy, which is
//!   exactly wrong for replay). `wedge-e2e` draws its arrival schedule
//!   and skewed session reuse from the same generator.
//! * [`ChaosSchedule::generate`] — a pure function from [`ChaosPlan`]
//!   (seed, horizon, fault counts, victim spaces) to a sorted timeline of
//!   [`ScheduledFault`]s. Same plan, same schedule, bit for bit.
//! * [`inject()`] / [`spawn`] — walk the timeline against any
//!   [`ChaosTarget`] (`wedge-e2e` implements it over the full
//!   Apache + SSH + POP3 stack for its `mixed_chaos` workload), emitting one
//!   [`wedge_telemetry::TelemetryEvent::FaultInjected`] audit event per
//!   fault so a latency spike in the snapshot is attributable to the
//!   fault that caused it.
//!
//! The replay contract: a latency cliff found under seed N is reproduced
//! by re-running seed N — same faults, same order, same victims, same
//! audit stream. `tests` assert this end to end.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod inject;
pub mod rng;
pub mod schedule;

pub use inject::{inject, spawn, ChaosRun, ChaosTarget};
pub use rng::{ChaosRng, Zipf};
pub use schedule::{ChaosPlan, ChaosSchedule, Fault, ScheduledFault};
