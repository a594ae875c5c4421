//! # wedge-sched — a concurrent compartment scheduler for Wedge workloads
//!
//! The paper's recycled callgates (§3.3, Table 2) amortise compartment
//! creation over successive invocations, but the reproduction's servers
//! still served connections *sequentially per server instance*. This crate
//! is the subsystem that lifts them to concurrent operation:
//!
//! * **Admission control and backpressure** — in-flight links are charged
//!   against a [`wedge_core::resource::ResourceAccountant`], so exhaustion
//!   surfaces as the same [`wedge_core::WedgeError::ResourceExhausted`] the
//!   resource quotas use, and full shard queues reject instead of growing
//!   without bound.
//! * [`SchedStats`] — `KernelStats`-style counters for every placement
//!   decision (submitted, completed, rejected, stolen, peak depths).
//! * [`ShardSet`] + [`Acceptor`] — the **multi-process sharding front-end**:
//!   N forked shard workers, each owning an independent simulated kernel
//!   (the control-block/descriptor-copy cost is charged once at boot via
//!   `wedge_core::procsim::ForkSim` and amortised by pre-warming), behind a
//!   shared acceptor with pluggable placement policies (round-robin,
//!   least-loaded, session-affinity hashing with deterministic
//!   next-healthy fallback), per-shard health and admission backpressure,
//!   and kill-time re-routing of queued links ([`KillReport`]).
//! * [`Supervisor`] — the shard watchdog: auto-restarts killed shards
//!   (fresh kernel via the retained factory, old ring index) with bounded
//!   exponential backoff and restart-storm detection; [`RestartStats`]
//!   counts revivals and kill-to-healthy latency.
//! * [`ShardedFrontEnd`] — the protocol-agnostic serving front-end tying
//!   the layers together: one generic config/serve-loop/aggregation shell
//!   over `ShardSet` + `Acceptor` + `Supervisor`, including
//!   [`front::ShardedFrontEnd::serve_listener`], the accept loop over a
//!   [`wedge_net::Listener`] that derives source-address affinity keys.
//!   The Apache, SSH and POP3 front-ends are thin wrappers around it.
//!   A front-end can register the [`wedge_tls::SessionStore`] its shards
//!   consult ([`front::ShardedFrontEnd::with_session_store`]) — the
//!   in-process shared cache or a `wedge-cachenet` remote ring — and
//!   expose resumption health
//!   ([`front::ShardedFrontEnd::resumption_hit_rate`]).
//!
//! `wedge-apache` builds its concurrent front-end and `wedge-ssh` its
//! pooled privsep monitors on top of this crate; `wedge-bench` measures the
//! sequential-vs-pooled and single-vs-many-shard throughput gaps. See
//! `README.md` for the isolation trade-offs.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod acceptor;
pub mod front;
pub mod metrics;
pub mod shard;
pub mod supervisor;

pub use acceptor::{hash_name, shard_for_key, AcceptPolicy, Acceptor, ShardJobHandle};
pub use front::{FrontEndConfig, ShardedFrontEnd};
pub use metrics::SchedStats;
pub use shard::{KillReport, ShardConfig, ShardHealth, ShardServer, ShardSet, ShardStats};
pub use supervisor::{RestartStats, Supervisor, SupervisorConfig};
