//! # wedge-sched — a concurrent compartment scheduler for Wedge workloads
//!
//! The paper's recycled callgates (§3.3, Table 2) amortise compartment
//! creation over successive invocations, but the reproduction's servers
//! still served connections *sequentially per server instance*. This crate
//! is the subsystem that lifts them to concurrent operation:
//!
//! * **Backpressure** — each shard's link queue is bounded; a full queue
//!   refuses, and a link every shard refuses surfaces as the same
//!   [`wedge_core::WedgeError::ResourceExhausted`] the resource quotas use
//!   instead of queuing without bound.
//! * [`ShardSet`] + [`Acceptor`] — the **sharding front-end**: N shard
//!   workers, threads of one process, each owning an independent simulated
//!   kernel its factory builds once at boot, before the first connection,
//!   behind a shared acceptor with pluggable placement policies
//!   (round-robin, session-affinity hashing; both fall back
//!   deterministically to the next healthy shard), per-shard health and
//!   bounded-queue backpressure,
//!   and kill-time re-routing of queued links ([`KillReport`]). Its
//!   telemetry collector names every placement count (`sched.submitted`,
//!   `.completed`, `.rejected`, `.stolen`) and the shard gauges.
//! * [`Supervisor`] — the shard watchdog: auto-restarts killed shards
//!   (fresh kernel via the retained factory, old ring index) with bounded
//!   exponential backoff and restart-storm detection; its collector
//!   counts revivals and kill-to-healthy latency (`supervisor.*`).
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
//! pooled privsep monitors on top of this crate; `wedge-bench` measures
//! sequential service against N shards (`run_sharded`, the bench's
//! `pooled/{n}` rows) and one shard against many. See `README.md` for the
//! isolation trade-offs.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod acceptor;
pub mod front;
pub mod shard;
pub mod supervisor;

pub use acceptor::{shard_for_key, AcceptPolicy, Acceptor, ShardJobHandle};
pub use front::{FrontEndConfig, ServeTally, ShardedFrontEnd};
pub use shard::{KillReport, ShardConfig, ShardHealth, ShardServer, ShardSet, ShardStats};
pub use supervisor::{Supervisor, SupervisorConfig};
