//! # wedge-apache — the Apache/OpenSSL case study (§5.1)
//!
//! Three server variants over the same [`wedge_tls`] protocol and the same
//! tiny HTTP engine, so that the paper's security and performance
//! comparisons can be reproduced end to end:
//!
//! * [`vanilla::VanillaApache`] — the monolithic baseline: handshake,
//!   private key, session keys and request handling all live in one
//!   compartment (one pooled worker), as in unmodified Apache/OpenSSL.
//! * [`simple::SimpleApache`] — the §5.1.1 partitioning: one unprivileged
//!   worker sthread per connection; the RSA private key lives in tagged
//!   memory reachable only by the `setup_session_key` callgate, which also
//!   generates the server random itself. The worker receives the session
//!   key (so it can run the connection) but can never see or use the
//!   private key.
//! * [`partitioned::WedgeApache`] — the §5.1.2 (man-in-the-middle-hardened)
//!   partitioning: a master per connection runs an `ssl_handshake` sthread
//!   (network-facing, **no** session-key access) and then a
//!   `client_handler` sthread (no network access, no session-key access);
//!   five callgates (`begin_handshake`, `setup_session_key`,
//!   `receive_finished`, `send_finished`, `ssl_read`/`ssl_write`) own the
//!   private key, the session key and the `finished_state` regions.
//!   A constructor flag selects standard callgates on per-connection
//!   sthreads, or *recycled* callgates on recycled sthreads (the Table 2
//!   "Wedge" vs "Recycled" columns).
//!
//! [`concurrent::ConcurrentApache`] is the concurrent front-end:
//! partitioned instances, one per shard, behind a `wedge-sched`
//! acceptor, serving many connections simultaneously behind bounded
//! queues — the production-scale path the sequential variants lack.
//!
//! [`attacks`] drives the exploit and man-in-the-middle scenarios against
//! each variant, and [`metrics`] reports the partitioning metrics of §5.1.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod attacks;
pub mod concurrent;
pub mod http;
pub mod metrics;
pub mod partitioned;
pub mod simple;
pub mod state;
pub mod vanilla;

pub use concurrent::{ConcurrentApache, ConcurrentApacheConfig};
pub use http::{HttpRequest, PageStore};
pub use partitioned::{ApacheConfig, WedgeApache};
pub use simple::SimpleApache;
pub use vanilla::VanillaApache;
