//! # wedge-ssh — the OpenSSH case study (§5.2)
//!
//! A small SSH-like login server reproduced in three forms so the paper's
//! §5.2 goals can be exercised:
//!
//! * [`vanilla::VanillaSsh`] — monolithic: host private key, shadow file and
//!   request parsing share one compartment (pre-privilege-separation
//!   OpenSSH 3.1p1, the paper's starting point).
//! * [`privsep`] — the *lesson* modules: the username-probing information
//!   leak present in Provos-style privilege-separated OpenSSH (the monitor
//!   returns `NULL` for unknown users), and the PAM scratch-memory leak a
//!   fork-based slave inherits — both of which the Wedge partitioning
//!   avoids.
//! * [`server::WedgeSsh`] — the Wedge partitioning: an unprivileged,
//!   network-facing **worker** sthread per connection (uid `sshd`, empty
//!   filesystem root, read access only to the host *public* key and the
//!   server configuration), and four callgates — `host_sign` (the only code
//!   able to touch the host private key; it signs only hashes it computes
//!   itself), `password_auth`, `pubkey_auth` and `skey_auth` (each with
//!   access to its own credential store; on success they escalate the
//!   uid and filesystem root of the worker that invoked them).
//!   Authentication cannot be bypassed: the only way for a worker to change
//!   its uid is a successful callgate it called itself, so one server serves
//!   overlapping connections.
//!
//! [`pooled::PooledWedgeSsh`] pools N partitioned monitors, each over its
//! own simulated kernel, behind a `wedge-sched` scheduler: bounded
//! queues, per-shard health and supervised restart.
//!
//! [`client::SshClient`] is the test/bench client, including the 10 MB
//! `scp`-style upload used by Table 2.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod authdb;
pub mod client;
pub mod pooled;
pub mod privsep;
pub mod protocol;
pub mod server;
pub mod vanilla;

pub use authdb::{AuthDb, ShadowEntry};
pub use client::SshClient;
pub use pooled::{PooledSshConfig, PooledWedgeSsh};
pub use server::{AuthMethod, SkeyLedger, WedgeSsh};
pub use vanilla::VanillaSsh;
