//! # wedge-pop3 — the partitioned POP3 server of Figure 1
//!
//! The paper motivates Wedge with a POP3 server split into three
//! compartments (§2): an unprivileged **client handler** sthread that parses
//! untrusted network input; a **login** callgate with read access to the
//! password database and write access to the authenticated `uid`; and an
//! **e-mail retriever** callgate with read access to the mail store and to
//! `uid`. An exploit in the client handler can neither read passwords or
//! mail (no grants) nor skip authentication (only the login callgate can set
//! `uid`, and the retriever serves only `uid`'s mailbox).
//!
//! This crate is that server, built directly on `wedge-core`:
//!
//! * [`maildb`] — the password database and mail store formats.
//! * [`server`] — the partitioned server, the callgates, and a tiny
//!   POP3-ish command loop (USER/PASS/STAT/LIST/RETR/QUIT).
//! * [`sharded`] — the sharded front-end: N server shards behind
//!   `wedge-sched`'s protocol-agnostic [`ShardedPop3`] serving stack
//!   (listener accept loop, placement, supervisor auto-restart).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod maildb;
pub mod server;
pub mod sharded;

pub use maildb::{MailDb, UserRecord};
pub use server::{Pop3Connection, Pop3Server, Pop3Stats};
pub use sharded::{Pop3Report, ShardedPop3, ShardedPop3Config};
