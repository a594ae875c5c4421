//! # wedge-cachenet — the distributed session-cache protocol
//!
//! PR 3/4 made TLS resumption survive landing on a different *shard*: the
//! shards of one front-end share an in-process
//! [`wedge_tls::SharedSessionCache`]. This crate is the next rung — a
//! cache **protocol**, so a client can resume on a different simulated
//! *machine* entirely:
//!
//! * [`proto`] — the compact, length-prefixed, versioned wire format
//!   ([`Request`]: `Lookup`/`Insert`/`Invalidate`/`Ping`, one session id
//!   per frame; [`Response`]: `Hit`/`Miss`/`Ok`/`Err`, every response
//!   stamped with the serving node's epoch), spoken one frame per
//!   [`wedge_net::Duplex`] message. Wire **v4** carries no request id: a
//!   link carries one request at a time, so its next reply answers its
//!   last request. It is the only version decoded. Decoding is total —
//!   fuzzed in `tests/proto_fuzz.rs`.
//! * [`node`] — [`CacheNode`], one partition of the distributed cache: a
//!   [`wedge_tls::SharedSessionCache`] behind a [`wedge_net::Listener`]
//!   accept loop whose accepted links are all driven by **one
//!   readiness-polling [`wedge_net::Reactor`] sthread** (not a thread
//!   per link), with **per-node epochs** — a restarted node bumps its
//!   epoch and *invalidates* surviving pre-restart entries on first touch
//!   instead of serving them.
//! * [`ring`] — [`CacheRing`], a machine's client: **rendezvous
//!   (consistent-hash) routing** of session ids to nodes, a per-node
//!   pool of idle links (an op checks one out, sends, receives and
//!   checks it back in — one request per link, no ids, no ring
//!   thread), every lookup, insert and invalidate one bounded-latency
//!   round trip, per-node circuit breakers, a local miss-through tier
//!   warmed by remote hits and write-through inserts. The ring
//!   implements [`wedge_tls::SessionStore`], so any server that takes a
//!   session store — every sharded front-end does — can be pointed at a
//!   ring instead of its in-process cache without other changes.
//!
//! The wire format is documented alongside the rest of the network edge
//! in `crates/wedge-net/README.md`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod node;
pub mod proto;
pub mod ring;

pub use node::{CacheEndpoint, CacheNode, CacheNodeConfig};
pub use proto::{
    FramedRequest, ProtoError, Request, Response, MAGIC, MAX_PAYLOAD, TRACE_EXT_LEN, TRACE_EXT_TAG,
    WIRE_VERSION,
};
pub use ring::{CacheRing, CacheRingConfig};
