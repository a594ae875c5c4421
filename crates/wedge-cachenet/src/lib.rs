//! # wedge-cachenet — the distributed session-cache protocol
//!
//! PR 3/4 made TLS resumption survive landing on a different *shard*: the
//! shards of one front-end share an in-process
//! [`wedge_tls::SharedSessionCache`]. This crate is the next rung — a
//! cache **protocol**, so a client can resume on a different simulated
//! *machine* entirely:
//!
//! * [`proto`] — the compact, length-prefixed, versioned wire format
//!   ([`Request`]: `Lookup`/`Insert`/`Invalidate`/`Ping` plus the
//!   multi-key `LookupBatch`/`InsertBatch`; [`Response`]:
//!   `Hit`/`Miss`/`Ok`/`Err`/`Batch`, every response stamped with the
//!   serving node's epoch), spoken one frame per [`wedge_net::Duplex`]
//!   message. Wire **v2** stamps every frame with a `u16` request id
//!   that replies echo, so any number of requests pipeline over one
//!   link; it is the only version decoded. Decoding is total — fuzzed
//!   in `tests/proto_fuzz.rs`.
//! * [`node`] — [`CacheNode`], one partition of the distributed cache: a
//!   [`wedge_tls::SharedSessionCache`] behind a [`wedge_net::Listener`]
//!   accept loop whose accepted links are all driven by **one
//!   readiness-polling [`wedge_net::Reactor`] sthread** (not a thread
//!   per link), with **per-node epochs** — a restarted node bumps its
//!   epoch and *invalidates* surviving pre-restart entries on first touch
//!   instead of serving them.
//! * [`ring`] — [`CacheRing`], a machine's client: **rendezvous
//!   (consistent-hash) routing** of session ids to nodes, a persistent
//!   **pipelined** link per node (request-id demultiplexing, no
//!   head-of-line stall), concurrent lookups **coalesced** into
//!   `LookupBatch` frames with read-through prefetch of every batched
//!   hit, bounded-latency remote operations, per-node circuit breakers,
//!   a local miss-through tier and write-through inserts. The ring
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

pub use node::{CacheEndpoint, CacheNode, CacheNodeConfig, CacheNodeStats};
pub use proto::{
    peek_request_id, FramedRequest, FramedResponse, ProtoError, Request, Response, MAGIC,
    MAX_BATCH_KEYS, MAX_PAYLOAD, TRACE_EXT_LEN, TRACE_EXT_TAG, WIRE_VERSION,
};
pub use ring::{CacheRing, CacheRingConfig, CacheRingStats};
