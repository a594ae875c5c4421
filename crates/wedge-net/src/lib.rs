//! # wedge-net — simulated network substrate
//!
//! The Wedge evaluation runs its partitioned servers against real clients on
//! a 1 Gbps LAN and, for the §5.1.2 threat model, against an attacker who
//! can "eavesdrop on, forward, and inject messages" as a man in the middle.
//! This crate provides an in-memory stand-in with exactly those
//! capabilities:
//!
//! * [`Duplex`] / [`duplex_pair`] — a bidirectional, message-oriented link
//!   between two endpoints (the client's socket and the server's accepted
//!   connection). Endpoints are `Send`, so a server compartment running on
//!   its own sthread can own one end.
//! * [`listener::Listener`] / [`listener::SourceAddr`] — the simulated
//!   `accept(2)` loop in front of the serving stack: clients connect with a
//!   source address, accepted links queue in a bounded backlog (full →
//!   refused, like a SYN queue) and carry the source address so placement
//!   layers can hash **source-affinity keys** without protocol help. A
//!   per-source token-bucket rate limiter
//!   ([`listener::Listener::bind_rate_limited`]) sheds flooding hosts
//!   before any link is built.
//! * [`mitm::Mitm`] — an interposer that owns both halves of a split link
//!   and can forward, observe, drop, or inject messages in either direction
//!   — the paper's man-in-the-middle attacker.
//! * [`wiretap::Wiretap`] — a passive eavesdropper that records copies of
//!   every message (the paper's simpler threat model: "the attacker can
//!   eavesdrop on entire SSL connections").
//! * [`reactor::Reactor`] — a readiness-driven event loop over [`Duplex`]
//!   links: one parked sthread drives thousands of idle links (drain-mode
//!   message dispatch or one-shot readiness hand-off) instead of a thread
//!   per link.
//! * [`trace::NetTrace`] — a pcap-like record of messages for debugging and
//!   for the experiment harnesses.
//! * [`cost::LinkCostModel`] — an analytical latency/throughput model used
//!   by the Table 2 harness to translate message counts and byte volumes
//!   into simulated wall-clock time on the paper's 1 Gbps testbed.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cost;
pub mod duplex;
pub mod listener;
pub mod mitm;
pub mod reactor;
pub mod trace;
pub mod wiretap;

pub use cost::LinkCostModel;
pub use duplex::{duplex_pair, duplex_pair_with_source, Duplex, NetError, RecvTimeout};
pub use listener::{Listener, ListenerStats, ListenerWaker, RateLimitConfig, SourceAddr};
pub use mitm::{Direction, Mitm};
pub use reactor::{LinkEvent, LinkVerdict, Reactor, ReactorStats};
pub use trace::{NetTrace, TraceEntry};
pub use wiretap::Wiretap;
