//! # wedge-telemetry — one observability plane for the whole serving stack
//!
//! Every runtime layer of the Wedge reproduction (kernel fast path,
//! scheduler/shards, listener, front-ends, TLS session stores, the cachenet
//! ring) grew its own disconnected `*Stats` struct; none of them measures a
//! latency *distribution*. This crate is the missing common plane:
//!
//! * [`metrics`] — lock-light primitives: [`Counter`]/[`Gauge`] (one relaxed
//!   atomic each) and [`Histogram`], a log-bucketed latency histogram that
//!   records in nanoseconds with a handful of relaxed atomic increments and
//!   reports p50/p99/p999/max.
//! * [`registry`] — [`Telemetry`], a cloneable handle to a named-metric
//!   registry. Hot paths hold cheap metric handles (an `Arc` around the
//!   atomics), never the registry lock. Layers whose counters already exist
//!   as their own `*Stats` structs register a *collector* instead, pulled
//!   only when a snapshot is taken — the data path is untouched.
//! * [`sink`] — [`TelemetrySink`], the structured event layer generalising
//!   wedge-core's kernel-only `AccessSink`: request-lifecycle events
//!   (accept → placement → shard serve → handshake/resume → cachenet op)
//!   and security-audit events (policy violations, scrubs, epoch bumps,
//!   shard kills/restarts, circuit-breaker trips). Gated by one `AtomicBool`:
//!   with no sink installed, [`Telemetry::emit_with`] costs a single relaxed
//!   load and never constructs the event.
//! * [`snapshot`] — [`TelemetrySnapshot`], the point-in-time aggregation of
//!   every registered metric and collector into one sorted tree, rendered
//!   as JSON ([`TelemetrySnapshot::to_json`]) or human-readable text
//!   ([`TelemetrySnapshot::to_text`]).
//! * [`trace`] — end-to-end causal request tracing: a [`TraceContext`]
//!   minted at listener accept and carried through placement, shard serve,
//!   kernel policy mutations, TLS handshakes and (as a wire-frame
//!   extension) remote cachenet ops; a striped ring-buffer flight recorder;
//!   and a tail sampler that retains only slow/erroneous/fault-stamped
//!   traces, exported as `TRACES_snapshot.json`.
//! * [`export`] — the hand-rolled (offline build: no serde) JSON writer with
//!   correct string escaping, shared with `wedge_bench::report`'s
//!   `BENCH_*.json` artifacts.
//!
//! See `README.md` for the metric-name table and the overhead contract.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod export;
pub mod metrics;
pub mod registry;
pub mod sink;
pub mod snapshot;
pub mod trace;

pub use export::{JsonArrayWriter, JsonWriter};
pub use metrics::{Counter, Gauge, Histogram, HistogramSummary};
pub use registry::{Sample, Telemetry};
pub use sink::{CountingTelemetrySink, RecordingSink, TelemetryEvent, TelemetrySink};
pub use snapshot::{MetricValue, TelemetrySnapshot};
pub use trace::{
    ActiveTrace, LinkTrace, RetainedTrace, SpanKind, SpanRecord, TraceContext, Tracer, TracerConfig,
};

/// How a TLS handshake completed — full key exchange or abbreviated
/// (session-cache resumption). Lives here so the generic scheduler layer
/// can classify front-end reports without depending on `wedge-tls`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HandshakeKind {
    /// Full handshake: new key exchange, session written to the cache.
    Full,
    /// Abbreviated handshake: premaster recovered from a session cache.
    Abbreviated,
}
