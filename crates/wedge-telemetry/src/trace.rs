//! End-to-end causal request tracing: contexts, the flight recorder and
//! the tail sampler.
//!
//! A [`TraceContext`] is minted at `Listener` accept (the root span),
//! carried through acceptor placement, shard serve, kernel policy
//! mutations and TLS handshakes, and shipped across machines as an
//! optional extension on cachenet wire-protocol-v2 frames — so one
//! request's spans form one tree no matter how many threads, sthreads and
//! cache nodes it touched.
//!
//! Three pieces:
//!
//! * **Contexts and ids** — trace ids and span ids come from seeded
//!   splitmix64 counters ([`TracerConfig::seed`]); no wall-clock entropy,
//!   so two runs with the same seed allocate identical ids.
//! * **The flight recorder** — completed spans are written into a small
//!   set of striped, fixed-capacity ring buffers ([`Tracer::record`]).
//!   Stripes are picked per thread, the critical section is an index bump
//!   and a slot store, and full rings overwrite in place: recording never
//!   blocks on retention.
//! * **The tail sampler** — when the *root* span ends
//!   ([`Tracer::end_trace`]) the trace is promoted to retention only if it
//!   was slow (over the total or per-phase SLO), erroneous, or overlapped
//!   a `wedge-chaos` fault window ([`Tracer::note_fault`]). Everything
//!   else stays in the rings and is overwritten by later traffic.
//!
//! The ambient context is a thread local behind one global relaxed
//! atomic: [`with_current`] on a thread with no active trace — or in a
//! process with no trace anywhere — costs a single relaxed load, the same
//! contract as `Telemetry::emit_with`. `wedge-core` propagates the
//! ambient context across sthread spawns and recycled-callgate
//! invocations, which is what makes kernel and cachenet spans land in the
//! right tree even though they run on other threads.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::export::JsonWriter;
use crate::metrics::{Counter, Histogram};
use crate::registry::Telemetry;

/// The causal identity one span carries: which trace it belongs to, its
/// own span id, and the span it hangs under (`parent_id == 0` marks the
/// root). `Copy` so it can ride in jobs, links and wire frames for free.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceContext {
    /// The trace this span belongs to.
    pub trace_id: u64,
    /// This span's id, unique within the allocating tracer.
    pub span_id: u32,
    /// The parent span's id; `0` for the root span.
    pub parent_id: u32,
}

/// A trace context plus the root-span start stamp, as stamped on an
/// accepted link so the shard worker that later serves it can time the
/// whole request against the tracer's clock.
#[derive(Debug, Clone, Copy)]
pub struct LinkTrace {
    /// The root span's context.
    pub ctx: TraceContext,
    /// When the connection entered the backlog, in tracer-clock ns.
    pub root_start_ns: u64,
}

/// What a span measured. The string forms double as the `trace.*`
/// histogram names registered at [`Telemetry::install_tracer`] time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum SpanKind {
    /// The root span: backlog enqueue to serve completion.
    Request,
    /// Backlog wait: connect-side enqueue to listener accept.
    Accept,
    /// Deferred-accept park: listener accept to the reactor handing the
    /// link back, i.e. waiting for the client's first byte.
    Park,
    /// Shard queue wait: acceptor placement to worker dequeue.
    Queue,
    /// The shard worker serving the link.
    Serve,
    /// A TLS server handshake (detail: 1 = abbreviated/resumed).
    Handshake,
    /// A kernel policy mutation's hold of the compartments write lock
    /// (detail: 1).
    KernelApply,
    /// A client-side cachenet remote op (detail: node index).
    Cachenet,
    /// A cache node serving one framed request (detail: node index).
    CachenetServe,
}

impl SpanKind {
    /// Every kind, in display order.
    pub const ALL: [SpanKind; 9] = [
        SpanKind::Request,
        SpanKind::Accept,
        SpanKind::Park,
        SpanKind::Queue,
        SpanKind::Serve,
        SpanKind::Handshake,
        SpanKind::KernelApply,
        SpanKind::Cachenet,
        SpanKind::CachenetServe,
    ];

    /// The stable wire/metric name (`trace.<as_str()>` is the histogram).
    pub fn as_str(self) -> &'static str {
        match self {
            SpanKind::Request => "request",
            SpanKind::Accept => "accept",
            SpanKind::Park => "park",
            SpanKind::Queue => "queue",
            SpanKind::Serve => "serve",
            SpanKind::Handshake => "handshake",
            SpanKind::KernelApply => "kernel.apply",
            SpanKind::Cachenet => "cachenet",
            SpanKind::CachenetServe => "cachenet.serve",
        }
    }
}

/// One completed span as stored in the flight recorder.
#[derive(Debug, Clone, Copy)]
pub struct SpanRecord {
    /// The trace this span belongs to.
    pub trace_id: u64,
    /// This span's id.
    pub span_id: u32,
    /// Parent span id (`0` = root).
    pub parent_id: u32,
    /// What the span measured.
    pub kind: SpanKind,
    /// Start, in ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, in ns since the tracer's epoch.
    pub end_ns: u64,
    /// Whether the spanned operation succeeded.
    pub ok: bool,
    /// Kind-specific payload (shard index, node index, op count, ...).
    pub detail: u32,
}

impl SpanRecord {
    /// The span's duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A complete trace the tail sampler promoted to retention.
#[derive(Debug, Clone)]
pub struct RetainedTrace {
    /// The trace id.
    pub trace_id: u64,
    /// Why the sampler kept it: `"slow"`, `"error"` or `"fault"`.
    pub reason: &'static str,
    /// Root-span duration in nanoseconds.
    pub total_ns: u64,
    /// Every recorded span of the trace, sorted by `(start_ns, span_id)`.
    pub spans: Vec<SpanRecord>,
}

impl RetainedTrace {
    /// Sum of the durations of every span of `kind` in this trace.
    pub fn phase_ns(&self, kind: SpanKind) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.kind == kind)
            .map(SpanRecord::duration_ns)
            .sum()
    }
}

/// Tuning for a [`Tracer`]. The defaults suit tests and the bench
/// harness; production stacks mostly want a larger `retain_capacity` and
/// SLOs matched to their latency budget.
#[derive(Debug, Clone, Copy)]
pub struct TracerConfig {
    /// Seeds the trace-id and span-id counters (deterministic ids).
    pub seed: u64,
    /// Ring-buffer stripes (threads hash onto one each).
    pub stripes: usize,
    /// Span slots per stripe; full stripes overwrite in place.
    pub ring_capacity: usize,
    /// Max retained traces; later promotions are counted as dropped.
    pub retain_capacity: usize,
    /// Root spans longer than this are promoted as `"slow"`.
    pub slo_total: Duration,
    /// Any non-root span longer than this promotes the trace as `"slow"`.
    pub slo_phase: Duration,
    /// Traces overlapping `[fault, fault + window]` are promoted as
    /// `"fault"` (see [`Tracer::note_fault`]).
    pub fault_window: Duration,
}

impl Default for TracerConfig {
    fn default() -> TracerConfig {
        TracerConfig {
            seed: 0x57ED_6E55,
            stripes: 8,
            ring_capacity: 256,
            retain_capacity: 32,
            slo_total: Duration::from_millis(10),
            slo_phase: Duration::from_millis(5),
            fault_window: Duration::from_millis(250),
        }
    }
}

/// One ring-buffer stripe of the flight recorder.
#[derive(Debug, Default)]
struct Stripe {
    slots: Vec<SpanRecord>,
    head: usize,
}

/// Handles bound when the tracer is installed on a [`Telemetry`].
#[derive(Debug)]
struct Bound {
    started: Counter,
    retained: Counter,
    dropped: Counter,
    faults: Counter,
    by_kind: Vec<(SpanKind, Histogram)>,
}

/// The flight recorder plus tail sampler. Create with [`Tracer::new`],
/// install with [`Telemetry::install_tracer`], and mint roots at the
/// listener via [`Tracer::begin_root`].
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    seed: u64,
    next_trace: AtomicU64,
    next_span: AtomicU32,
    stripes: Box<[Mutex<Stripe>]>,
    ring_capacity: usize,
    retained: Mutex<Vec<RetainedTrace>>,
    retain_capacity: usize,
    slo_total_ns: u64,
    slo_phase_ns: u64,
    fault_window_ns: u64,
    /// Tracer-clock ns of the most recent chaos fault; 0 = never.
    last_fault_ns: AtomicU64,
    bound: OnceLock<Bound>,
}

/// splitmix64: the id mixer — bijective, so seeded counters never collide
/// within one tracer, and well distributed across tracers with distinct
/// seeds.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl Tracer {
    /// A tracer with [`TracerConfig`] tuning. Span ids start at a
    /// seed-derived offset so two machines with different seeds allocate
    /// disjoint span-id ranges for the same cross-machine trace.
    pub fn new(config: TracerConfig) -> Arc<Tracer> {
        let stripes = config.stripes.max(1);
        let span_base = (splitmix64(config.seed ^ 0xA5A5) as u32) | 1;
        Arc::new(Tracer {
            epoch: Instant::now(),
            seed: config.seed,
            next_trace: AtomicU64::new(0),
            next_span: AtomicU32::new(span_base),
            stripes: (0..stripes)
                .map(|_| Mutex::new(Stripe::default()))
                .collect(),
            ring_capacity: config.ring_capacity.max(1),
            retained: Mutex::new(Vec::new()),
            retain_capacity: config.retain_capacity.max(1),
            slo_total_ns: config.slo_total.as_nanos().min(u64::MAX as u128) as u64,
            slo_phase_ns: config.slo_phase.as_nanos().min(u64::MAX as u128) as u64,
            fault_window_ns: config.fault_window.as_nanos().min(u64::MAX as u128) as u64,
            last_fault_ns: AtomicU64::new(0),
            bound: OnceLock::new(),
        })
    }

    /// Register the tracer's counters and per-kind `trace.*` histograms
    /// on `telemetry`. Idempotent; only the first registry binds.
    pub(crate) fn bind(&self, telemetry: &Telemetry) {
        self.bound.get_or_init(|| Bound {
            started: telemetry.counter("trace.started"),
            retained: telemetry.counter("trace.retained"),
            dropped: telemetry.counter("trace.dropped"),
            faults: telemetry.counter("trace.faults"),
            by_kind: SpanKind::ALL
                .iter()
                .map(|&kind| {
                    (
                        kind,
                        telemetry.histogram(&format!("trace.{}", kind.as_str())),
                    )
                })
                .collect(),
        });
    }

    /// Nanoseconds since this tracer's epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos().min(u64::MAX as u128) as u64
    }

    /// Convert an [`Instant`] to tracer-clock ns (0 if it predates the
    /// tracer).
    pub fn stamp(&self, at: Instant) -> u64 {
        at.checked_duration_since(self.epoch)
            .map(|d| d.as_nanos().min(u64::MAX as u128) as u64)
            .unwrap_or(0)
    }

    /// Mint a fresh span id (never 0: 0 is the "no parent" sentinel).
    fn next_span_id(&self) -> u32 {
        loop {
            let id = self.next_span.fetch_add(1, Ordering::Relaxed);
            if id != 0 {
                return id;
            }
        }
    }

    /// Mint a new root context (a fresh trace).
    pub fn begin_root(&self) -> TraceContext {
        let n = self.next_trace.fetch_add(1, Ordering::Relaxed);
        if let Some(bound) = self.bound.get() {
            bound.started.incr();
        }
        TraceContext {
            trace_id: splitmix64(self.seed ^ n),
            span_id: self.next_span_id(),
            parent_id: 0,
        }
    }

    /// Mint a child context hanging under `parent` (same trace).
    pub fn child_of(&self, parent: TraceContext) -> TraceContext {
        TraceContext {
            trace_id: parent.trace_id,
            span_id: self.next_span_id(),
            parent_id: parent.span_id,
        }
    }

    /// Mint a context joining a trace received over the wire: a child of
    /// the remote caller's span, with a locally allocated span id.
    pub fn join_remote(&self, trace_id: u64, remote_span_id: u32) -> TraceContext {
        TraceContext {
            trace_id,
            span_id: self.next_span_id(),
            parent_id: remote_span_id,
        }
    }

    /// Record a completed span into the flight recorder (and its kind
    /// histogram, when bound). Lock-light: one striped mutex, a slot
    /// store, no allocation once the stripe is full.
    pub fn record(
        &self,
        ctx: TraceContext,
        kind: SpanKind,
        start_ns: u64,
        end_ns: u64,
        ok: bool,
        detail: u32,
    ) {
        let record = SpanRecord {
            trace_id: ctx.trace_id,
            span_id: ctx.span_id,
            parent_id: ctx.parent_id,
            kind,
            start_ns,
            end_ns,
            ok,
            detail,
        };
        let mut stripe = self.stripes[stripe_index(self.stripes.len())].lock();
        if stripe.slots.len() < self.ring_capacity {
            stripe.slots.push(record);
        } else {
            let head = stripe.head;
            stripe.slots[head] = record;
        }
        stripe.head = (stripe.head + 1) % self.ring_capacity;
        drop(stripe);
        if let Some(bound) = self.bound.get() {
            if let Some((_, hist)) = bound.by_kind.iter().find(|(k, _)| *k == kind) {
                hist.record(record.duration_ns());
            }
        }
    }

    /// Note a chaos fault: traces whose root span overlaps
    /// `[now, now + fault_window]` — or that were in flight when the
    /// fault landed — are promoted as `"fault"`.
    pub fn note_fault(&self) {
        self.last_fault_ns
            .store(self.now_ns().max(1), Ordering::Relaxed);
        if let Some(bound) = self.bound.get() {
            bound.faults.incr();
        }
    }

    /// End a trace: record the root span, then tail-sample. Slow,
    /// erroneous or fault-stamped traces are swept out of the rings into
    /// retention; everything else is left to be overwritten.
    pub fn end_trace(&self, root: TraceContext, start_ns: u64, end_ns: u64, ok: bool, detail: u32) {
        self.record(root, SpanKind::Request, start_ns, end_ns, ok, detail);
        let total_ns = end_ns.saturating_sub(start_ns);

        let mut spans: Vec<SpanRecord> = Vec::new();
        for stripe in self.stripes.iter() {
            let stripe = stripe.lock();
            spans.extend(stripe.slots.iter().filter(|s| s.trace_id == root.trace_id));
        }
        spans.sort_by_key(|s| (s.start_ns, s.span_id));

        let error = spans.iter().any(|s| !s.ok);
        let slow = total_ns > self.slo_total_ns
            || spans
                .iter()
                .any(|s| s.kind != SpanKind::Request && s.duration_ns() > self.slo_phase_ns);
        let fault_ns = self.last_fault_ns.load(Ordering::Relaxed);
        let fault = fault_ns != 0
            && fault_ns <= end_ns
            && start_ns <= fault_ns.saturating_add(self.fault_window_ns);

        let reason = if error {
            "error"
        } else if fault {
            "fault"
        } else if slow {
            "slow"
        } else {
            return;
        };

        let mut retained = self.retained.lock();
        if retained.len() >= self.retain_capacity {
            drop(retained);
            if let Some(bound) = self.bound.get() {
                bound.dropped.incr();
            }
            return;
        }
        retained.push(RetainedTrace {
            trace_id: root.trace_id,
            reason,
            total_ns,
            spans,
        });
        drop(retained);
        if let Some(bound) = self.bound.get() {
            bound.retained.incr();
        }
    }

    /// A copy of every retained trace.
    pub fn retained(&self) -> Vec<RetainedTrace> {
        self.retained.lock().clone()
    }

    /// How many traces retention currently holds.
    pub fn retained_count(&self) -> usize {
        self.retained.lock().len()
    }

    /// Render every retained trace as the `TRACES_snapshot.json` artifact:
    /// per-trace span trees plus per-phase duration sums, via the shared
    /// [`JsonWriter`].
    pub fn to_json(&self) -> String {
        let retained = self.retained();
        let mut w = JsonWriter::object();
        w.nested("traces", |w| {
            w.field_u64("retained", retained.len() as u64);
            w.field_arr("trace", |arr| {
                for trace in &retained {
                    arr.item_obj(|w| {
                        w.field_str("trace_id", &format!("{:016x}", trace.trace_id));
                        w.field_str("reason", trace.reason);
                        w.field_u64("total_ns", trace.total_ns);
                        w.nested("phases", |w| {
                            for kind in SpanKind::ALL {
                                if kind == SpanKind::Request {
                                    continue;
                                }
                                let ns = trace.phase_ns(kind);
                                if ns > 0 || trace.spans.iter().any(|s| s.kind == kind) {
                                    w.field_u64(kind.as_str(), ns);
                                }
                            }
                        });
                        w.field_arr("spans", |arr| {
                            for span in &trace.spans {
                                arr.item_obj(|w| {
                                    w.field_u64("span", u64::from(span.span_id));
                                    w.field_u64("parent", u64::from(span.parent_id));
                                    w.field_str("kind", span.kind.as_str());
                                    w.field_u64("start_ns", span.start_ns);
                                    w.field_u64("end_ns", span.end_ns);
                                    w.field_bool("ok", span.ok);
                                    w.field_u64("detail", u64::from(span.detail));
                                });
                            }
                        });
                    });
                }
            });
        });
        w.finish()
    }
}

/// Pick this thread's stripe: a per-thread id assigned on first use,
/// reduced mod the stripe count — per-thread affinity without hashing
/// opaque `ThreadId`s.
fn stripe_index(stripes: usize) -> usize {
    static NEXT_THREAD: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static THREAD_STRIPE: usize = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
    }
    THREAD_STRIPE.with(|s| *s % stripes.max(1))
}

/// The ambient trace on this thread: the context new spans should hang
/// under plus the tracer that allocated it.
#[derive(Clone)]
pub struct ActiveTrace {
    /// The enclosing span's context.
    pub ctx: TraceContext,
    /// The tracer owning the flight recorder for this trace.
    pub tracer: Arc<Tracer>,
}

impl ActiveTrace {
    /// Open a child span of this trace's context, on whatever thread: the
    /// guard records the span when dropped. For a wait that outlives any
    /// one call stack (a parked link), where no thread's ambient trace can
    /// carry it.
    pub fn span(&self, kind: SpanKind, detail: u32) -> SpanGuard {
        SpanGuard {
            active: self.clone(),
            ctx: self.tracer.child_of(self.ctx),
            kind,
            start_ns: self.tracer.now_ns(),
            ok: true,
            detail,
        }
    }
}

impl std::fmt::Debug for ActiveTrace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ActiveTrace")
            .field("ctx", &self.ctx)
            .finish()
    }
}

/// Count of live [`ScopedTrace`] guards across the whole process: the one
/// relaxed load that keeps [`with_current`] free when nothing is traced.
static LIVE_SCOPES: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static CURRENT: RefCell<Option<ActiveTrace>> = const { RefCell::new(None) };
}

/// Make `active` the ambient trace on this thread until the returned
/// guard drops (which restores whatever was ambient before).
#[must_use = "dropping the guard immediately clears the ambient trace"]
pub fn push(active: ActiveTrace) -> ScopedTrace {
    LIVE_SCOPES.fetch_add(1, Ordering::Relaxed);
    let prev = CURRENT.with(|c| c.borrow_mut().replace(active));
    ScopedTrace { prev }
}

/// RAII guard from [`push`]: restores the previous ambient trace on drop.
#[derive(Debug)]
pub struct ScopedTrace {
    prev: Option<ActiveTrace>,
}

impl Drop for ScopedTrace {
    fn drop(&mut self) {
        LIVE_SCOPES.fetch_sub(1, Ordering::Relaxed);
        let prev = self.prev.take();
        CURRENT.with(|c| *c.borrow_mut() = prev);
    }
}

/// Run `f` against this thread's ambient trace, if any. When no trace is
/// active anywhere in the process this is a single relaxed atomic load —
/// the contract hot paths (kernel policy mutations, cachenet sends) rely
/// on.
#[inline]
pub fn with_current<R>(f: impl FnOnce(&ActiveTrace) -> R) -> Option<R> {
    if LIVE_SCOPES.load(Ordering::Relaxed) == 0 {
        return None;
    }
    CURRENT.with(|c| c.borrow().as_ref().map(f))
}

/// A clone of this thread's ambient trace, if any (same gate as
/// [`with_current`]).
#[inline]
pub fn current() -> Option<ActiveTrace> {
    with_current(ActiveTrace::clone)
}

/// Open a child span of the ambient trace. Returns `None` (after one
/// relaxed load) when this thread has no active trace; otherwise the
/// guard records the span into the flight recorder when dropped.
#[inline]
pub fn span(kind: SpanKind, detail: u32) -> Option<SpanGuard> {
    with_current(|active| active.span(kind, detail))
}

/// An open span: records itself on drop. Defaults to `ok = true`; call
/// [`SpanGuard::set_ok`] before dropping to mark a failure.
#[derive(Debug)]
pub struct SpanGuard {
    active: ActiveTrace,
    ctx: TraceContext,
    kind: SpanKind,
    start_ns: u64,
    ok: bool,
    detail: u32,
}

impl SpanGuard {
    /// This span's context (what a wire extension should carry).
    pub fn ctx(&self) -> TraceContext {
        self.ctx
    }

    /// Mark the spanned operation's outcome.
    pub fn set_ok(&mut self, ok: bool) {
        self.ok = ok;
    }

    /// Replace the kind-specific detail payload.
    pub fn set_detail(&mut self, detail: u32) {
        self.detail = detail;
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let end_ns = self.active.tracer.now_ns();
        self.active.tracer.record(
            self.ctx,
            self.kind,
            self.start_ns,
            end_ns,
            self.ok,
            self.detail,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_config() -> TracerConfig {
        TracerConfig {
            slo_total: Duration::from_secs(3600),
            slo_phase: Duration::from_secs(3600),
            ..TracerConfig::default()
        }
    }

    #[test]
    fn ids_are_deterministic_for_a_seed() {
        let a = Tracer::new(TracerConfig {
            seed: 7,
            ..TracerConfig::default()
        });
        let b = Tracer::new(TracerConfig {
            seed: 7,
            ..TracerConfig::default()
        });
        let ra = a.begin_root();
        let rb = b.begin_root();
        assert_eq!(ra.trace_id, rb.trace_id);
        assert_eq!(ra.span_id, rb.span_id);
        assert_ne!(
            a.begin_root().trace_id,
            ra.trace_id,
            "consecutive traces differ"
        );
        let c = Tracer::new(TracerConfig {
            seed: 8,
            ..TracerConfig::default()
        });
        assert_ne!(c.begin_root().trace_id, ra.trace_id, "seeds differ");
    }

    #[test]
    fn fast_traces_stay_in_the_rings() {
        let tracer = Tracer::new(quick_config());
        let root = tracer.begin_root();
        let child = tracer.child_of(root);
        tracer.record(child, SpanKind::Serve, 10, 20, true, 0);
        tracer.end_trace(root, 0, 30, true, 0);
        assert_eq!(tracer.retained_count(), 0);
    }

    #[test]
    fn slow_erroneous_and_faulted_traces_are_promoted() {
        // Slow: total SLO of zero promotes everything.
        let tracer = Tracer::new(TracerConfig {
            slo_total: Duration::ZERO,
            ..quick_config()
        });
        let root = tracer.begin_root();
        tracer.end_trace(root, 0, 100, true, 0);
        assert_eq!(tracer.retained()[0].reason, "slow");

        // Error beats slow.
        let tracer = Tracer::new(TracerConfig {
            slo_total: Duration::ZERO,
            ..quick_config()
        });
        let root = tracer.begin_root();
        let child = tracer.child_of(root);
        tracer.record(child, SpanKind::Serve, 1, 2, false, 0);
        tracer.end_trace(root, 0, 100, true, 0);
        assert_eq!(tracer.retained()[0].reason, "error");

        // Fault window: a fault noted mid-flight stamps the trace.
        let tracer = Tracer::new(quick_config());
        let root = tracer.begin_root();
        tracer.note_fault();
        let now = tracer.now_ns();
        tracer.end_trace(root, 0, now + 1, true, 0);
        assert_eq!(tracer.retained()[0].reason, "fault");
    }

    #[test]
    fn retention_is_bounded() {
        let tracer = Tracer::new(TracerConfig {
            retain_capacity: 2,
            slo_total: Duration::ZERO,
            ..quick_config()
        });
        for _ in 0..5 {
            let root = tracer.begin_root();
            tracer.end_trace(root, 0, 10, true, 0);
        }
        assert_eq!(tracer.retained_count(), 2);
    }

    #[test]
    fn rings_overwrite_in_place() {
        let tracer = Tracer::new(TracerConfig {
            stripes: 1,
            ring_capacity: 4,
            ..quick_config()
        });
        let root = tracer.begin_root();
        for i in 0..40u64 {
            let child = tracer.child_of(root);
            tracer.record(child, SpanKind::Serve, i, i + 1, true, 0);
        }
        let stripe = tracer.stripes[0].lock();
        assert_eq!(stripe.slots.len(), 4, "capacity respected");
    }

    #[test]
    fn ambient_trace_is_scoped_and_cheap_when_absent() {
        assert!(current().is_none());
        assert!(span(SpanKind::Serve, 0).is_none());
        let tracer = Tracer::new(quick_config());
        let root = tracer.begin_root();
        let guard = push(ActiveTrace {
            ctx: root,
            tracer: tracer.clone(),
        });
        let got = current().expect("ambient trace set");
        assert_eq!(got.ctx, root);
        {
            let inner = tracer.child_of(root);
            let _nested = push(ActiveTrace {
                ctx: inner,
                tracer: tracer.clone(),
            });
            assert_eq!(current().unwrap().ctx, inner);
        }
        assert_eq!(current().unwrap().ctx, root, "nested scope restored");
        drop(guard);
        assert!(current().is_none());
    }

    #[test]
    fn span_guard_records_into_the_recorder() {
        let tracer = Tracer::new(TracerConfig {
            slo_total: Duration::ZERO,
            ..quick_config()
        });
        let root = tracer.begin_root();
        {
            let _scope = push(ActiveTrace {
                ctx: root,
                tracer: tracer.clone(),
            });
            let mut guard = span(SpanKind::KernelApply, 3).expect("ambient trace");
            guard.set_ok(true);
        }
        tracer.end_trace(root, 0, tracer.now_ns(), true, 0);
        let retained = tracer.retained();
        let trace = &retained[0];
        assert!(trace.spans.iter().any(|s| s.kind == SpanKind::KernelApply
            && s.parent_id == root.span_id
            && s.detail == 3));
    }

    #[test]
    fn json_export_has_span_trees_and_phases() {
        let tracer = Tracer::new(TracerConfig {
            slo_total: Duration::ZERO,
            ..quick_config()
        });
        let root = tracer.begin_root();
        let child = tracer.child_of(root);
        tracer.record(child, SpanKind::Accept, 0, 5, true, 0);
        tracer.end_trace(root, 0, 50, true, 0);
        let json = tracer.to_json();
        assert!(json.contains("\"trace\":["));
        assert!(json.contains("\"kind\":\"accept\""));
        assert!(json.contains("\"accept\":5"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
