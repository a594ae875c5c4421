//! The network-facing listener: a simulated accept loop in front of the
//! serving stack.
//!
//! The Wedge evaluation fronts its partitioned servers with an ordinary
//! `accept(2)` loop; the reproduction's equivalent is [`Listener`]. Clients
//! call [`Listener::connect`] with their [`SourceAddr`] and get back their
//! end of a fresh [`Duplex`] link; the server side lands in a **bounded
//! backlog** (a full backlog refuses with [`NetError::Refused`], exactly
//! like a saturated SYN queue) until the serving stack drains it with
//! [`Listener::accept`] or — to amortise wakeups under load —
//! [`Listener::accept_batch`]. An accept loop with a second event source
//! (links a reactor hands back) blocks in
//! [`Listener::accept_batch_or_wake`] instead, and that source interrupts
//! it through a [`ListenerWaker`]: one wait, no timeout.
//!
//! Every accepted link carries the client's source address, so placement
//! layers can derive **source-address affinity keys**
//! ([`SourceAddr::affinity_key`]) without any protocol cooperation: a
//! client that reconnects from the same host hashes to the same shard even
//! though its ephemeral port changed and it has not yet spoken a byte.
//!
//! [`Listener::bind_rate_limited`] adds **per-source shedding** in front
//! of the backlog: a token bucket per client host (same affinity key), so
//! one flooding host is refused before any link is built instead of
//! monopolising the queue.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};
use wedge_telemetry::{LinkTrace, SpanKind, Telemetry, TelemetryEvent};

use crate::duplex::{duplex_pair_with_source, Duplex, NetError, RecvTimeout};

/// A simulated client source address (IPv4 host + ephemeral port).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SourceAddr {
    /// The client host's address octets.
    pub host: [u8; 4],
    /// The client's ephemeral port.
    pub port: u16,
}

impl SourceAddr {
    /// A source address from host octets and a port.
    pub fn new(host: [u8; 4], port: u16) -> SourceAddr {
        SourceAddr { host, port }
    }

    /// The affinity key placement layers hash to pick a shard: FNV-1a over
    /// the **host only**. Reconnects from the same host (fresh ephemeral
    /// port) keep the same key, which is what session-affinity placement
    /// needs — the warm state (TLS session, auth context) belongs to the
    /// host, not to one TCP connection.
    pub fn affinity_key(&self) -> u64 {
        crate::duplex::fnv1a(&self.host)
    }
}

impl std::fmt::Display for SourceAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let [a, b, c, d] = self.host;
        write!(f, "{a}.{b}.{c}.{d}:{}", self.port)
    }
}

#[derive(Debug, Default)]
struct Backlog {
    /// Queued server-side links, each with its connect-time enqueue stamp
    /// — the start of the request's `accept` span when tracing is on.
    pending: VecDeque<(Duplex, Instant)>,
    closed: bool,
    /// A [`ListenerWaker::wake`] not yet consumed by
    /// [`Listener::accept_batch_or_wake`]. Set under this lock, so a wake
    /// that lands before the accept call blocks is never lost.
    woken: bool,
}

/// The backlog and the condvar accept calls block on, shared between the
/// [`Listener`] and every [`ListenerWaker`] cloned off it.
#[derive(Debug, Default)]
struct AcceptQueue {
    backlog: Mutex<Backlog>,
    ready: Condvar,
}

/// A handle that wakes a listener's [`Listener::accept_batch_or_wake`]
/// caller from any thread — how a readiness [`crate::Reactor`] callback
/// tells the accept loop that owns a parked link "it is yours again".
#[derive(Debug, Clone)]
pub struct ListenerWaker {
    queue: Arc<AcceptQueue>,
}

impl ListenerWaker {
    /// Make the next (or the currently blocked)
    /// [`Listener::accept_batch_or_wake`] call return. Sticky: the wake
    /// stays pending until one such call consumes it.
    pub fn wake(&self) {
        self.queue.backlog.lock().woken = true;
        // Every waiter: a plain `accept` sharing the listener would
        // swallow a `notify_one` and go back to sleep.
        self.queue.ready.notify_all();
    }
}

/// Per-source connect rate limiting: a token bucket per
/// [`SourceAddr::affinity_key`] (i.e. per client *host* — spraying
/// ephemeral ports does not buy an attacker fresh buckets).
///
/// The backlog bound already refuses a flood once the queue is full, but
/// one aggressive host can fill the whole queue and starve everyone. The
/// limiter sheds per source *before any link is built*: an over-limit
/// connect costs the listener one hash lookup and nothing else — the
/// SYN-flood-shedding posture, one layer up.
#[derive(Debug, Clone, Copy)]
pub struct RateLimitConfig {
    /// Bucket capacity: connects a single host may burst before refusals
    /// start (minimum 1).
    pub burst: u32,
    /// Sustained refill, in connects per second per host. `0.0` means no
    /// refill — each host gets `burst` connects for the listener's
    /// lifetime (useful in tests; production wants a positive rate).
    pub refill_per_sec: f64,
}

impl Default for RateLimitConfig {
    fn default() -> Self {
        RateLimitConfig {
            burst: 32,
            refill_per_sec: 16.0,
        }
    }
}

/// One host's token bucket.
#[derive(Debug)]
struct TokenBucket {
    tokens: f64,
    refilled: Instant,
}

/// The per-source limiter state. Buckets that have refilled back to full
/// behave exactly as absent ones, so they are pruned when the table has
/// grown past `PRUNE_THRESHOLD` — but at most once per `PRUNE_INTERVAL`,
/// so a spoofed-source flood that keeps the table large cannot turn
/// every connect into an O(table) scan under the limiter lock. While
/// refill is positive the table stays bounded in amortised terms; the
/// flood path's steady-state cost remains one hash lookup.
#[derive(Debug)]
struct RateLimiter {
    config: RateLimitConfig,
    buckets: HashMap<u64, TokenBucket>,
    last_prune: Instant,
}

/// Bucket-table size that makes a prune of fully-refilled buckets due.
const PRUNE_THRESHOLD: usize = 1024;

/// Minimum spacing between prune scans (each is O(table)).
const PRUNE_INTERVAL: Duration = Duration::from_millis(250);

impl RateLimiter {
    fn new(config: RateLimitConfig) -> RateLimiter {
        RateLimiter {
            config: RateLimitConfig {
                burst: config.burst.max(1),
                refill_per_sec: config.refill_per_sec.max(0.0),
            },
            buckets: HashMap::new(),
            last_prune: Instant::now(),
        }
    }

    /// Take one token from `key`'s bucket; `false` means over limit.
    fn admit(&mut self, key: u64, now: Instant) -> bool {
        let burst = f64::from(self.config.burst);
        let refill = self.config.refill_per_sec;
        if self.buckets.len() >= PRUNE_THRESHOLD
            && now.duration_since(self.last_prune) >= PRUNE_INTERVAL
        {
            self.last_prune = now;
            self.buckets.retain(|_, bucket| {
                let refilled =
                    bucket.tokens + now.duration_since(bucket.refilled).as_secs_f64() * refill;
                refilled < burst
            });
        }
        let bucket = self.buckets.entry(key).or_insert(TokenBucket {
            tokens: burst,
            refilled: now,
        });
        bucket.tokens =
            (bucket.tokens + now.duration_since(bucket.refilled).as_secs_f64() * refill).min(burst);
        bucket.refilled = now;
        if bucket.tokens >= 1.0 {
            bucket.tokens -= 1.0;
            true
        } else {
            false
        }
    }
}

/// A simulated listening socket: clients connect with a [`SourceAddr`],
/// accepted links queue in a bounded backlog.
#[derive(Debug)]
pub struct Listener {
    name: String,
    queue: Arc<AcceptQueue>,
    capacity: usize,
    limiter: Option<Mutex<RateLimiter>>,
    /// Connections handed to an accept call.
    accepted: AtomicU64,
    /// Connections refused: backlog full, listener closed, or rate limited.
    refused: AtomicU64,
    /// Accept calls that returned more than one connection.
    batches: AtomicU64,
    /// The subset of `refused` the per-source rate limiter shed.
    rate_limited: AtomicU64,
    seq: AtomicU64,
    /// The telemetry plane this listener reports into, if registered (see
    /// [`Listener::instrument`]). Counters are pulled at snapshot time;
    /// the connect path only touches it to emit lifecycle events, behind
    /// the plane's one-relaxed-load sink gate.
    telemetry: std::sync::OnceLock<Telemetry>,
}

impl Listener {
    /// Bind a listener named `name` with a `backlog`-deep accept queue.
    /// The handle is `Arc`-shared so client threads can connect while the
    /// serving stack accepts.
    pub fn bind(name: &str, backlog: usize) -> Arc<Listener> {
        Listener::build(name, backlog, None)
    }

    /// [`Listener::bind`] with per-source rate limiting: each client
    /// *host* (keyed by [`SourceAddr::affinity_key`], so ephemeral-port
    /// churn shares one bucket) gets a token bucket of `limit.burst`
    /// connects refilling at `limit.refill_per_sec`. An over-limit
    /// connect is refused with [`NetError::Refused`] **before any link is
    /// built** — a flooding host pays the server one hash lookup per
    /// attempt and cannot fill the backlog.
    pub fn bind_rate_limited(name: &str, backlog: usize, limit: RateLimitConfig) -> Arc<Listener> {
        Listener::build(name, backlog, Some(limit))
    }

    fn build(name: &str, backlog: usize, limit: Option<RateLimitConfig>) -> Arc<Listener> {
        Arc::new(Listener {
            name: name.to_string(),
            queue: Arc::default(),
            capacity: backlog.max(1),
            limiter: limit.map(|config| Mutex::new(RateLimiter::new(config))),
            accepted: AtomicU64::new(0),
            refused: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            rate_limited: AtomicU64::new(0),
            seq: AtomicU64::new(0),
            telemetry: std::sync::OnceLock::new(),
        })
    }

    /// Register this listener with a telemetry plane: its counters are
    /// pulled into `listener.accept` / `listener.refused` /
    /// `listener.rate_limited` / `listener.batches` (and the
    /// `listener.pending` gauge) at snapshot time, and connect outcomes
    /// emit [`TelemetryEvent::Accepted`]/[`TelemetryEvent::Refused`] when
    /// a sink is installed. Idempotent; the collector holds the listener
    /// weakly, so a dropped listener falls out of later snapshots.
    pub fn instrument(self: &Arc<Listener>, telemetry: &Telemetry) {
        if self.telemetry.set(telemetry.clone()).is_err() {
            return;
        }
        let listener = Arc::downgrade(self);
        telemetry.register_collector(move |sample| {
            let Some(listener) = listener.upgrade() else {
                return;
            };
            let load = |cell: &AtomicU64| cell.load(Ordering::Relaxed);
            sample.counter("listener.accept", load(&listener.accepted));
            sample.counter("listener.refused", load(&listener.refused));
            sample.counter("listener.rate_limited", load(&listener.rate_limited));
            sample.counter("listener.batches", load(&listener.batches));
            let pending = listener.queue.backlog.lock().pending.len();
            sample.gauge("listener.pending", pending as u64);
        });
    }

    /// Emit a lifecycle event if a telemetry plane with a live sink is
    /// attached; a single relaxed load otherwise.
    fn emit(&self, make: impl FnOnce(&str) -> TelemetryEvent) {
        if let Some(telemetry) = self.telemetry.get() {
            telemetry.emit_with(|| make(&self.name));
        }
    }

    /// The listener's name (used in accepted endpoints' trace names).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Connect from `source`: creates a fresh link, queues the server end
    /// in the backlog and returns the client end. Both ends carry
    /// `source`. Refuses with [`NetError::Refused`] when the backlog is
    /// full and with [`NetError::Disconnected`] once the listener closed.
    pub fn connect(&self, source: SourceAddr) -> Result<Duplex, NetError> {
        // Check the backlog before building anything: a connect flood
        // against a full queue (the scenario the refusal models) must not
        // pay the link-construction cost per refused attempt.
        let mut backlog = self.queue.backlog.lock();
        // Closure wins over everything: `Disconnected` is the permanent
        // "listener is gone, fail over" signal, and it must not be masked
        // by the limiter's transient `Refused` (nor cost a token).
        if backlog.closed {
            self.refused.fetch_add(1, Ordering::Relaxed);
            self.emit(|listener| TelemetryEvent::Refused {
                listener: listener.to_string(),
                rate_limited: false,
            });
            return Err(NetError::Disconnected);
        }
        // Per-source shedding next: an over-limit host is refused before
        // a backlog slot is considered, let alone a link built. (Lock
        // order backlog → limiter; connect is the only path taking both.)
        if let Some(limiter) = &self.limiter {
            if !limiter.lock().admit(source.affinity_key(), Instant::now()) {
                self.rate_limited.fetch_add(1, Ordering::Relaxed);
                self.refused.fetch_add(1, Ordering::Relaxed);
                self.emit(|listener| TelemetryEvent::Refused {
                    listener: listener.to_string(),
                    rate_limited: true,
                });
                return Err(NetError::Refused);
            }
        }
        if backlog.pending.len() >= self.capacity {
            self.refused.fetch_add(1, Ordering::Relaxed);
            self.emit(|listener| TelemetryEvent::Refused {
                listener: listener.to_string(),
                rate_limited: false,
            });
            return Err(NetError::Refused);
        }
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let (client, server) =
            duplex_pair_with_source(source, &source.to_string(), &format!("{}#{seq}", self.name));
        backlog.pending.push_back((server, Instant::now()));
        drop(backlog);
        self.queue.ready.notify_one();
        self.emit(|listener| TelemetryEvent::Accepted {
            listener: listener.to_string(),
        });
        Ok(client)
    }

    /// Accept one connection, blocking according to `timeout`. A closed
    /// listener drains its remaining backlog first, then reports
    /// [`NetError::Disconnected`] — no queued connection is ever lost.
    pub fn accept(&self, timeout: RecvTimeout) -> Result<Duplex, NetError> {
        self.accept_batch(1, timeout)
            .map(|mut links| links.pop().expect("accept_batch(1, ..) returns one link"))
    }

    /// Accept up to `max` connections in one call: blocks (per `timeout`)
    /// until at least one connection is available, then drains whatever
    /// else is already queued, up to `max`. Batching amortises the
    /// wakeup/submission cost of a busy accept loop. Never returns an
    /// empty batch.
    pub fn accept_batch(&self, max: usize, timeout: RecvTimeout) -> Result<Vec<Duplex>, NetError> {
        self.accept_inner(max, timeout, false)
    }

    /// A handle whose [`ListenerWaker::wake`] interrupts
    /// [`Listener::accept_batch_or_wake`].
    pub fn waker(&self) -> ListenerWaker {
        ListenerWaker {
            queue: self.queue.clone(),
        }
    }

    /// [`Listener::accept_batch`] for an event loop with a second event
    /// source: blocks, with no timeout, until a connection is queued, a
    /// [`ListenerWaker::wake`] is pending, or the listener closes. Returns
    /// the accepted links — **empty** when it was woken with nothing to
    /// accept — and consumes the pending wake either way.
    pub fn accept_batch_or_wake(&self, max: usize) -> Result<Vec<Duplex>, NetError> {
        self.accept_inner(max, RecvTimeout::Forever, true)
    }

    fn accept_inner(
        &self,
        max: usize,
        timeout: RecvTimeout,
        wakeable: bool,
    ) -> Result<Vec<Duplex>, NetError> {
        let max = max.max(1);
        let mut backlog = self.queue.backlog.lock();
        loop {
            let woken = wakeable && std::mem::take(&mut backlog.woken);
            if !backlog.pending.is_empty() {
                let take = backlog.pending.len().min(max);
                let drained: Vec<(Duplex, Instant)> = backlog.pending.drain(..take).collect();
                drop(backlog);
                return Ok(self.stamp_accepted(drained));
            }
            if backlog.closed {
                return Err(NetError::Disconnected);
            }
            if woken {
                return Ok(Vec::new());
            }
            match timeout {
                RecvTimeout::Forever => self.queue.ready.wait(&mut backlog),
                RecvTimeout::After(d) => {
                    if self.queue.ready.wait_for(&mut backlog, d).timed_out()
                        && backlog.pending.is_empty()
                        && !backlog.closed
                    {
                        return Err(NetError::Timeout);
                    }
                }
            }
        }
    }

    /// Count a drained batch and, when tracing, give each link its root
    /// trace.
    fn stamp_accepted(&self, drained: Vec<(Duplex, Instant)>) -> Vec<Duplex> {
        self.accepted
            .fetch_add(drained.len() as u64, Ordering::Relaxed);
        if drained.len() > 1 {
            self.batches.fetch_add(1, Ordering::Relaxed);
        }
        // Accept is where a request's trace is born: mint the root
        // context, record the backlog-wait (`accept`) span, and stamp the
        // link so the serving stack joins the same tree.
        let tracer = self.telemetry.get().and_then(Telemetry::tracer);
        drained
            .into_iter()
            .map(|(mut link, enqueued)| {
                if let Some(tracer) = &tracer {
                    let root = tracer.begin_root();
                    let enqueued_ns = tracer.stamp(enqueued);
                    let accept = tracer.child_of(root);
                    tracer.record(
                        accept,
                        SpanKind::Accept,
                        enqueued_ns,
                        tracer.now_ns(),
                        true,
                        0,
                    );
                    link.set_trace(LinkTrace {
                        ctx: root,
                        root_start_ns: enqueued_ns,
                    });
                }
                link
            })
            .collect()
    }

    /// Close the listener: new connects are refused; accepts drain the
    /// remaining backlog and then report [`NetError::Disconnected`].
    pub fn close(&self) {
        let mut backlog = self.queue.backlog.lock();
        backlog.closed = true;
        drop(backlog);
        self.queue.ready.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn addr(last: u8, port: u16) -> SourceAddr {
        SourceAddr::new([10, 0, 0, last], port)
    }

    #[test]
    fn connect_accept_round_trip_carries_the_source_addr() {
        let listener = Listener::bind("pop3", 8);
        let telemetry = Telemetry::new();
        listener.instrument(&telemetry);
        let client = listener.connect(addr(7, 40001)).unwrap();
        let server = listener.accept(RecvTimeout::Forever).unwrap();
        assert_eq!(server.source(), Some(addr(7, 40001)));
        assert_eq!(client.source(), Some(addr(7, 40001)));
        client.send(b"hello").unwrap();
        assert_eq!(server.recv(RecvTimeout::Forever).unwrap(), b"hello");
        assert_eq!(telemetry.snapshot().counter("listener.accept"), 1);
    }

    #[test]
    fn affinity_key_ignores_the_ephemeral_port() {
        let first = addr(9, 40001).affinity_key();
        let reconnect = addr(9, 51313).affinity_key();
        let other_host = addr(10, 40001).affinity_key();
        assert_eq!(first, reconnect, "same host, new port: same key");
        assert_ne!(first, other_host, "different hosts must diverge");
    }

    #[test]
    fn full_backlog_refuses_like_a_syn_queue() {
        let listener = Listener::bind("busy", 2);
        let telemetry = Telemetry::new();
        listener.instrument(&telemetry);
        let _a = listener.connect(addr(1, 1)).unwrap();
        let _b = listener.connect(addr(2, 2)).unwrap();
        assert_eq!(listener.connect(addr(3, 3)).unwrap_err(), NetError::Refused);
        assert_eq!(telemetry.snapshot().counter("listener.refused"), 1);
        // Draining the backlog frees a slot.
        let _ = listener.accept(RecvTimeout::Forever).unwrap();
        assert!(listener.connect(addr(3, 3)).is_ok());
    }

    #[test]
    fn accept_batch_drains_whatever_is_queued() {
        let listener = Listener::bind("batchy", 16);
        let telemetry = Telemetry::new();
        listener.instrument(&telemetry);
        let _clients: Vec<_> = (0..5)
            .map(|i| listener.connect(addr(i, 100 + u16::from(i))).unwrap())
            .collect();
        let batch = listener
            .accept_batch(4, RecvTimeout::Forever)
            .expect("batch");
        assert_eq!(batch.len(), 4, "drains up to max in one call");
        let rest = listener
            .accept_batch(4, RecvTimeout::Forever)
            .expect("rest");
        assert_eq!(rest.len(), 1);
        let snapshot = telemetry.snapshot();
        assert_eq!(snapshot.counter("listener.accept"), 5);
        assert_eq!(
            snapshot.counter("listener.batches"),
            1,
            "only the 4-link call counts as a batch"
        );
    }

    #[test]
    fn close_drains_the_backlog_before_disconnecting() {
        let listener = Listener::bind("closing", 8);
        let _c = listener.connect(addr(1, 1)).unwrap();
        listener.close();
        assert_eq!(
            listener.connect(addr(2, 2)).unwrap_err(),
            NetError::Disconnected
        );
        // The already-queued connection is still delivered...
        assert!(listener.accept(RecvTimeout::Forever).is_ok());
        // ...then the closure is visible.
        assert_eq!(
            listener.accept(RecvTimeout::Forever).unwrap_err(),
            NetError::Disconnected
        );
    }

    #[test]
    fn accept_times_out_while_open_and_empty() {
        let listener = Listener::bind("quiet", 4);
        let err = listener
            .accept(RecvTimeout::After(Duration::from_millis(10)))
            .unwrap_err();
        assert_eq!(err, NetError::Timeout);
    }

    #[test]
    fn rate_limiter_sheds_a_bursting_host_before_the_backlog() {
        let listener = Listener::bind_rate_limited(
            "limited",
            64,
            RateLimitConfig {
                burst: 2,
                refill_per_sec: 0.0,
            },
        );
        let telemetry = Telemetry::new();
        listener.instrument(&telemetry);
        // Two connects within the burst pass; the third is refused even
        // though the 64-deep backlog is nearly empty — and a fresh
        // ephemeral port does not buy a fresh bucket.
        let _a = listener.connect(addr(1, 40_000)).unwrap();
        let _b = listener.connect(addr(1, 40_001)).unwrap();
        assert_eq!(
            listener.connect(addr(1, 40_002)).unwrap_err(),
            NetError::Refused
        );
        let snapshot = telemetry.snapshot();
        assert_eq!(snapshot.counter("listener.rate_limited"), 1);
        assert_eq!(
            snapshot.counter("listener.refused"),
            1,
            "rate-limited refusals count as refused"
        );
        assert_eq!(
            snapshot.counter("listener.pending"),
            2,
            "the backlog never saw the third SYN"
        );
    }

    #[test]
    fn rate_limiter_tracks_each_source_host_independently() {
        let listener = Listener::bind_rate_limited(
            "per-host",
            64,
            RateLimitConfig {
                burst: 1,
                refill_per_sec: 0.0,
            },
        );
        let telemetry = Telemetry::new();
        listener.instrument(&telemetry);
        assert!(listener.connect(addr(1, 1)).is_ok());
        assert_eq!(listener.connect(addr(1, 2)).unwrap_err(), NetError::Refused);
        // A different host has its own untouched bucket.
        assert!(listener.connect(addr(2, 1)).is_ok());
        assert_eq!(telemetry.snapshot().counter("listener.rate_limited"), 1);
    }

    #[test]
    fn rate_limiter_refills_over_time() {
        let listener = Listener::bind_rate_limited(
            "refilling",
            64,
            RateLimitConfig {
                burst: 1,
                refill_per_sec: 200.0,
            },
        );
        assert!(listener.connect(addr(3, 1)).is_ok());
        assert_eq!(listener.connect(addr(3, 2)).unwrap_err(), NetError::Refused);
        // 200 tokens/sec ⇒ one token back within ~5ms; wait generously.
        std::thread::sleep(Duration::from_millis(50));
        assert!(
            listener.connect(addr(3, 3)).is_ok(),
            "the bucket must refill at the configured rate"
        );
    }

    #[test]
    fn rate_limited_connects_never_consume_backlog_slots() {
        // Backlog of 1 plus a limiter: the flood is shed by the limiter,
        // so the one legitimate queued connection still gets accepted.
        let listener = Listener::bind_rate_limited(
            "tight",
            1,
            RateLimitConfig {
                burst: 1,
                refill_per_sec: 0.0,
            },
        );
        let telemetry = Telemetry::new();
        listener.instrument(&telemetry);
        let _legit = listener.connect(addr(9, 1)).unwrap();
        for port in 0..100u16 {
            assert!(listener.connect(addr(9, 2000 + port)).is_err());
        }
        assert_eq!(telemetry.snapshot().counter("listener.rate_limited"), 100);
        let served = listener.accept(RecvTimeout::Forever).unwrap();
        assert_eq!(served.source(), Some(addr(9, 1)));
    }

    #[test]
    fn closed_listener_reports_disconnected_even_when_over_limit() {
        // `Disconnected` (permanent: fail over) must not be masked by the
        // limiter's transient `Refused` — and a dead listener's refusals
        // must not drain the host's bucket.
        let listener = Listener::bind_rate_limited(
            "closing-limited",
            8,
            RateLimitConfig {
                burst: 1,
                refill_per_sec: 0.0,
            },
        );
        let telemetry = Telemetry::new();
        listener.instrument(&telemetry);
        let _only = listener.connect(addr(6, 1)).unwrap();
        assert_eq!(listener.connect(addr(6, 2)).unwrap_err(), NetError::Refused);
        listener.close();
        assert_eq!(
            listener.connect(addr(6, 3)).unwrap_err(),
            NetError::Disconnected,
            "closure wins over the rate limit"
        );
        assert_eq!(
            listener.connect(addr(7, 1)).unwrap_err(),
            NetError::Disconnected,
            "closure wins even with a full bucket"
        );
        assert_eq!(telemetry.snapshot().counter("listener.rate_limited"), 1);
    }

    #[test]
    fn unlimited_listener_reports_zero_rate_limited() {
        let listener = Listener::bind("open", 8);
        let telemetry = Telemetry::new();
        listener.instrument(&telemetry);
        let _c = listener.connect(addr(5, 5)).unwrap();
        assert_eq!(telemetry.snapshot().counter("listener.rate_limited"), 0);
    }

    #[test]
    fn accept_mints_a_root_trace_when_a_tracer_is_installed() {
        let listener = Listener::bind("traced", 8);
        let telemetry = Telemetry::new();
        listener.instrument(&telemetry);
        let _untraced_client = listener.connect(addr(1, 1)).unwrap();
        let untraced = listener.accept(RecvTimeout::Forever).unwrap();
        assert!(untraced.trace().is_none(), "no tracer: no stamp");

        telemetry.install_tracer(wedge_telemetry::Tracer::new(
            wedge_telemetry::TracerConfig::default(),
        ));
        let _client = listener.connect(addr(1, 2)).unwrap();
        let server = listener.accept(RecvTimeout::Forever).unwrap();
        let trace = server.trace().expect("accept stamps the link");
        assert_eq!(trace.ctx.parent_id, 0, "the link carries the root span");
        assert_eq!(
            telemetry.snapshot().counter("trace.started"),
            1,
            "one trace minted"
        );
        assert_eq!(
            telemetry
                .snapshot()
                .histogram("trace.accept")
                .expect("accept span histogram")
                .count,
            1,
            "the backlog-wait span was recorded"
        );
    }

    #[test]
    fn accept_unblocks_across_threads() {
        let listener = Listener::bind("threaded", 4);
        let acceptor = listener.clone();
        let handle = std::thread::spawn(move || acceptor.accept(RecvTimeout::Forever));
        std::thread::sleep(Duration::from_millis(10));
        let _client = listener.connect(addr(4, 4)).unwrap();
        let server = handle.join().unwrap().unwrap();
        assert_eq!(server.source(), Some(addr(4, 4)));
    }

    #[test]
    fn a_wake_before_the_accept_call_blocks_is_sticky() {
        let listener = Listener::bind("sticky", 4);
        // Nobody is waiting yet: the wake must stay pending, so the call
        // below returns instead of blocking forever.
        listener.waker().wake();
        assert_eq!(
            listener.accept_batch_or_wake(4).map(|links| links.len()),
            Ok(0)
        );
        // Consumed: a second wake is needed for a second empty return, and
        // a queued connection comes back alongside it.
        listener.waker().wake();
        let _client = listener.connect(addr(1, 1)).unwrap();
        assert_eq!(
            listener.accept_batch_or_wake(4).map(|links| links.len()),
            Ok(1)
        );
        // That call consumed the wake too; close is the third event.
        listener.close();
        assert_eq!(
            listener.accept_batch_or_wake(4).unwrap_err(),
            NetError::Disconnected
        );
    }

    #[test]
    fn a_wake_ends_a_blocked_accept_from_another_thread() {
        let listener = Listener::bind("cross-thread", 4);
        let waker = listener.waker();
        std::thread::scope(|scope| {
            let accept = scope.spawn(|| listener.accept_batch_or_wake(4));
            // Wherever the acceptor is — not yet called, or blocked — the
            // flag is set under the backlog lock, so it sees it.
            waker.wake();
            assert_eq!(accept.join().unwrap().map(|links| links.len()), Ok(0));
        });
    }

    #[test]
    fn accept_and_accept_batch_never_return_an_empty_batch() {
        let listener = Listener::bind("non-empty", 4);
        let waker = listener.waker();
        // A pending wake is not theirs to consume: they time out on it...
        waker.wake();
        let timeout = RecvTimeout::After(Duration::from_millis(5));
        assert_eq!(
            listener.accept_batch(4, timeout).unwrap_err(),
            NetError::Timeout
        );
        assert_eq!(listener.accept(timeout).unwrap_err(), NetError::Timeout);
        // ...block through one delivered while they wait, and return only
        // for a connection.
        std::thread::scope(|scope| {
            let accept = scope.spawn(|| listener.accept_batch(4, RecvTimeout::Forever));
            waker.wake();
            let _client = listener.connect(addr(2, 2)).unwrap();
            assert_eq!(accept.join().unwrap().map(|links| links.len()), Ok(1));
        });
        // The wake they ignored is still there for the call that wants it.
        assert_eq!(
            listener.accept_batch_or_wake(4).map(|links| links.len()),
            Ok(0)
        );
    }
}
