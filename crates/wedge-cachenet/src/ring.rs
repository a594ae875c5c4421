//! The cache ring: a machine's client for the distributed session cache.
//!
//! A [`CacheRing`] routes each [`SessionId`] to one [`CacheEndpoint`]
//! with **rendezvous (highest-random-weight) hashing** — every machine
//! holding the same node list agrees on the owner of every key with no
//! coordination, and when a node dies only its own keys move (to their
//! next-highest-scoring node), which is the consistent-hashing property
//! the ring needs to survive node churn.
//!
//! Remote I/O is **pipelined and batched** (wire v2). One persistent
//! link per node carries any number of concurrent requests: every frame
//! is stamped with a `u16` request id, replies echo it, and a
//! demultiplexer — a drain handler on the ring's own
//! [`wedge_net::Reactor`] — pairs each reply with its waiter by id, so
//! a slow request never head-of-line-blocks the ops queued behind it.
//! Concurrent lookups routed to the same node **coalesce** into
//! multi-key `LookupBatch` frames (at most [`CacheRingConfig::max_batch`]
//! keys, optionally lingering [`CacheRingConfig::batch_window`] to let a
//! burst fill the frame), amortising framing and round-trip cost across
//! the burst; every `Hit` in a batch **read-through-prefetches** into
//! the local miss-through tier, so sibling keys warm the machine even
//! when their own caller has already given up.
//!
//! Remote operations stay **bounded-latency**: one routed node, one
//! reply awaited for at most [`CacheRingConfig::op_timeout`]. A timeout
//! abandons only its own request id (the late reply finds no waiter and
//! is dropped — ids make this safe). Failures (dial refused, link
//! dropped, timeout) feed a per-node **circuit breaker** — after
//! [`CacheRingConfig::breaker_threshold`] consecutive failures the node is
//! skipped outright for [`CacheRingConfig::breaker_cooldown`], then
//! probed again (half-open). While a node's circuit is open its keys
//! route to their next-best node, so a dead node costs the ring one
//! timeout per key at most once per cooldown, not per lookup.
//!
//! The ring is itself a [`SessionStore`]: servers cannot tell it from the
//! in-process [`SharedSessionCache`]. Lookups **miss through** to a local
//! cache tier (so a machine keeps resuming its own sessions with every
//! cache node dead), inserts **write through** (local tier + routed
//! node), and every reply's epoch is tracked per node so a restarted
//! node is observable the moment it answers.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use wedge_net::duplex::fnv1a;
use wedge_net::{Duplex, LinkEvent, LinkVerdict, Reactor, SourceAddr};
use wedge_telemetry::trace::{self, SpanGuard};
use wedge_telemetry::{Histogram, SpanKind, Telemetry, TelemetryEvent, TraceContext};
use wedge_tls::{SessionId, SessionStore, SharedSessionCache};

use crate::node::CacheEndpoint;
use crate::proto::{Request, Response, MAX_BATCH_KEYS};

/// Ring-client tuning.
#[derive(Debug, Clone, Copy)]
pub struct CacheRingConfig {
    /// The machine's own source address (stamped on every dialed link, so
    /// node-side traces and rate limiters see who is asking).
    pub source: SourceAddr,
    /// Hard bound on one remote operation's reply wait.
    pub op_timeout: Duration,
    /// Consecutive failures that open a node's circuit (minimum 1).
    pub breaker_threshold: u32,
    /// How long an open circuit skips the node before a half-open probe.
    pub breaker_cooldown: Duration,
    /// Capacity of the local miss-through tier.
    pub local_capacity: usize,
    /// Most keys one coalesced `LookupBatch` / `InsertBatch` frame may
    /// carry (clamped to `1..=` [`MAX_BATCH_KEYS`]).
    pub max_batch: usize,
    /// Bounded flush window: how long a coalescing sender lingers for a
    /// concurrent burst to fill its frame before it flies.
    /// `Duration::ZERO` (the default) sends immediately — batching then
    /// comes only from genuine concurrency, never from added idle
    /// latency.
    pub batch_window: Duration,
}

impl Default for CacheRingConfig {
    fn default() -> Self {
        CacheRingConfig {
            source: SourceAddr::new([127, 0, 0, 1], 0),
            op_timeout: Duration::from_millis(250),
            breaker_threshold: 3,
            breaker_cooldown: Duration::from_millis(250),
            local_capacity: wedge_tls::DEFAULT_SESSION_CACHE_CAPACITY,
            max_batch: 16,
            batch_window: Duration::ZERO,
        }
    }
}

/// Ring-level counters (all monotonic).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CacheRingStats {
    /// Lookups answered by a cache node's hit (batch ops count per key).
    pub remote_hits: u64,
    /// Lookups a cache node answered miss (batch ops count per key).
    pub remote_misses: u64,
    /// Lookups answered by the local tier after the remote path failed or
    /// missed.
    pub local_hits: u64,
    /// Write-through inserts acknowledged `Ok` by a node (batch ops count
    /// per key).
    pub write_throughs: u64,
    /// Remote operations that failed (dial, send, timeout, link death) —
    /// each also feeds the owning node's circuit breaker, once per wire
    /// frame.
    pub failures: u64,
    /// Times a node's circuit breaker opened.
    pub circuit_opens: u64,
    /// Epoch changes observed in node replies (each one is a detected
    /// node restart).
    pub epoch_changes: u64,
    /// Operations that found **no** routable node (every circuit open):
    /// served purely by the local tier.
    pub all_nodes_down: u64,
}

impl std::ops::AddAssign<&CacheRingStats> for CacheRingStats {
    /// Fold ring snapshots (e.g. across the machines of a fleet): every
    /// field is a monotonic counter and sums. Destructured exhaustively
    /// so a new field is a compile error here, not a silently dropped
    /// stat — the same convention as `SchedStats`.
    fn add_assign(&mut self, other: &CacheRingStats) {
        let CacheRingStats {
            remote_hits,
            remote_misses,
            local_hits,
            write_throughs,
            failures,
            circuit_opens,
            epoch_changes,
            all_nodes_down,
        } = other;
        self.remote_hits += remote_hits;
        self.remote_misses += remote_misses;
        self.local_hits += local_hits;
        self.write_throughs += write_throughs;
        self.failures += failures;
        self.circuit_opens += circuit_opens;
        self.epoch_changes += epoch_changes;
        self.all_nodes_down += all_nodes_down;
    }
}

/// Breaker state for one node.
#[derive(Debug)]
struct Breaker {
    consecutive_failures: u32,
    open_until: Option<Instant>,
    /// A half-open probe is in flight: one caller claimed the right to
    /// test the recovering node. Everyone else skips it (next-ranked
    /// node) until the probe resolves — without this, every concurrent
    /// lookup racing past an expired cooldown thundering-herds a node
    /// that may still be booting.
    probing: bool,
}

/// Live instruments installed by [`CacheRing::instrument`]: the overall
/// lookup latency plus the remote-answered / local-tier split, and the
/// key count of every batch frame sent.
struct RingProbes {
    telemetry: Telemetry,
    lookup: Histogram,
    lookup_remote: Histogram,
    lookup_local: Histogram,
    batch_size: Histogram,
}

/// A one-shot rendezvous between a request's caller and the reactor-side
/// demultiplexer that receives its reply.
struct Waiter<T> {
    slot: Mutex<Option<T>>,
    cv: Condvar,
}

impl<T> Waiter<T> {
    fn new() -> Waiter<T> {
        Waiter {
            slot: Mutex::new(None),
            cv: Condvar::new(),
        }
    }

    fn fulfill(&self, value: T) {
        *self.slot.lock() = Some(value);
        self.cv.notify_all();
    }

    /// Wait up to `timeout` for the value; `None` means timed out.
    fn wait(&self, timeout: Duration) -> Option<T> {
        let deadline = Instant::now() + timeout;
        let mut slot = self.slot.lock();
        while slot.is_none() {
            let now = Instant::now();
            let Some(remaining) = deadline
                .checked_duration_since(now)
                .filter(|d| !d.is_zero())
            else {
                break;
            };
            if self.cv.wait_for(&mut slot, remaining).timed_out() {
                break;
            }
        }
        slot.take()
    }
}

/// A whole-frame reply for a single-shot op.
enum Outcome {
    Response(Response),
    /// The link died before the reply; the breaker was already fed by
    /// the link-death path.
    LinkDead,
}

/// One key's result out of a (possibly coalesced) lookup frame.
enum KeyOutcome {
    Hit(Vec<u8>),
    Miss,
    /// The frame failed (link death or a refused batch): fall back to
    /// the local tier.
    Failed,
}

/// A key's routed node paired with its in-flight waiter, or `None` when
/// no node was routable (all breakers open).
type PendingKey = Option<(Arc<NodeState>, Arc<Waiter<KeyOutcome>>)>;

/// Write-through entries grouped by their routed node.
type NodeGroups = Vec<(Arc<NodeState>, Vec<(SessionId, Vec<u8>)>)>;

/// What the demultiplexer pairs with one in-flight request id.
enum Pending {
    /// A single-shot op: the caller wants the whole response.
    One(Arc<Waiter<Outcome>>),
    /// A coalesced `LookupBatch`: per-key waiters, in frame key order.
    Lookups(Vec<(SessionId, Arc<Waiter<KeyOutcome>>)>),
}

/// The persistent pipelined link to one node: a request-id allocator and
/// the id → waiter map the demultiplexer resolves replies against.
struct NodeLink {
    link: Arc<Duplex>,
    /// Wrapping id allocator. A collision needs 65,536 requests in
    /// flight on one link; `op_timeout` bounds real in-flight depth far
    /// below that.
    next_id: AtomicU32,
    inflight: Mutex<HashMap<u16, Pending>>,
    dead: AtomicBool,
}

impl NodeLink {
    fn alloc_id(&self) -> u16 {
        (self.next_id.fetch_add(1, Ordering::Relaxed) & 0xFFFF) as u16
    }
}

/// The coalescing queue: lookups bound for one node waiting for a
/// sender (flat combining — whichever caller finds no sender active
/// drains everyone's keys into shared frames).
#[derive(Default)]
struct LookupQueue {
    items: Vec<(SessionId, Arc<Waiter<KeyOutcome>>)>,
    sender_active: bool,
}

struct NodeState {
    /// This node's position in the ring's endpoint list (stable — the
    /// index [`TelemetryEvent::CircuitOpen`] reports).
    index: usize,
    endpoint: CacheEndpoint,
    /// Routing seed: FNV-1a of the node name. Machines sharing a node
    /// list derive identical seeds, hence identical routing.
    seed: u64,
    /// The persistent pipelined link (re-dialed on demand; marked dead —
    /// and every in-flight id failed — on dial/send failure or peer
    /// hang-up).
    conn: Mutex<Option<Arc<NodeLink>>>,
    breaker: Mutex<Breaker>,
    /// Last epoch seen in a reply from this node (0 = none yet).
    last_epoch: AtomicU64,
    queue: Mutex<LookupQueue>,
    /// Signalled on every enqueue: ends the (one) lingering sender's
    /// flush window early once its frame can fill.
    queued: Condvar,
}

impl NodeState {
    /// Queue one key for the coalescing sender.
    fn enqueue(&self, id: SessionId, waiter: Arc<Waiter<KeyOutcome>>) {
        self.queue.lock().items.push((id, waiter));
        self.queued.notify_one();
    }

    /// May this node be routed to right now? (Pure read — the gauge and
    /// tests use this; the routing path claims via
    /// [`NodeState::claim_routable`].) An open circuit says no until its
    /// cooldown passes.
    fn routable(&self, now: Instant) -> bool {
        let breaker = self.breaker.lock();
        match breaker.open_until {
            Some(until) => now >= until,
            None => true,
        }
    }

    /// [`NodeState::routable`], but with the half-open probe cap: a node
    /// whose cooldown has passed admits exactly **one** caller (the
    /// probe) and reads unroutable to everyone else until that probe
    /// resolves — success closes the breaker, failure re-arms the
    /// cooldown. A closed breaker claims nothing.
    fn claim_routable(&self, now: Instant) -> bool {
        let mut breaker = self.breaker.lock();
        match breaker.open_until {
            None => true,
            Some(until) if now >= until => {
                if breaker.probing {
                    return false;
                }
                breaker.probing = true;
                true
            }
            Some(_) => false,
        }
    }
}

/// Counters, config and probes shared between the ring and the
/// reactor-side demultiplexer handlers.
struct RingShared {
    config: CacheRingConfig,
    remote_hits: AtomicU64,
    remote_misses: AtomicU64,
    local_hits: AtomicU64,
    write_throughs: AtomicU64,
    failures: AtomicU64,
    circuit_opens: AtomicU64,
    epoch_changes: AtomicU64,
    all_nodes_down: AtomicU64,
    /// Store-level hit/miss counters (the [`SessionStore`] contract).
    store_hits: AtomicU64,
    store_misses: AtomicU64,
    /// Set once by [`CacheRing::instrument`].
    probes: std::sync::OnceLock<RingProbes>,
}

impl RingShared {
    /// Success bookkeeping for one replied frame: close the breaker,
    /// release any half-open claim, track the node's epoch. Runs on the
    /// reactor thread for every decoded reply.
    fn op_succeeded(&self, node: &NodeState, epoch: u64) {
        {
            let mut breaker = node.breaker.lock();
            breaker.consecutive_failures = 0;
            breaker.open_until = None;
            breaker.probing = false;
        }
        let previous = node.last_epoch.swap(epoch, Ordering::Relaxed);
        if previous != 0 && previous != epoch {
            self.epoch_changes.fetch_add(1, Ordering::Relaxed);
            if let Some(probes) = self.probes.get() {
                probes.telemetry.emit_with(|| TelemetryEvent::EpochBump {
                    node: node.endpoint.name().to_string(),
                    epoch,
                });
            }
        }
    }

    /// Failure bookkeeping for one failed frame (dial, send, timeout or
    /// link death): count it and feed the node's breaker. Releases any
    /// half-open claim — a failed probe re-arms the cooldown, so the
    /// next probe waits it out again.
    fn op_failed(&self, node: &NodeState) {
        self.failures.fetch_add(1, Ordering::Relaxed);
        let mut breaker = node.breaker.lock();
        breaker.probing = false;
        breaker.consecutive_failures += 1;
        if breaker.consecutive_failures >= self.config.breaker_threshold {
            // (Re)open the circuit; a half-open probe that fails lands
            // here again and re-arms the cooldown.
            breaker.open_until = Some(Instant::now() + self.config.breaker_cooldown);
            self.circuit_opens.fetch_add(1, Ordering::Relaxed);
            if let Some(probes) = self.probes.get() {
                probes
                    .telemetry
                    .emit_with(|| TelemetryEvent::CircuitOpen { node: node.index });
            }
        }
    }
}

/// Mark a link dead, detach it from its node's conn slot, and fail every
/// id still in flight — one ring-level failure (and breaker feed) per
/// pending frame, matching what each frame's caller would have counted.
fn kill_link(shared: &RingShared, node: &NodeState, link: &Arc<NodeLink>) {
    link.dead.store(true, Ordering::Relaxed);
    {
        let mut conn = node.conn.lock();
        if conn
            .as_ref()
            .is_some_and(|current| Arc::ptr_eq(current, link))
        {
            *conn = None;
        }
    }
    let pending: Vec<Pending> = link.inflight.lock().drain().map(|(_, p)| p).collect();
    for entry in pending {
        shared.op_failed(node);
        match entry {
            Pending::One(waiter) => waiter.fulfill(Outcome::LinkDead),
            Pending::Lookups(keys) => {
                for (_, waiter) in keys {
                    waiter.fulfill(KeyOutcome::Failed);
                }
            }
        }
    }
}

/// The reactor-side demultiplexer: pair one reply frame with its waiter
/// by request id. Hits inside batch replies read-through-prefetch into
/// the local tier here, so sibling keys warm the machine regardless of
/// whether their own caller is still waiting.
fn demux(
    shared: &RingShared,
    node: &NodeState,
    local: &SharedSessionCache,
    link: &NodeLink,
    frame: &[u8],
) {
    let Ok(framed) = Response::decode(frame) else {
        return;
    };
    let id = framed.request_id;
    let response = framed.response;
    shared.op_succeeded(node, response.epoch());
    match link.inflight.lock().remove(&id) {
        Some(Pending::One(waiter)) => waiter.fulfill(Outcome::Response(response)),
        Some(Pending::Lookups(keys)) => match response {
            Response::Batch { results, .. } if results.len() == keys.len() => {
                for ((key, waiter), result) in keys.into_iter().zip(results) {
                    match result {
                        Some(premaster) => {
                            local.insert(key, premaster.clone());
                            waiter.fulfill(KeyOutcome::Hit(premaster));
                        }
                        None => waiter.fulfill(KeyOutcome::Miss),
                    }
                }
            }
            // A refused or malformed batch reply: every key falls back.
            _ => {
                for (_, waiter) in keys {
                    waiter.fulfill(KeyOutcome::Failed);
                }
            }
        },
        // Late reply after its caller timed out: the success bookkeeping
        // above still counts — the node *is* alive.
        None => {}
    }
}

/// The distributed session-cache client: rendezvous routing over the
/// node endpoints, pipelined per-node links, coalesced batches, circuit
/// breaking, local miss-through tier.
pub struct CacheRing {
    shared: Arc<RingShared>,
    nodes: Vec<Arc<NodeState>>,
    local: Arc<SharedSessionCache>,
    /// Drives the demultiplexer of every node link — one sthread for the
    /// whole ring, however many nodes and in-flight requests.
    reactor: Reactor,
}

impl std::fmt::Debug for CacheRing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CacheRing")
            .field("nodes", &self.nodes.len())
            .field("stats", &self.stats())
            .finish()
    }
}

impl CacheRing {
    /// A ring over `endpoints`. Routing depends only on the node *names*,
    /// so two machines given the same endpoints (in any order) route every
    /// key identically.
    pub fn new(endpoints: Vec<CacheEndpoint>, config: CacheRingConfig) -> CacheRing {
        CacheRing {
            nodes: endpoints
                .into_iter()
                .enumerate()
                .map(|(index, endpoint)| {
                    Arc::new(NodeState {
                        index,
                        seed: fnv1a(endpoint.name().as_bytes()),
                        endpoint,
                        conn: Mutex::new(None),
                        breaker: Mutex::new(Breaker {
                            consecutive_failures: 0,
                            open_until: None,
                            probing: false,
                        }),
                        last_epoch: AtomicU64::new(0),
                        queue: Mutex::new(LookupQueue::default()),
                        queued: Condvar::new(),
                    })
                })
                .collect(),
            local: Arc::new(SharedSessionCache::with_capacity(
                config.local_capacity.max(1),
            )),
            shared: Arc::new(RingShared {
                config: CacheRingConfig {
                    breaker_threshold: config.breaker_threshold.max(1),
                    max_batch: config.max_batch.clamp(1, MAX_BATCH_KEYS),
                    ..config
                },
                remote_hits: AtomicU64::new(0),
                remote_misses: AtomicU64::new(0),
                local_hits: AtomicU64::new(0),
                write_throughs: AtomicU64::new(0),
                failures: AtomicU64::new(0),
                circuit_opens: AtomicU64::new(0),
                epoch_changes: AtomicU64::new(0),
                all_nodes_down: AtomicU64::new(0),
                store_hits: AtomicU64::new(0),
                store_misses: AtomicU64::new(0),
                probes: std::sync::OnceLock::new(),
            }),
            reactor: Reactor::spawn("cachering"),
        }
    }

    /// Register the ring on `telemetry` (idempotent): live latency
    /// histograms `cachenet.lookup` (every lookup), its
    /// `cachenet.lookup.remote` / `cachenet.lookup.local` split by which
    /// tier answered (batch ops record one sample per **key**, so p99
    /// stays comparable with single-op traffic), the `cachenet.batch.size`
    /// key-count histogram, plus a pull collector for the ring counters
    /// (`cachenet.remote_hits`, `cachenet.failures`,
    /// `cachenet.circuit_opens`, …), the `cachenet.pipeline.inflight`
    /// gauge (requests currently in flight across all node links), the
    /// currently-open breaker count and the local tier's residency. The
    /// ring's reactor contributes to the `reactor.*` rows. Audit events
    /// ([`TelemetryEvent::CircuitOpen`], [`TelemetryEvent::EpochBump`])
    /// flow to an installed sink from the moment this returns.
    pub fn instrument(self: &Arc<Self>, telemetry: &Telemetry) {
        let probes = RingProbes {
            telemetry: telemetry.clone(),
            lookup: telemetry.histogram("cachenet.lookup"),
            lookup_remote: telemetry.histogram("cachenet.lookup.remote"),
            lookup_local: telemetry.histogram("cachenet.lookup.local"),
            batch_size: telemetry.histogram("cachenet.batch.size"),
        };
        if self.shared.probes.set(probes).is_err() {
            return;
        }
        self.reactor.instrument(telemetry);
        let ring = Arc::downgrade(self);
        telemetry.register_collector(move |sample| {
            let Some(ring) = ring.upgrade() else { return };
            let stats = ring.stats();
            sample.counter("cachenet.remote_hits", stats.remote_hits);
            sample.counter("cachenet.remote_misses", stats.remote_misses);
            sample.counter("cachenet.local_hits", stats.local_hits);
            sample.counter("cachenet.write_throughs", stats.write_throughs);
            sample.counter("cachenet.failures", stats.failures);
            sample.counter("cachenet.circuit_opens", stats.circuit_opens);
            sample.counter("cachenet.epoch_changes", stats.epoch_changes);
            sample.counter("cachenet.all_nodes_down", stats.all_nodes_down);
            let now = Instant::now();
            let open = ring.nodes.iter().filter(|n| !n.routable(now)).count();
            sample.gauge("cachenet.breaker_open", open as u64);
            sample.gauge("cachenet.local_resident", ring.local.len() as u64);
            let inflight: usize = ring
                .nodes
                .iter()
                .map(|node| {
                    node.conn
                        .lock()
                        .as_ref()
                        .map_or(0, |link| link.inflight.lock().len())
                })
                .sum();
            sample.gauge("cachenet.pipeline.inflight", inflight as u64);
        });
    }

    /// Number of nodes in the ring (routable or not).
    pub fn nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Ring counters so far.
    pub fn stats(&self) -> CacheRingStats {
        CacheRingStats {
            remote_hits: self.shared.remote_hits.load(Ordering::Relaxed),
            remote_misses: self.shared.remote_misses.load(Ordering::Relaxed),
            local_hits: self.shared.local_hits.load(Ordering::Relaxed),
            write_throughs: self.shared.write_throughs.load(Ordering::Relaxed),
            failures: self.shared.failures.load(Ordering::Relaxed),
            circuit_opens: self.shared.circuit_opens.load(Ordering::Relaxed),
            epoch_changes: self.shared.epoch_changes.load(Ordering::Relaxed),
            all_nodes_down: self.shared.all_nodes_down.load(Ordering::Relaxed),
        }
    }

    /// The last epoch each node reported, in node order (0 = no reply
    /// yet). A bump against an earlier snapshot is a detected restart.
    pub fn node_epochs(&self) -> Vec<u64> {
        self.nodes
            .iter()
            .map(|node| node.last_epoch.load(Ordering::Relaxed))
            .collect()
    }

    /// The node index `id` routes to when every node is routable —
    /// exposed so tests (and operators) can predict placement.
    pub fn route_of(&self, id: &SessionId) -> Option<usize> {
        self.ranked(id).first().copied()
    }

    /// Node indexes ranked by rendezvous score for `id`, best first.
    fn ranked(&self, id: &SessionId) -> Vec<usize> {
        let key = id.bucket_key();
        let mut scored: Vec<(u64, usize)> = self
            .nodes
            .iter()
            .enumerate()
            .map(|(idx, node)| {
                // Mix the node seed with the key; Fibonacci-multiply and
                // keep the well-mixed high word as the score.
                let score = (node.seed ^ key).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                (score, idx)
            })
            .collect();
        scored.sort_unstable_by(|a, b| b.cmp(a));
        scored.into_iter().map(|(_, idx)| idx).collect()
    }

    /// The first routable node for `id`, honouring open circuits and the
    /// half-open probe cap: a recovering node admits one probe at a
    /// time; every other caller falls through to its next-ranked node.
    /// The claim is always resolved — success bookkeeping
    /// ([`RingShared::op_succeeded`], on the demux path) and failure
    /// bookkeeping ([`RingShared::op_failed`]) both clear it.
    fn routed_node(&self, id: &SessionId) -> Option<Arc<NodeState>> {
        let now = Instant::now();
        self.ranked(id)
            .into_iter()
            .map(|idx| self.nodes[idx].clone())
            .find(|node| node.claim_routable(now))
    }

    /// The node's live pipelined link, dialing (and registering the
    /// demultiplexer on the ring's reactor) if there is none. `None`
    /// means the dial failed — the caller owns that failure's breaker
    /// feed.
    fn link_of(&self, node: &Arc<NodeState>) -> Option<Arc<NodeLink>> {
        let mut conn = node.conn.lock();
        if let Some(existing) = conn.as_ref() {
            if !existing.dead.load(Ordering::Relaxed) {
                return Some(existing.clone());
            }
        }
        let duplex = match node.endpoint.dial(self.shared.config.source) {
            Ok(duplex) => Arc::new(duplex),
            Err(_) => {
                *conn = None;
                return None;
            }
        };
        let link = Arc::new(NodeLink {
            link: duplex.clone(),
            next_id: AtomicU32::new(0),
            inflight: Mutex::new(HashMap::new()),
            dead: AtomicBool::new(false),
        });
        *conn = Some(link.clone());
        drop(conn);
        let shared = self.shared.clone();
        let state = node.clone();
        let local = self.local.clone();
        let demux_link = link.clone();
        self.reactor
            .register(duplex, move |_link, event| match event {
                LinkEvent::Message(frame) => {
                    demux(&shared, &state, &local, &demux_link, &frame);
                    LinkVerdict::Keep
                }
                LinkEvent::Closed => {
                    kill_link(&shared, &state, &demux_link);
                    LinkVerdict::Done
                }
            });
        Some(link)
    }

    /// One pipelined round trip on `node`'s persistent link, bounded by
    /// `op_timeout`.
    ///
    /// The wire v2 request-id contract: the conn mutex is held only to
    /// *fetch* the link, never across the round trip. Every frame
    /// carries a fresh `u16` id, the node echoes it, and the
    /// demultiplexer resolves the reply by id — so any number of
    /// concurrent ops (and coalesced batches) share one link with no
    /// head-of-line serialisation. A timeout abandons only its own id
    /// (the late reply finds no waiter and is dropped), while
    /// dial failures, send failures and hang-ups fail every id in flight
    /// and feed the breaker once per pending frame.
    fn remote(&self, node: &Arc<NodeState>, request: &Request) -> Option<Response> {
        // A caller serving a traced request gets a client-side cachenet
        // span covering the whole round trip, and the frame carries the
        // span's context so the node's server-side span joins the trace.
        let mut span = trace::span(SpanKind::Cachenet, node.index as u32);
        let result = self.remote_framed(node, request, span.as_ref().map(SpanGuard::ctx));
        if let Some(span) = span.as_mut() {
            span.set_ok(result.is_some());
        }
        result
    }

    fn remote_framed(
        &self,
        node: &Arc<NodeState>,
        request: &Request,
        wire_trace: Option<TraceContext>,
    ) -> Option<Response> {
        let Some(link) = self.link_of(node) else {
            self.shared.op_failed(node);
            return None;
        };
        let waiter = Arc::new(Waiter::new());
        let id = link.alloc_id();
        link.inflight
            .lock()
            .insert(id, Pending::One(waiter.clone()));
        if link
            .link
            .send(&request.encode_traced(id, wire_trace))
            .is_err()
        {
            link.inflight.lock().remove(&id);
            kill_link(&self.shared, node, &link);
            self.shared.op_failed(node);
            return None;
        }
        match waiter.wait(self.shared.config.op_timeout) {
            Some(Outcome::Response(response)) => Some(response),
            // Link death already counted (once per frame) by kill_link.
            Some(Outcome::LinkDead) => None,
            None => {
                // Timed out: abandon this id and feed the breaker. The
                // link survives — the ops pipelined behind this one are
                // still in flight.
                link.inflight.lock().remove(&id);
                self.shared.op_failed(node);
                None
            }
        }
    }

    /// Enqueue one key on `node`'s coalescing queue, pump the sender,
    /// and wait for this key's slice of whatever frame carried it.
    fn remote_lookup(&self, node: &Arc<NodeState>, id: SessionId) -> KeyOutcome {
        let waiter = Arc::new(Waiter::new());
        node.enqueue(id, waiter.clone());
        self.pump(node);
        match waiter.wait(self.shared.config.op_timeout) {
            Some(outcome) => outcome,
            None => {
                self.shared.op_failed(node);
                KeyOutcome::Failed
            }
        }
    }

    /// The flat-combining sender: whichever caller finds no sender
    /// active drains the queue into `LookupBatch` frames — a lone key
    /// rides as a batch of one (single code path) — until the queue is
    /// empty. Sending never waits for replies, so the sender is not
    /// penalised relative to the callers it combines for.
    fn pump(&self, node: &Arc<NodeState>) {
        {
            let mut queue = node.queue.lock();
            if queue.sender_active || queue.items.is_empty() {
                // The active sender re-checks emptiness under this lock
                // before retiring, so our key cannot be stranded.
                return;
            }
            queue.sender_active = true;
        }
        let max_batch = self.shared.config.max_batch;
        loop {
            let mut batch: Vec<(SessionId, Arc<Waiter<KeyOutcome>>)> = {
                let mut queue = node.queue.lock();
                if queue.items.is_empty() {
                    queue.sender_active = false;
                    return;
                }
                let take = queue.items.len().min(max_batch);
                queue.items.drain(..take).collect()
            };
            let window = self.shared.config.batch_window;
            if batch.len() < max_batch && window > Duration::ZERO {
                // Bounded flush window: linger once so a concurrent
                // burst can fill the frame before it flies — and fly the
                // moment it has.
                let room = max_batch - batch.len();
                let deadline = Instant::now() + window;
                let mut queue = node.queue.lock();
                while queue.items.len() < room {
                    let left = deadline.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        break;
                    }
                    node.queued.wait_for(&mut queue, left);
                }
                let take = queue.items.len().min(room);
                let extra: Vec<_> = queue.items.drain(..take).collect();
                drop(queue);
                batch.extend(extra);
            }
            self.send_batch(node, batch);
        }
    }

    /// Frame one coalesced batch and send it; the demultiplexer fulfils
    /// the per-key waiters when the reply lands.
    fn send_batch(&self, node: &Arc<NodeState>, batch: Vec<(SessionId, Arc<Waiter<KeyOutcome>>)>) {
        let Some(link) = self.link_of(node) else {
            self.shared.op_failed(node);
            for (_, waiter) in batch {
                waiter.fulfill(KeyOutcome::Failed);
            }
            return;
        };
        if let Some(probes) = self.shared.probes.get() {
            probes.batch_size.record(batch.len() as u64);
        }
        let keys: Vec<SessionId> = batch.iter().map(|(key, _)| *key).collect();
        let id = link.alloc_id();
        link.inflight.lock().insert(id, Pending::Lookups(batch));
        // The flat-combined frame flies under the *sender's* trace when
        // it has one (the span covers framing + send; replies land on
        // the reactor thread). Keys combined in from other callers ride
        // along untraced — one frame, one context.
        let mut span = trace::span(SpanKind::Cachenet, node.index as u32);
        let wire = Request::LookupBatch(keys).encode_traced(id, span.as_ref().map(SpanGuard::ctx));
        if link.link.send(&wire).is_err() {
            if let Some(span) = span.as_mut() {
                span.set_ok(false);
            }
            let removed = link.inflight.lock().remove(&id);
            kill_link(&self.shared, node, &link);
            self.shared.op_failed(node);
            if let Some(Pending::Lookups(keys)) = removed {
                for (_, waiter) in keys {
                    waiter.fulfill(KeyOutcome::Failed);
                }
            }
        }
    }

    /// Per-key lookup accounting shared by [`SessionStore::lookup`] and
    /// [`CacheRing::lookup_batch`]: counters, local fallback, store
    /// hit/miss, and **one histogram sample per key** (the satellite
    /// contract keeping a batched p99 comparable with a single-key one).
    fn account_key(
        &self,
        id: &SessionId,
        outcome: KeyOutcome,
        started: Option<Instant>,
    ) -> Option<Vec<u8>> {
        let remote_answered = matches!(outcome, KeyOutcome::Hit(_));
        let found = match outcome {
            KeyOutcome::Hit(premaster) => {
                self.shared.remote_hits.fetch_add(1, Ordering::Relaxed);
                // The demultiplexer already warmed the local tier
                // (read-through prefetch covers this key too).
                Some(premaster)
            }
            other => {
                if matches!(other, KeyOutcome::Miss) {
                    self.shared.remote_misses.fetch_add(1, Ordering::Relaxed);
                }
                let local = self.local.lookup(id);
                if local.is_some() {
                    self.shared.local_hits.fetch_add(1, Ordering::Relaxed);
                }
                local
            }
        };
        if found.is_some() {
            self.shared.store_hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.shared.store_misses.fetch_add(1, Ordering::Relaxed);
        }
        if let (Some(probes), Some(started)) = (self.shared.probes.get(), started) {
            let nanos = started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
            probes.lookup.record(nanos);
            if remote_answered {
                probes.lookup_remote.record(nanos);
            } else {
                probes.lookup_local.record(nanos);
            }
            let hit = found.is_some();
            probes
                .telemetry
                .emit_with(|| TelemetryEvent::CachenetLookup {
                    remote: remote_answered,
                    hit,
                    nanos,
                });
        }
        found
    }

    /// Multi-key lookup: keys group by their routed node and fly as
    /// (coalesced) `LookupBatch` frames; results come back in input
    /// order. Every remote hit read-through-prefetches into the local
    /// tier; failed keys fall back to it. Histograms record one sample
    /// per **key**.
    pub fn lookup_batch(&self, ids: &[SessionId]) -> Vec<Option<Vec<u8>>> {
        let started = self.shared.probes.get().map(|_| Instant::now());
        // Enqueue every key first — concurrent keys bound for the same
        // node coalesce into shared frames — then pump each touched node
        // and wait the waiters in input order.
        let mut waiters: Vec<PendingKey> = Vec::with_capacity(ids.len());
        let mut touched: Vec<Arc<NodeState>> = Vec::new();
        for id in ids {
            match self.routed_node(id) {
                Some(node) => {
                    let waiter = Arc::new(Waiter::new());
                    node.enqueue(*id, waiter.clone());
                    if !touched.iter().any(|seen| Arc::ptr_eq(seen, &node)) {
                        touched.push(node.clone());
                    }
                    waiters.push(Some((node, waiter)));
                }
                None => {
                    self.shared.all_nodes_down.fetch_add(1, Ordering::Relaxed);
                    waiters.push(None);
                }
            }
        }
        for node in &touched {
            self.pump(node);
        }
        ids.iter()
            .zip(waiters)
            .map(|(id, entry)| {
                let outcome = match entry {
                    Some((node, waiter)) => match waiter.wait(self.shared.config.op_timeout) {
                        Some(outcome) => outcome,
                        None => {
                            self.shared.op_failed(&node);
                            KeyOutcome::Failed
                        }
                    },
                    None => KeyOutcome::Failed,
                };
                self.account_key(id, outcome, started)
            })
            .collect()
    }

    /// Multi-key write-through: the local tier takes every entry, then
    /// the entries group by routed node and fly as `InsertBatch` frames
    /// (chunked to `max_batch` keys). `write_throughs` counts acked
    /// keys, not frames.
    pub fn insert_batch(&self, entries: Vec<(SessionId, Vec<u8>)>) {
        for (id, premaster) in &entries {
            self.local.insert(*id, premaster.clone());
        }
        let mut groups: NodeGroups = Vec::new();
        for (id, premaster) in entries {
            match self.routed_node(&id) {
                Some(node) => match groups.iter_mut().find(|(seen, _)| Arc::ptr_eq(seen, &node)) {
                    Some((_, group)) => group.push((id, premaster)),
                    None => groups.push((node, vec![(id, premaster)])),
                },
                None => {
                    self.shared.all_nodes_down.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        for (node, group) in groups {
            for chunk in group.chunks(self.shared.config.max_batch) {
                if let Some(probes) = self.shared.probes.get() {
                    probes.batch_size.record(chunk.len() as u64);
                }
                if let Some(Response::Ok { .. }) =
                    self.remote(&node, &Request::InsertBatch(chunk.to_vec()))
                {
                    self.shared
                        .write_throughs
                        .fetch_add(chunk.len() as u64, Ordering::Relaxed);
                }
            }
        }
    }

    /// The local miss-through tier (a machine's own recently seen
    /// sessions; also the only tier left when every circuit is open).
    pub fn local(&self) -> &SharedSessionCache {
        &self.local
    }
}

impl SessionStore for CacheRing {
    /// Write-through: the local tier always takes the session; the routed
    /// node takes it best-effort (a failure feeds the breaker and is
    /// absorbed — the handshake must never block on cache plumbing).
    fn insert(&self, id: SessionId, premaster: Vec<u8>) {
        self.local.insert(id, premaster.clone());
        match self.routed_node(&id) {
            Some(node) => {
                if let Some(Response::Ok { .. }) =
                    self.remote(&node, &Request::Insert(id, premaster))
                {
                    self.shared.write_throughs.fetch_add(1, Ordering::Relaxed);
                }
            }
            None => {
                self.shared.all_nodes_down.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Remote-first with local miss-through: the key joins its routed
    /// node's coalescing queue (a lone key flies as a batch of one), the
    /// reply's slice for this key comes back through the demultiplexer;
    /// on a hit the local tier is already warm (prefetch), on a miss,
    /// failure, or an all-open ring the local tier answers.
    fn lookup(&self, id: &SessionId) -> Option<Vec<u8>> {
        let started = self.shared.probes.get().map(|_| Instant::now());
        let outcome = match self.routed_node(id) {
            Some(node) => self.remote_lookup(&node, *id),
            None => {
                self.shared.all_nodes_down.fetch_add(1, Ordering::Relaxed);
                KeyOutcome::Failed
            }
        };
        self.account_key(id, outcome, started)
    }

    /// Remove everywhere: local tier immediately, then `Invalidate`
    /// **broadcast to every node, circuits ignored**. Removal is the
    /// compromise-response path, so it must not inherit the lookup
    /// path's availability trade-offs: the session may be resident on a
    /// non-owner node (inserted while the owner's circuit was open), and
    /// an owner skipped because its breaker is open would come back
    /// after cooldown still holding — and serving — the revoked
    /// premaster. Each send is still bounded by `op_timeout`; a node
    /// that is truly down holds nothing it can serve until it restarts,
    /// and a restart epoch-invalidates whatever it held.
    fn remove(&self, id: &SessionId) {
        self.local.remove(id);
        for node in &self.nodes {
            let node = node.clone();
            let _ = self.remote(&node, &Request::Invalidate(*id));
        }
    }

    /// `(hits, misses)` of ring lookups as a whole (remote and local
    /// tiers combined): one lookup, one count — the same contract
    /// [`SharedSessionCache::hit_rate`] documents.
    fn stats(&self) -> (u64, u64) {
        (
            self.shared.store_hits.load(Ordering::Relaxed),
            self.shared.store_misses.load(Ordering::Relaxed),
        )
    }

    /// Sessions resident in the **local** tier (the distributed total is
    /// a per-node property; see [`crate::CacheNode::len`]).
    fn len(&self) -> usize {
        self.local.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{CacheNode, CacheNodeConfig};

    fn id(byte: u8) -> SessionId {
        SessionId::from_bytes(&[byte; 16]).unwrap()
    }

    fn quick_config() -> CacheRingConfig {
        CacheRingConfig {
            source: SourceAddr::new([10, 2, 0, 1], 40_000),
            op_timeout: Duration::from_millis(200),
            breaker_threshold: 1,
            breaker_cooldown: Duration::from_millis(50),
            local_capacity: 128,
            ..CacheRingConfig::default()
        }
    }

    fn three_nodes() -> (Vec<CacheNode>, CacheRing) {
        let nodes: Vec<CacheNode> = (0..3)
            .map(|n| CacheNode::spawn(CacheNodeConfig::named(&format!("cache-{n}"))))
            .collect();
        let ring = CacheRing::new(
            nodes.iter().map(CacheNode::endpoint).collect(),
            quick_config(),
        );
        (nodes, ring)
    }

    #[test]
    fn routing_is_deterministic_and_spread() {
        let (_nodes, ring) = three_nodes();
        let (_nodes2, ring2) = three_nodes();
        let mut used = std::collections::HashSet::new();
        for byte in 0..64u8 {
            let route = ring.route_of(&id(byte)).unwrap();
            assert_eq!(
                route,
                ring2.route_of(&id(byte)).unwrap(),
                "two machines must agree on every key's owner"
            );
            used.insert(route);
        }
        assert_eq!(used.len(), 3, "64 keys must touch all 3 nodes");
    }

    #[test]
    fn insert_on_one_ring_is_visible_to_another_machine() {
        let (nodes, ring_a) = three_nodes();
        // Machine B: its own ring over the same endpoints.
        let ring_b = CacheRing::new(
            nodes.iter().map(CacheNode::endpoint).collect(),
            CacheRingConfig {
                source: SourceAddr::new([10, 2, 0, 2], 40_001),
                ..quick_config()
            },
        );
        ring_a.insert(id(1), b"premaster".to_vec());
        assert_eq!(
            ring_b.lookup(&id(1)).expect("cross-machine hit"),
            b"premaster"
        );
        assert_eq!(ring_b.stats_of_store(), (1, 0));
        assert_eq!(ring_b.stats().remote_hits, 1);
        assert_eq!(
            ring_b.local.len(),
            1,
            "a remote hit warms machine B's local tier"
        );
        // Totals live on the nodes, one of which holds the key.
        let resident: usize = nodes.iter().map(CacheNode::len).sum();
        assert_eq!(resident, 1);
    }

    /// The flush window is a bound, not a delay: a lingering sender flies
    /// the moment a concurrent key fills its frame.
    #[test]
    fn a_lingering_sender_flies_as_soon_as_its_frame_fills() {
        let node = CacheNode::spawn(CacheNodeConfig::named("cache-linger"));
        let window = Duration::from_secs(30);
        let ring = Arc::new(CacheRing::new(
            vec![node.endpoint()],
            CacheRingConfig {
                max_batch: 2,
                batch_window: window,
                op_timeout: 2 * window,
                ..quick_config()
            },
        ));
        let telemetry = Telemetry::new();
        ring.instrument(&telemetry);
        let started = Instant::now();
        std::thread::scope(|scope| {
            let first = scope.spawn(|| ring.lookup(&id(1)));
            // The first caller has become the sender and drained its own
            // key: it is lingering for one more (or about to).
            while {
                let queue = ring.nodes[0].queue.lock();
                !(queue.sender_active && queue.items.is_empty())
            } {
                std::thread::yield_now();
            }
            assert!(ring.lookup(&id(2)).is_none());
            assert!(first.join().expect("first lookup").is_none());
        });
        assert!(
            started.elapsed() < window,
            "the sender slept out its window"
        );
        let frames = telemetry.snapshot();
        let frames = frames.histogram("cachenet.batch.size").expect("frames");
        assert_eq!(
            (frames.count, frames.max_nanos),
            (1, 2),
            "one frame, two keys"
        );
    }

    #[test]
    fn dead_node_falls_back_to_local_tier_without_hanging() {
        let (nodes, ring) = three_nodes();
        ring.insert(id(9), b"pm".to_vec());
        let owner = ring.route_of(&id(9)).unwrap();
        nodes[owner].kill();
        let started = Instant::now();
        assert_eq!(
            ring.lookup(&id(9)).expect("local miss-through"),
            b"pm",
            "the local tier must still resume the session"
        );
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "bounded latency even with the owner dead"
        );
        assert_eq!(ring.stats().local_hits, 1);
        assert!(ring.stats().failures >= 1);
        assert!(ring.stats().circuit_opens >= 1);
    }

    #[test]
    fn open_circuit_reroutes_keys_to_the_next_node() {
        let (nodes, ring) = three_nodes();
        let owner = ring.route_of(&id(3)).unwrap();
        nodes[owner].kill();
        // First insert eats the failure and opens the circuit...
        ring.insert(id(3), b"pm".to_vec());
        assert!(ring.stats().circuit_opens >= 1);
        // ...the next insert routes straight to the runner-up node.
        ring.insert(id(3), b"pm".to_vec());
        assert_eq!(ring.stats().write_throughs, 1);
        let resident: usize = nodes
            .iter()
            .enumerate()
            .filter(|(idx, _)| *idx != owner)
            .map(|(_, node)| node.len())
            .sum();
        assert_eq!(resident, 1, "the key lives on a surviving node now");
        // And a lookup through the rerouted path hits remotely.
        assert!(ring.lookup(&id(3)).is_some());
        assert!(ring.stats().remote_hits >= 1);
    }

    #[test]
    fn half_open_probe_recovers_a_restarted_node() {
        let (nodes, ring) = three_nodes();
        let owner = ring.route_of(&id(5)).unwrap();
        // Seed an epoch observation so the restart is detectable.
        ring.insert(id(5), b"pm".to_vec());
        assert_eq!(ring.stats().write_throughs, 1);
        nodes[owner].kill();
        ring.insert(id(5), b"pm".to_vec()); // failure → circuit opens
        nodes[owner].restart();
        // After the cooldown the half-open probe finds it again.
        std::thread::sleep(Duration::from_millis(80));
        ring.insert(id(5), b"pm2".to_vec());
        assert_eq!(ring.stats().write_throughs, 2);
        let deadline = Instant::now() + Duration::from_secs(2);
        while ring.stats().epoch_changes == 0 && Instant::now() < deadline {
            ring.lookup(&id(5));
        }
        assert!(
            ring.stats().epoch_changes >= 1,
            "the bumped epoch must be observed: {:?}",
            ring.stats()
        );
    }

    #[test]
    fn half_open_probes_are_capped_at_one_per_node() {
        // A single-node ring whose node died: once the breaker cooldown
        // expires, 8 threads race to route to the recovering node at the
        // same instant. Exactly one may probe it — observable as exactly
        // one additional remote failure — while the rest fall through to
        // the local tier instead of thundering-herding the node.
        let node = CacheNode::spawn(CacheNodeConfig::named("cache-solo"));
        let ring = CacheRing::new(
            vec![node.endpoint()],
            CacheRingConfig {
                source: SourceAddr::new([10, 2, 0, 3], 40_002),
                breaker_cooldown: Duration::from_millis(500),
                ..quick_config()
            },
        );
        ring.insert(id(21), b"pm".to_vec());
        node.kill();
        assert_eq!(ring.lookup(&id(21)).expect("local miss-through"), b"pm");
        assert_eq!(ring.stats().failures, 1, "the dead node opened its circuit");
        // Let the cooldown expire, then race the half-open node.
        std::thread::sleep(Duration::from_millis(650));
        let barrier = std::sync::Barrier::new(8);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    barrier.wait();
                    assert_eq!(ring.lookup(&id(21)).expect("local tier"), b"pm");
                });
            }
        });
        assert_eq!(
            ring.stats().failures,
            2,
            "exactly one caller probes the recovering node: {:?}",
            ring.stats()
        );
    }

    #[test]
    fn all_nodes_down_serves_purely_locally_and_deterministically() {
        let (nodes, ring) = three_nodes();
        ring.insert(id(7), b"pm".to_vec());
        for node in &nodes {
            node.kill();
        }
        // Open every circuit (threshold 1: one failure each).
        for byte in 0..12u8 {
            ring.lookup(&id(byte));
        }
        let started = Instant::now();
        assert_eq!(ring.lookup(&id(7)).expect("local"), b"pm");
        assert!(ring.lookup(&id(200)).is_none(), "unknown id: clean miss");
        assert!(
            started.elapsed() < Duration::from_secs(1),
            "an all-dead ring must not hang"
        );
        assert!(ring.stats().all_nodes_down > 0);
    }

    #[test]
    fn remove_invalidates_the_remote_copy_too() {
        let (nodes, ring) = three_nodes();
        ring.insert(id(11), b"pm".to_vec());
        SessionStore::remove(&ring, &id(11));
        assert!(ring.lookup(&id(11)).is_none());
        let resident: usize = nodes.iter().map(CacheNode::len).sum();
        assert_eq!(resident, 0, "the invalidate reached the owner node");
    }

    #[test]
    fn remove_broadcast_reaches_copies_on_non_owner_nodes() {
        // A session inserted while its owner's circuit was open lives on
        // the runner-up node. Removal is the compromise-response path:
        // it must invalidate that copy too — routing the Invalidate only
        // to the (skipped) owner would leave the revoked premaster
        // resident and servable.
        let (nodes, ring) = three_nodes();
        let owner = ring.route_of(&id(13)).unwrap();
        nodes[owner].kill();
        ring.insert(id(13), b"pm".to_vec()); // failure → owner circuit opens
        ring.insert(id(13), b"pm".to_vec()); // lands on the runner-up
        let resident: usize = nodes.iter().map(CacheNode::len).sum();
        assert_eq!(resident, 1, "the copy lives on a non-owner node");
        SessionStore::remove(&ring, &id(13));
        let resident: usize = nodes.iter().map(CacheNode::len).sum();
        assert_eq!(resident, 0, "the broadcast reached the non-owner copy");
        assert!(ring.lookup(&id(13)).is_none(), "local tier cleared too");
    }

    #[test]
    fn concurrent_lookups_share_one_pipelined_link() {
        // 8 threads look up through one ring to one node at once. The
        // v2 pipeline multiplexes them over the single persistent link —
        // observable as exactly one accepted link on the node — and the
        // coalescer answers every key correctly (per-key node stats).
        let node = CacheNode::spawn(CacheNodeConfig::named("cache-pipe"));
        let ring = CacheRing::new(
            vec![node.endpoint()],
            CacheRingConfig {
                source: SourceAddr::new([10, 2, 0, 4], 40_003),
                ..quick_config()
            },
        );
        for byte in 0..8u8 {
            ring.insert(id(byte), vec![byte]);
        }
        assert_eq!(node.stats().links_accepted, 1);
        let barrier = std::sync::Barrier::new(8);
        std::thread::scope(|scope| {
            for byte in 0..8u8 {
                let ring = &ring;
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    assert_eq!(ring.lookup(&id(byte)).expect("hit"), vec![byte]);
                });
            }
        });
        let stats = node.stats();
        assert_eq!(
            stats.links_accepted, 1,
            "all 8 concurrent lookups rode the one pipelined link"
        );
        assert_eq!(stats.lookups, 8, "batch frames count per key");
        assert!(
            stats.batches >= 1 && stats.batches <= 8,
            "lookups flew as LookupBatch frames: {stats:?}"
        );
        assert_eq!(ring.stats().remote_hits, 8);
    }

    #[test]
    fn lookup_batch_returns_input_order_and_prefetches_hits() {
        let node = CacheNode::spawn(CacheNodeConfig::named("cache-batch"));
        let ring_a = CacheRing::new(
            vec![node.endpoint()],
            CacheRingConfig {
                source: SourceAddr::new([10, 2, 0, 5], 40_004),
                ..quick_config()
            },
        );
        ring_a.insert_batch(vec![(id(1), b"a".to_vec()), (id(3), b"c".to_vec())]);
        assert_eq!(ring_a.stats().write_throughs, 2, "acked keys, not frames");

        // A second machine: its local tier is cold.
        let ring_b = CacheRing::new(
            vec![node.endpoint()],
            CacheRingConfig {
                source: SourceAddr::new([10, 2, 0, 6], 40_005),
                ..quick_config()
            },
        );
        let results = ring_b.lookup_batch(&[id(1), id(2), id(3)]);
        assert_eq!(
            results,
            vec![Some(b"a".to_vec()), None, Some(b"c".to_vec())],
            "input order, per-key answers"
        );
        assert_eq!(
            ring_b.local.len(),
            2,
            "both hits read-through-prefetched into the local tier"
        );
        // The prefetched keys now resume locally with the node dead.
        node.kill();
        std::thread::sleep(Duration::from_millis(10));
        assert_eq!(ring_b.lookup(&id(3)).expect("prefetched"), b"c");
    }

    #[test]
    fn lookup_histograms_record_one_sample_per_key() {
        // The satellite regression: batch ops must record one
        // `cachenet.lookup*` sample per key, not per frame, so p99 stays
        // comparable with the single-op trajectory.
        let node = CacheNode::spawn(CacheNodeConfig::named("cache-hist"));
        let ring = Arc::new(CacheRing::new(
            vec![node.endpoint()],
            CacheRingConfig {
                source: SourceAddr::new([10, 2, 0, 7], 40_006),
                ..quick_config()
            },
        ));
        let telemetry = Telemetry::new();
        ring.instrument(&telemetry);
        ring.insert_batch(vec![(id(1), b"a".to_vec()), (id(2), b"b".to_vec())]);
        let results = ring.lookup_batch(&[id(1), id(2), id(9)]);
        assert_eq!(results.iter().filter(|r| r.is_some()).count(), 2);
        let snapshot = telemetry.snapshot();
        let lookup = snapshot.histogram("cachenet.lookup").expect("histogram");
        assert_eq!(lookup.count, 3, "one sample per key in the batch");
        let remote = snapshot
            .histogram("cachenet.lookup.remote")
            .expect("histogram");
        assert_eq!(remote.count, 2, "the two remote hits");
        let batch = snapshot
            .histogram("cachenet.batch.size")
            .expect("histogram");
        assert!(batch.count >= 2, "insert + lookup frames recorded");
    }

    impl CacheRing {
        /// Test helper naming the trait's `stats` unambiguously.
        fn stats_of_store(&self) -> (u64, u64) {
            SessionStore::stats(self)
        }
    }
}
