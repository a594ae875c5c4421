//! The cache node: one partition of the distributed session cache,
//! served over a [`wedge_net::Listener`] accept loop.
//!
//! A node owns a [`SharedSessionCache`] **partition** (the same bounded
//! LRU service a single machine's shards share) and speaks the `proto`
//! frames over every accepted link. Ring clients connect once and keep
//! the link; a node serves any number of concurrent links on **one
//! reactor sthread** ([`wedge_net::Reactor`]) — accepted links register
//! a drain handler and idle links cost a map entry, not a stack. Replies
//! echo the request id (so a pipelining client can demultiplex N
//! in-flight requests per link).
//!
//! ## Epochs
//!
//! Every node carries an **epoch**, stamped on every response. Entries
//! are stored with the epoch they were inserted under; a [`CacheNode::restart`]
//! bumps the epoch, so entries surviving from before the restart are
//! **stale**: the next lookup that touches one invalidates it and
//! answers `Miss` instead of serving it. This models the operational
//! hazard of a cache node coming back with outdated state (a partition
//! heals, a machine reboots with a warm disk cache) — the protocol
//! guarantees a restarted node never serves a pre-restart secret, and
//! clients observe the epoch change on the very first reply.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Mutex, RwLock};

use wedge_net::{
    Duplex, LinkEvent, LinkVerdict, Listener, NetError, Reactor, RecvTimeout, SourceAddr,
};
use wedge_tls::SharedSessionCache;

use crate::proto::{peek_request_id, ProtoError, Request, Response, MAX_PAYLOAD};

/// How a cache node is sized and named.
#[derive(Debug, Clone)]
pub struct CacheNodeConfig {
    /// The node's name (listener name; shows up in link traces and is the
    /// ring's routing seed, so both "machines" must use the same names).
    pub name: String,
    /// Accept-queue depth of the node's listener.
    pub backlog: usize,
    /// Bound on sessions resident in this node's partition.
    pub capacity: usize,
}

impl CacheNodeConfig {
    /// A node named `name` with default sizing.
    pub fn named(name: &str) -> CacheNodeConfig {
        CacheNodeConfig {
            name: name.to_string(),
            backlog: 64,
            capacity: wedge_tls::DEFAULT_SESSION_CACHE_CAPACITY,
        }
    }
}

/// Counters a node accumulates (all monotonic).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CacheNodeStats {
    /// Lookup requests served — batch ops count **one per key**, so this
    /// stays comparable with the single-op trajectory.
    pub lookups: u64,
    /// Lookups answered `Hit`.
    pub hits: u64,
    /// Lookups answered `Miss` (unknown id).
    pub misses: u64,
    /// Lookups that found a **stale** (pre-restart) entry: invalidated
    /// and answered `Miss`, never served.
    pub stale_invalidated: u64,
    /// Insert requests applied (batch ops count one per key).
    pub inserts: u64,
    /// Invalidate requests applied.
    pub invalidations: u64,
    /// Ping requests answered.
    pub pings: u64,
    /// Batch frames served (`LookupBatch` + `InsertBatch`), whatever
    /// their key count.
    pub batches: u64,
    /// Frames that failed to decode or were refused (answered `Err`).
    pub bad_frames: u64,
    /// Links accepted over the node's lifetime.
    pub links_accepted: u64,
}

impl std::ops::AddAssign<&CacheNodeStats> for CacheNodeStats {
    /// Fold node snapshots into a ring-wide total: every field is a
    /// monotonic counter and sums. Destructured exhaustively so a new
    /// field is a compile error here, not a silently dropped stat — the
    /// same convention as `SchedStats`.
    fn add_assign(&mut self, other: &CacheNodeStats) {
        let CacheNodeStats {
            lookups,
            hits,
            misses,
            stale_invalidated,
            inserts,
            invalidations,
            pings,
            batches,
            bad_frames,
            links_accepted,
        } = other;
        self.lookups += lookups;
        self.hits += hits;
        self.misses += misses;
        self.stale_invalidated += stale_invalidated;
        self.inserts += inserts;
        self.invalidations += invalidations;
        self.pings += pings;
        self.batches += batches;
        self.bad_frames += bad_frames;
        self.links_accepted += links_accepted;
    }
}

#[derive(Debug, Default)]
struct NodeCounters {
    lookups: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    stale_invalidated: AtomicU64,
    inserts: AtomicU64,
    invalidations: AtomicU64,
    pings: AtomicU64,
    batches: AtomicU64,
    bad_frames: AtomicU64,
    links_accepted: AtomicU64,
}

/// The shared state behind a node and its endpoint handles.
struct NodeShared {
    name: String,
    /// The current listener. Swapped on restart; endpoint handles dial
    /// through this slot, so a node's "address" survives its restarts.
    listener: RwLock<Arc<Listener>>,
    /// The node's partition. Values are `epoch (8 bytes LE) ‖ premaster`.
    partition: SharedSessionCache,
    backlog: usize,
    epoch: AtomicU64,
    up: AtomicBool,
    /// The reactor driving every accepted link. Swapped on restart;
    /// shutting it down hangs up all live links (the kill path).
    reactor: Mutex<Option<Arc<Reactor>>>,
    counters: NodeCounters,
    /// Set once by [`CacheNode::instrument`]; restarts emit
    /// [`wedge_telemetry::TelemetryEvent::EpochBump`] through it.
    telemetry: std::sync::OnceLock<wedge_telemetry::Telemetry>,
}

/// A dialable handle to a node's "address": cloneable, cheap, and stable
/// across node restarts (the listener behind it is swapped in place).
#[derive(Clone)]
pub struct CacheEndpoint {
    shared: Arc<NodeShared>,
}

impl std::fmt::Debug for CacheEndpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CacheEndpoint")
            .field("node", &self.shared.name)
            .finish()
    }
}

impl CacheEndpoint {
    /// The node's name (the ring's routing seed).
    pub fn name(&self) -> &str {
        &self.shared.name
    }

    /// Dial the node from `source`. Fails with [`NetError::Disconnected`]
    /// while the node is down.
    pub fn dial(&self, source: SourceAddr) -> Result<Duplex, NetError> {
        let listener = self.shared.listener.read().clone();
        listener.connect(source)
    }
}

/// One partition of the distributed session cache, behind its own
/// listener accept loop. Dropping the node kills it and joins every
/// thread it spawned.
pub struct CacheNode {
    shared: Arc<NodeShared>,
    /// The accept-loop thread (one per bind; replaced on restart). Link
    /// serving happens on the node's reactor, not here.
    threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl std::fmt::Debug for CacheNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CacheNode")
            .field("name", &self.shared.name)
            .field("epoch", &self.epoch())
            .field("up", &self.is_up())
            .field("sessions", &self.shared.partition.len())
            .finish()
    }
}

impl CacheNode {
    /// Bind and start a node: its listener accepts immediately.
    pub fn spawn(config: CacheNodeConfig) -> CacheNode {
        let shared = Arc::new(NodeShared {
            listener: RwLock::new(Listener::bind(&config.name, config.backlog.max(1))),
            name: config.name,
            partition: SharedSessionCache::with_capacity(config.capacity.max(1)),
            backlog: config.backlog.max(1),
            epoch: AtomicU64::new(1),
            up: AtomicBool::new(true),
            reactor: Mutex::new(None),
            counters: NodeCounters::default(),
            telemetry: std::sync::OnceLock::new(),
        });
        let node = CacheNode {
            shared,
            threads: Mutex::new(Vec::new()),
        };
        node.start_accept_loop();
        node
    }

    /// The dialable handle ring clients route to. Stable across
    /// [`CacheNode::restart`].
    pub fn endpoint(&self) -> CacheEndpoint {
        CacheEndpoint {
            shared: self.shared.clone(),
        }
    }

    /// The node's current epoch (starts at 1, +1 per restart).
    pub fn epoch(&self) -> u64 {
        self.shared.epoch.load(Ordering::SeqCst)
    }

    /// Is the node accepting links?
    pub fn is_up(&self) -> bool {
        self.shared.up.load(Ordering::SeqCst)
    }

    /// Sessions resident in the partition (stale ones included until a
    /// lookup invalidates them).
    pub fn len(&self) -> usize {
        self.shared.partition.len()
    }

    /// Is the partition empty?
    pub fn is_empty(&self) -> bool {
        self.shared.partition.is_empty()
    }

    /// Links currently registered on the node's reactor (live clients).
    pub fn live_links(&self) -> usize {
        self.shared
            .reactor
            .lock()
            .as_ref()
            .map_or(0, |reactor| reactor.links())
    }

    /// Register this node on `telemetry` (idempotent): a pull collector
    /// summing its counters into the `cachenet.node.*` namespace (several
    /// instrumented nodes contribute to one ring-wide total), its
    /// partition residency and its epoch (max across nodes). The node's
    /// reactor (current and post-restart replacements) is instrumented
    /// too, contributing to the `reactor.*` rows. After this, every
    /// [`CacheNode::restart`] emits an
    /// [`wedge_telemetry::TelemetryEvent::EpochBump`] audit event.
    pub fn instrument(&self, telemetry: &wedge_telemetry::Telemetry) {
        if self.shared.telemetry.set(telemetry.clone()).is_err() {
            return;
        }
        if let Some(reactor) = self.shared.reactor.lock().as_ref() {
            reactor.instrument(telemetry);
        }
        let shared = Arc::downgrade(&self.shared);
        telemetry.register_collector(move |sample| {
            let Some(shared) = shared.upgrade() else {
                return;
            };
            let c = &shared.counters;
            sample.counter("cachenet.node.lookups", c.lookups.load(Ordering::Relaxed));
            sample.counter("cachenet.node.hits", c.hits.load(Ordering::Relaxed));
            sample.counter("cachenet.node.misses", c.misses.load(Ordering::Relaxed));
            sample.counter(
                "cachenet.node.stale_invalidated",
                c.stale_invalidated.load(Ordering::Relaxed),
            );
            sample.counter("cachenet.node.inserts", c.inserts.load(Ordering::Relaxed));
            sample.counter(
                "cachenet.node.invalidations",
                c.invalidations.load(Ordering::Relaxed),
            );
            sample.counter("cachenet.node.batches", c.batches.load(Ordering::Relaxed));
            sample.counter(
                "cachenet.node.bad_frames",
                c.bad_frames.load(Ordering::Relaxed),
            );
            sample.counter(
                "cachenet.node.links_accepted",
                c.links_accepted.load(Ordering::Relaxed),
            );
            sample.gauge("cachenet.node.resident", shared.partition.len() as u64);
            sample.gauge_max("cachenet.node.epoch", shared.epoch.load(Ordering::SeqCst));
        });
    }

    /// Counters so far.
    pub fn stats(&self) -> CacheNodeStats {
        let c = &self.shared.counters;
        CacheNodeStats {
            lookups: c.lookups.load(Ordering::Relaxed),
            hits: c.hits.load(Ordering::Relaxed),
            misses: c.misses.load(Ordering::Relaxed),
            stale_invalidated: c.stale_invalidated.load(Ordering::Relaxed),
            inserts: c.inserts.load(Ordering::Relaxed),
            invalidations: c.invalidations.load(Ordering::Relaxed),
            pings: c.pings.load(Ordering::Relaxed),
            batches: c.batches.load(Ordering::Relaxed),
            bad_frames: c.bad_frames.load(Ordering::Relaxed),
            links_accepted: c.links_accepted.load(Ordering::Relaxed),
        }
    }

    /// Kill the node (fault injection / planned shutdown): the listener
    /// closes, the accept thread exits and is joined, the reactor shuts
    /// down and hangs up every live link. The partition's contents are
    /// retained — that is the point of the epoch mechanism; see
    /// [`CacheNode::restart`].
    pub fn kill(&self) {
        self.shared.up.store(false, Ordering::SeqCst);
        self.shared.listener.read().close();
        let threads: Vec<_> = self.threads.lock().drain(..).collect();
        for handle in threads {
            let _ = handle.join();
        }
        if let Some(reactor) = self.shared.reactor.lock().take() {
            reactor.shutdown();
        }
    }

    /// Bring a killed node back with a **bumped epoch**: a fresh listener
    /// is swapped into the endpoint slot (so existing [`CacheEndpoint`]s
    /// reconnect without new wiring), and every entry surviving from the
    /// previous epoch is now stale — served as `Miss` and invalidated on
    /// first touch, never handed out.
    pub fn restart(&self) {
        if self.is_up() {
            return;
        }
        let epoch = self.shared.epoch.fetch_add(1, Ordering::SeqCst) + 1;
        *self.shared.listener.write() = Listener::bind(&self.shared.name, self.shared.backlog);
        self.shared.up.store(true, Ordering::SeqCst);
        if let Some(telemetry) = self.shared.telemetry.get() {
            telemetry.emit_with(|| wedge_telemetry::TelemetryEvent::EpochBump {
                node: self.shared.name.clone(),
                epoch,
            });
        }
        self.start_accept_loop();
    }

    fn start_accept_loop(&self) {
        let shared = self.shared.clone();
        let listener = shared.listener.read().clone();
        let reactor = Arc::new(Reactor::spawn(&format!("cachenode-{}", shared.name)));
        if let Some(telemetry) = shared.telemetry.get() {
            reactor.instrument(telemetry);
        }
        *shared.reactor.lock() = Some(reactor.clone());
        let accept = std::thread::Builder::new()
            .name(format!("cachenode-{}", shared.name))
            .spawn(move || loop {
                match listener.accept(RecvTimeout::After(Duration::from_millis(20))) {
                    Ok(link) => {
                        shared
                            .counters
                            .links_accepted
                            .fetch_add(1, Ordering::Relaxed);
                        // The reactor owns the link from here: its drain
                        // handler decodes, applies and replies for every
                        // arriving frame, and dead links deregister on
                        // the hang-up event — no per-link thread, no
                        // per-link registry to reap.
                        let handler_shared = shared.clone();
                        reactor.register(Arc::new(link), move |link, event| match event {
                            LinkEvent::Message(frame) => serve_frame(&handler_shared, link, &frame),
                            LinkEvent::Closed => LinkVerdict::Done,
                        });
                    }
                    Err(NetError::Timeout) => {
                        if !shared.up.load(Ordering::SeqCst) {
                            break;
                        }
                    }
                    Err(_) => break,
                }
            })
            .expect("spawn accept loop");
        self.threads.lock().push(accept);
    }
}

impl Drop for CacheNode {
    fn drop(&mut self) {
        self.kill();
    }
}

/// Serve one inbound frame on the reactor thread: decode, apply, reply
/// echoing the request id (so pipelining clients can demultiplex).
fn serve_frame(shared: &NodeShared, link: &Duplex, frame: &[u8]) -> LinkVerdict {
    let epoch = shared.epoch.load(Ordering::SeqCst);
    let (request_id, response) = match Request::decode(frame) {
        Ok(framed) => {
            // A frame carrying the trace extension joins the caller's
            // trace: the server-side span parents on the remote span id,
            // so the client's trace tree crosses the machine boundary.
            let span = framed.trace.and_then(|wire_ctx| {
                let tracer = shared.telemetry.get()?.tracer()?;
                let ctx = tracer.join_remote(wire_ctx.trace_id, wire_ctx.span_id);
                Some((tracer, ctx, framed.request_id))
            });
            let started_ns = span.as_ref().map(|(tracer, ..)| tracer.now_ns());
            let response = apply(shared, epoch, framed.request);
            if let (Some((tracer, ctx, rid)), Some(started_ns)) = (span, started_ns) {
                let ok = !matches!(response, Response::Err { .. });
                let detail = u32::from(rid);
                tracer.record(
                    ctx,
                    wedge_telemetry::SpanKind::CachenetServe,
                    started_ns,
                    tracer.now_ns(),
                    ok,
                    detail,
                );
            }
            (framed.request_id, response)
        }
        Err(err) => {
            shared.counters.bad_frames.fetch_add(1, Ordering::Relaxed);
            // Undecodable frames still get a best-effort id echo: an
            // intact header names the request it refuses, anything too
            // mangled to attribute is answered with request id 0.
            (
                peek_request_id(frame).unwrap_or(0),
                Response::Err {
                    epoch,
                    message: refusal(&err),
                },
            )
        }
    };
    if link.send(&response.encode(request_id)).is_err() {
        return LinkVerdict::Done;
    }
    LinkVerdict::Keep
}

fn refusal(err: &ProtoError) -> String {
    format!("refused: {err}")
}

/// Apply one request against the partition, epoch rules included.
fn apply(shared: &NodeShared, epoch: u64, request: Request) -> Response {
    let c = &shared.counters;
    match request {
        Request::Lookup(id) => match lookup_one(shared, epoch, &id) {
            Some(premaster) => Response::Hit { epoch, premaster },
            None => Response::Miss { epoch },
        },
        Request::LookupBatch(ids) => {
            c.batches.fetch_add(1, Ordering::Relaxed);
            let results = ids.iter().map(|id| lookup_one(shared, epoch, id)).collect();
            Response::Batch { epoch, results }
        }
        Request::Insert(id, premaster) => match insert_one(shared, epoch, id, &premaster) {
            Ok(()) => Response::Ok { epoch },
            Err(response) => response,
        },
        Request::InsertBatch(entries) => {
            // Refuse the whole batch if any key oversizes: partial
            // application would leave the client guessing which keys
            // landed.
            if entries
                .iter()
                .any(|(_, premaster)| premaster.len() > MAX_PAYLOAD - 8)
            {
                c.bad_frames.fetch_add(1, Ordering::Relaxed);
                return Response::Err {
                    epoch,
                    message: "refused: oversize premaster".to_string(),
                };
            }
            c.batches.fetch_add(1, Ordering::Relaxed);
            for (id, premaster) in entries {
                c.inserts.fetch_add(1, Ordering::Relaxed);
                shared.partition.insert(id, join_epoch(epoch, &premaster));
            }
            Response::Ok { epoch }
        }
        Request::Invalidate(id) => {
            c.invalidations.fetch_add(1, Ordering::Relaxed);
            shared.partition.remove(&id);
            Response::Ok { epoch }
        }
        Request::Ping => {
            c.pings.fetch_add(1, Ordering::Relaxed);
            Response::Ok { epoch }
        }
    }
}

/// One key's lookup, shared by the single op and the batch op so stats
/// count **per key** and stale invalidation applies uniformly.
fn lookup_one(shared: &NodeShared, epoch: u64, id: &wedge_tls::SessionId) -> Option<Vec<u8>> {
    let c = &shared.counters;
    c.lookups.fetch_add(1, Ordering::Relaxed);
    match shared.partition.lookup(id) {
        Some(value) => match split_epoch(&value) {
            Some((entry_epoch, premaster)) if entry_epoch == epoch => {
                c.hits.fetch_add(1, Ordering::Relaxed);
                Some(premaster.to_vec())
            }
            _ => {
                // Stale (pre-restart) or unparseable: invalidate, never
                // serve.
                shared.partition.remove(id);
                c.stale_invalidated.fetch_add(1, Ordering::Relaxed);
                None
            }
        },
        None => {
            c.misses.fetch_add(1, Ordering::Relaxed);
            None
        }
    }
}

/// One key's insert, shared by the single op (batch refusal semantics
/// differ, so the batch arm checks sizes itself).
fn insert_one(
    shared: &NodeShared,
    epoch: u64,
    id: wedge_tls::SessionId,
    premaster: &[u8],
) -> Result<(), Response> {
    let c = &shared.counters;
    if premaster.len() > MAX_PAYLOAD - 8 {
        c.bad_frames.fetch_add(1, Ordering::Relaxed);
        return Err(Response::Err {
            epoch,
            message: "refused: oversize premaster".to_string(),
        });
    }
    c.inserts.fetch_add(1, Ordering::Relaxed);
    shared.partition.insert(id, join_epoch(epoch, premaster));
    Ok(())
}

/// Tag a premaster with the epoch it was inserted under.
fn join_epoch(epoch: u64, premaster: &[u8]) -> Vec<u8> {
    let mut value = Vec::with_capacity(8 + premaster.len());
    value.extend_from_slice(&epoch.to_le_bytes());
    value.extend_from_slice(premaster);
    value
}

/// Split a stored value back into `(epoch, premaster)`.
fn split_epoch(value: &[u8]) -> Option<(u64, &[u8])> {
    if value.len() < 8 {
        return None;
    }
    let epoch = u64::from_le_bytes(value[..8].try_into().ok()?);
    Some((epoch, &value[8..]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use wedge_tls::SessionId;

    fn id(byte: u8) -> SessionId {
        SessionId::from_bytes(&[byte; 16]).unwrap()
    }

    fn source(last: u8) -> SourceAddr {
        SourceAddr::new([10, 1, 0, last], 50_000)
    }

    /// Dial, speak one request, await one response; the echoed id is
    /// asserted on the way through.
    fn roundtrip(endpoint: &CacheEndpoint, request: &Request) -> Response {
        let link = endpoint.dial(source(1)).expect("dial");
        link.send(&request.encode(42)).expect("send");
        let frame = link
            .recv(RecvTimeout::After(Duration::from_secs(5)))
            .expect("response");
        let framed = Response::decode(&frame).expect("decode");
        assert_eq!(framed.request_id, 42, "the reply echoes the id");
        framed.response
    }

    #[test]
    fn insert_then_lookup_hits_with_the_node_epoch() {
        let node = CacheNode::spawn(CacheNodeConfig::named("n0"));
        let endpoint = node.endpoint();
        assert_eq!(
            roundtrip(&endpoint, &Request::Insert(id(1), b"pm".to_vec())),
            Response::Ok { epoch: 1 }
        );
        assert_eq!(
            roundtrip(&endpoint, &Request::Lookup(id(1))),
            Response::Hit {
                epoch: 1,
                premaster: b"pm".to_vec()
            }
        );
        assert_eq!(
            roundtrip(&endpoint, &Request::Lookup(id(2))),
            Response::Miss { epoch: 1 }
        );
        let stats = node.stats();
        assert_eq!(stats.inserts, 1);
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn one_link_serves_many_requests_in_order() {
        let node = CacheNode::spawn(CacheNodeConfig::named("pipelined"));
        let link = node.endpoint().dial(source(2)).expect("dial");
        for byte in 0..10u8 {
            link.send(&Request::Insert(id(byte), vec![byte]).encode(byte as u16))
                .unwrap();
            let frame = link
                .recv(RecvTimeout::After(Duration::from_secs(5)))
                .unwrap();
            let framed = Response::decode(&frame).unwrap();
            assert_eq!(framed.request_id, byte as u16);
            assert_eq!(framed.response, Response::Ok { epoch: 1 });
        }
        assert_eq!(node.len(), 10);
        assert_eq!(node.stats().links_accepted, 1);
    }

    #[test]
    fn pipelined_requests_come_back_in_order_with_their_ids() {
        let node = CacheNode::spawn(CacheNodeConfig::named("depth"));
        let link = node.endpoint().dial(source(9)).expect("dial");
        // Fire 32 requests without reading a single reply: the node must
        // serve them all (no head-of-line deadlock on a full window).
        for n in 0..32u16 {
            link.send(&Request::Insert(id(n as u8), vec![n as u8]).encode(n))
                .unwrap();
        }
        for n in 0..32u16 {
            let frame = link
                .recv(RecvTimeout::After(Duration::from_secs(5)))
                .unwrap();
            let framed = Response::decode(&frame).unwrap();
            assert_eq!(framed.request_id, n, "FIFO order, ids intact");
            assert_eq!(framed.response, Response::Ok { epoch: 1 });
        }
        assert_eq!(node.len(), 32);
    }

    #[test]
    fn lookup_batch_answers_per_key_and_counts_per_key() {
        let node = CacheNode::spawn(CacheNodeConfig::named("batch"));
        let endpoint = node.endpoint();
        roundtrip(&endpoint, &Request::Insert(id(1), b"a".to_vec()));
        roundtrip(&endpoint, &Request::Insert(id(3), b"c".to_vec()));
        let response = roundtrip(&endpoint, &Request::LookupBatch(vec![id(1), id(2), id(3)]));
        assert_eq!(
            response,
            Response::Batch {
                epoch: 1,
                results: vec![Some(b"a".to_vec()), None, Some(b"c".to_vec())],
            }
        );
        let stats = node.stats();
        assert_eq!(stats.batches, 1, "one batch frame");
        assert_eq!(stats.lookups, 3, "three keys looked up");
        assert_eq!((stats.hits, stats.misses), (2, 1));
    }

    #[test]
    fn insert_batch_applies_all_keys_or_refuses_whole() {
        let node = CacheNode::spawn(CacheNodeConfig::named("batchin"));
        let endpoint = node.endpoint();
        assert_eq!(
            roundtrip(
                &endpoint,
                &Request::InsertBatch(vec![(id(1), b"a".to_vec()), (id(2), b"b".to_vec()),]),
            ),
            Response::Ok { epoch: 1 }
        );
        assert_eq!(node.len(), 2);
        assert_eq!(node.stats().inserts, 2);

        // One oversize key poisons the whole batch — nothing lands.
        let oversize = vec![0u8; MAX_PAYLOAD - 7];
        assert!(matches!(
            roundtrip(
                &endpoint,
                &Request::InsertBatch(vec![(id(3), b"ok".to_vec()), (id(4), oversize)]),
            ),
            Response::Err { epoch: 1, .. }
        ));
        assert_eq!(node.len(), 2, "refused batch left no partial state");
    }

    #[test]
    fn invalidate_removes_and_ping_reports_the_epoch() {
        let node = CacheNode::spawn(CacheNodeConfig::named("inval"));
        let endpoint = node.endpoint();
        roundtrip(&endpoint, &Request::Insert(id(3), b"x".to_vec()));
        assert_eq!(
            roundtrip(&endpoint, &Request::Invalidate(id(3))),
            Response::Ok { epoch: 1 }
        );
        assert_eq!(
            roundtrip(&endpoint, &Request::Lookup(id(3))),
            Response::Miss { epoch: 1 }
        );
        assert_eq!(
            roundtrip(&endpoint, &Request::Ping),
            Response::Ok { epoch: 1 }
        );
        assert!(node.is_empty());
    }

    #[test]
    fn malformed_frames_get_err_and_the_link_survives() {
        let node = CacheNode::spawn(CacheNodeConfig::named("rude"));
        let link = node.endpoint().dial(source(3)).expect("dial");
        link.send(b"not a frame").unwrap();
        let frame = link
            .recv(RecvTimeout::After(Duration::from_secs(5)))
            .unwrap();
        let refusal = Response::decode(&frame).unwrap();
        assert!(matches!(refusal.response, Response::Err { epoch: 1, .. }));
        assert_eq!(refusal.request_id, 0, "unattributable: answered as id 0");
        // The same link still serves well-formed traffic.
        link.send(&Request::Ping.encode(7)).unwrap();
        let frame = link
            .recv(RecvTimeout::After(Duration::from_secs(5)))
            .unwrap();
        let framed = Response::decode(&frame).unwrap();
        assert_eq!(framed.request_id, 7);
        assert_eq!(framed.response, Response::Ok { epoch: 1 });
        assert_eq!(node.stats().bad_frames, 1);
    }

    #[test]
    fn truncated_v2_frames_echo_the_peeked_id_in_the_refusal() {
        let node = CacheNode::spawn(CacheNodeConfig::named("peek"));
        let link = node.endpoint().dial(source(8)).expect("dial");
        // A v2 header with id 0x1234 and a truncated body.
        let mut frame = Request::Lookup(id(1)).encode(0x1234);
        frame.truncate(frame.len() - 1);
        link.send(&frame).unwrap();
        let reply = link
            .recv(RecvTimeout::After(Duration::from_secs(5)))
            .unwrap();
        let framed = Response::decode(&reply).unwrap();
        assert_eq!(framed.request_id, 0x1234, "refusal names the request");
        assert!(matches!(framed.response, Response::Err { .. }));
    }

    #[test]
    fn restart_bumps_the_epoch_and_invalidates_stale_entries() {
        let node = CacheNode::spawn(CacheNodeConfig::named("phoenix"));
        let endpoint = node.endpoint();
        roundtrip(&endpoint, &Request::Insert(id(7), b"old-secret".to_vec()));
        assert_eq!(node.len(), 1, "entry resident before the restart");

        node.kill();
        assert!(!node.is_up());
        assert!(
            endpoint.dial(source(4)).is_err(),
            "a dead node refuses dials"
        );
        node.restart();
        assert!(node.is_up());
        assert_eq!(node.epoch(), 2);
        assert_eq!(node.len(), 1, "the stale entry physically survived");

        // The stale entry is invalidated on first touch — answered Miss,
        // never served.
        assert_eq!(
            roundtrip(&endpoint, &Request::Lookup(id(7))),
            Response::Miss { epoch: 2 }
        );
        assert_eq!(node.stats().stale_invalidated, 1);
        assert!(node.is_empty(), "the stale entry is gone after the touch");

        // Fresh inserts under the new epoch serve normally.
        roundtrip(&endpoint, &Request::Insert(id(7), b"new-secret".to_vec()));
        assert_eq!(
            roundtrip(&endpoint, &Request::Lookup(id(7))),
            Response::Hit {
                epoch: 2,
                premaster: b"new-secret".to_vec()
            }
        );
    }

    #[test]
    fn kill_unblocks_live_links_without_hanging() {
        let node = CacheNode::spawn(CacheNodeConfig::named("killed"));
        let link = node.endpoint().dial(source(5)).expect("dial");
        node.kill();
        // The client's next receive resolves (disconnect), never hangs.
        let err = link.recv(RecvTimeout::After(Duration::from_secs(5)));
        assert!(err.is_err(), "dead node must hang up, not hang");
    }

    #[test]
    fn many_idle_links_ride_one_reactor_thread() {
        let node = CacheNode::spawn(CacheNodeConfig {
            backlog: 256,
            ..CacheNodeConfig::named("wide")
        });
        let endpoint = node.endpoint();
        let mut idle = Vec::new();
        for n in 0..200u8 {
            idle.push(endpoint.dial(source(n)).expect("dial"));
        }
        // Traffic on a fresh link still flows while the rest sit idle.
        assert_eq!(
            roundtrip(&endpoint, &Request::Ping),
            Response::Ok { epoch: 1 }
        );
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while node.live_links() < 200 {
            assert!(
                std::time::Instant::now() < deadline,
                "links never registered"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(node.stats().links_accepted, 201);
    }
}
