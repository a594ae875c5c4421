//! The cache node: one partition of the distributed session cache,
//! served over a [`wedge_net::Listener`] accept loop.
//!
//! A node owns a [`SharedSessionCache`] **partition** (the same bounded
//! LRU service a single machine's shards share) and speaks the `proto`
//! frames over every accepted link. Ring clients keep a pool of links
//! and send one request at a time on each; a node serves any number of
//! concurrent links on **one reactor sthread** ([`wedge_net::Reactor`]) —
//! accepted links register a drain handler, idle links cost a map entry,
//! not a stack, and each link's frames are answered in FIFO order.
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

use crate::proto::{ProtoError, Request, Response, MAX_PAYLOAD};

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

/// A node's counters, all monotonic; [`CacheNode::instrument`]'s
/// collector is their only reader.
#[derive(Debug, Default)]
struct NodeCounters {
    /// Lookup requests served.
    lookups: AtomicU64,
    hits: AtomicU64,
    /// Lookups of an unknown id.
    misses: AtomicU64,
    /// Lookups that found a pre-restart entry: invalidated, never served.
    stale_invalidated: AtomicU64,
    /// Insert requests applied.
    inserts: AtomicU64,
    invalidations: AtomicU64,
    pings: AtomicU64,
    /// Frames that failed to decode or were refused (answered `Err`).
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
    pub(crate) fn dial(&self, source: SourceAddr) -> Result<Duplex, NetError> {
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
    pub(crate) fn is_up(&self) -> bool {
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
            for (name, cell) in [
                ("cachenet.node.lookups", &c.lookups),
                ("cachenet.node.hits", &c.hits),
                ("cachenet.node.misses", &c.misses),
                ("cachenet.node.stale_invalidated", &c.stale_invalidated),
                ("cachenet.node.inserts", &c.inserts),
                ("cachenet.node.invalidations", &c.invalidations),
                ("cachenet.node.pings", &c.pings),
                ("cachenet.node.bad_frames", &c.bad_frames),
                ("cachenet.node.links_accepted", &c.links_accepted),
            ] {
                sample.counter(name, cell.load(Ordering::Relaxed));
            }
            sample.gauge("cachenet.node.resident", shared.partition.len() as u64);
            sample.gauge_max("cachenet.node.epoch", shared.epoch.load(Ordering::SeqCst));
        });
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

/// Serve one inbound frame on the reactor thread: decode, apply, reply.
fn serve_frame(shared: &NodeShared, link: &Duplex, frame: &[u8]) -> LinkVerdict {
    let epoch = shared.epoch.load(Ordering::SeqCst);
    let response = match Request::decode(frame) {
        Ok(framed) => {
            // A frame carrying the trace extension joins the caller's
            // trace: the server-side span parents on the remote span id,
            // so the client's trace tree crosses the machine boundary.
            let span = framed.trace.and_then(|wire_ctx| {
                let tracer = shared.telemetry.get()?.tracer()?;
                let ctx = tracer.join_remote(wire_ctx.trace_id, wire_ctx.span_id);
                let started_ns = tracer.now_ns();
                Some((tracer, ctx, started_ns))
            });
            let response = apply(shared, epoch, framed.request);
            if let Some((tracer, ctx, started_ns)) = span {
                let ok = !matches!(response, Response::Err { .. });
                tracer.record(
                    ctx,
                    wedge_telemetry::SpanKind::CachenetServe,
                    started_ns,
                    tracer.now_ns(),
                    ok,
                    0,
                );
            }
            response
        }
        Err(err) => {
            shared.counters.bad_frames.fetch_add(1, Ordering::Relaxed);
            Response::Err {
                epoch,
                message: refusal(&err),
            }
        }
    };
    if link.send(&response.encode()).is_err() {
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
        Request::Lookup(id) => {
            c.lookups.fetch_add(1, Ordering::Relaxed);
            let Some(value) = shared.partition.lookup(&id) else {
                c.misses.fetch_add(1, Ordering::Relaxed);
                return Response::Miss { epoch };
            };
            match split_epoch(&value) {
                Some((entry_epoch, premaster)) if entry_epoch == epoch => {
                    c.hits.fetch_add(1, Ordering::Relaxed);
                    Response::Hit {
                        epoch,
                        premaster: premaster.to_vec(),
                    }
                }
                _ => {
                    // Stale (pre-restart) or unparseable: invalidate,
                    // never serve.
                    shared.partition.remove(&id);
                    c.stale_invalidated.fetch_add(1, Ordering::Relaxed);
                    Response::Miss { epoch }
                }
            }
        }
        Request::Insert(id, premaster) => {
            if premaster.len() > MAX_PAYLOAD - 8 {
                c.bad_frames.fetch_add(1, Ordering::Relaxed);
                return Response::Err {
                    epoch,
                    message: "refused: oversize premaster".to_string(),
                };
            }
            c.inserts.fetch_add(1, Ordering::Relaxed);
            shared.partition.insert(id, join_epoch(epoch, &premaster));
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
impl CacheNode {
    /// Links currently registered on the node's reactor (live clients).
    fn live_links(&self) -> usize {
        self.shared
            .reactor
            .lock()
            .as_ref()
            .map_or(0, |reactor| reactor.links())
    }
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

    /// Send one request on `link` and await its response.
    fn exchange(link: &Duplex, request: &Request) -> Response {
        link.send(&request.encode()).expect("send");
        let frame = link
            .recv(RecvTimeout::After(Duration::from_secs(5)))
            .expect("response");
        Response::decode(&frame).expect("decode")
    }

    /// Dial, speak one request, await one response.
    fn roundtrip(endpoint: &CacheEndpoint, request: &Request) -> Response {
        exchange(&endpoint.dial(source(1)).expect("dial"), request)
    }

    #[test]
    fn insert_then_lookup_hits_with_the_node_epoch() {
        let node = CacheNode::spawn(CacheNodeConfig::named("n0"));
        let telemetry = wedge_telemetry::Telemetry::new();
        node.instrument(&telemetry);
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
        let snapshot = telemetry.snapshot();
        assert_eq!(snapshot.counter("cachenet.node.inserts"), 1);
        assert_eq!(snapshot.counter("cachenet.node.hits"), 1);
        assert_eq!(snapshot.counter("cachenet.node.misses"), 1);
    }

    #[test]
    fn one_link_serves_many_requests_in_order() {
        let node = CacheNode::spawn(CacheNodeConfig::named("pipelined"));
        let telemetry = wedge_telemetry::Telemetry::new();
        node.instrument(&telemetry);
        let link = node.endpoint().dial(source(2)).expect("dial");
        for byte in 0..10u8 {
            assert_eq!(
                exchange(&link, &Request::Insert(id(byte), vec![byte])),
                Response::Ok { epoch: 1 }
            );
        }
        assert_eq!(node.len(), 10);
        assert_eq!(
            telemetry.snapshot().counter("cachenet.node.links_accepted"),
            1
        );
    }

    #[test]
    fn back_to_back_requests_come_back_in_fifo_order() {
        let node = CacheNode::spawn(CacheNodeConfig::named("depth"));
        let link = node.endpoint().dial(source(9)).expect("dial");
        let next_reply = || {
            let frame = link
                .recv(RecvTimeout::After(Duration::from_secs(5)))
                .unwrap();
            Response::decode(&frame).unwrap()
        };
        // Fire 32 requests without reading a single reply: the node must
        // serve them all (no head-of-line deadlock on a full window).
        for n in 0..32u8 {
            link.send(&Request::Insert(id(n), vec![n]).encode())
                .unwrap();
        }
        for _ in 0..32 {
            assert_eq!(next_reply(), Response::Ok { epoch: 1 });
        }
        assert_eq!(node.len(), 32);
        // Lookups with distinct answers show the replies keep the
        // requests' order.
        for n in 0..32u8 {
            link.send(&Request::Lookup(id(n)).encode()).unwrap();
        }
        for n in 0..32u8 {
            let premaster = vec![n];
            assert_eq!(
                next_reply(),
                Response::Hit {
                    epoch: 1,
                    premaster
                }
            );
        }
    }

    #[test]
    fn oversize_insert_is_refused_and_the_link_survives() {
        let node = CacheNode::spawn(CacheNodeConfig::named("oversize"));
        let telemetry = wedge_telemetry::Telemetry::new();
        node.instrument(&telemetry);
        let link = node.endpoint().dial(source(6)).expect("dial");
        let ok = exchange(&link, &Request::Insert(id(1), b"ok".to_vec()));
        assert_eq!(ok, Response::Ok { epoch: 1 });

        // One byte over what the node stores beside its 8-byte epoch.
        let oversize = Request::Insert(id(2), vec![0u8; MAX_PAYLOAD - 7]);
        let refused = exchange(&link, &oversize);
        assert!(matches!(refused, Response::Err { epoch: 1, .. }));
        assert_eq!(
            node.len(),
            1,
            "the refused insert left the partition as it was"
        );
        let snapshot = telemetry.snapshot();
        assert_eq!(snapshot.counter("cachenet.node.bad_frames"), 1);
        assert_eq!(snapshot.counter("cachenet.node.inserts"), 1);

        // The same link keeps serving.
        assert_eq!(
            exchange(&link, &Request::Lookup(id(1))),
            Response::Hit {
                epoch: 1,
                premaster: b"ok".to_vec()
            }
        );
    }

    #[test]
    fn invalidate_removes_and_ping_reports_the_epoch() {
        let node = CacheNode::spawn(CacheNodeConfig::named("inval"));
        let telemetry = wedge_telemetry::Telemetry::new();
        node.instrument(&telemetry);
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
        let snapshot = telemetry.snapshot();
        assert_eq!(snapshot.counter("cachenet.node.invalidations"), 1);
        assert_eq!(snapshot.counter("cachenet.node.pings"), 1);
    }

    #[test]
    fn malformed_frames_get_err_and_the_link_survives() {
        let node = CacheNode::spawn(CacheNodeConfig::named("rude"));
        let telemetry = wedge_telemetry::Telemetry::new();
        node.instrument(&telemetry);
        let link = node.endpoint().dial(source(3)).expect("dial");
        // Junk, and an intact header with a truncated body.
        let mut truncated = Request::Lookup(id(1)).encode();
        truncated.truncate(truncated.len() - 1);
        for frame in [b"not a frame".to_vec(), truncated] {
            link.send(&frame).unwrap();
            let reply = link
                .recv(RecvTimeout::After(Duration::from_secs(5)))
                .unwrap();
            let refusal = Response::decode(&reply).unwrap();
            assert!(matches!(refusal, Response::Err { epoch: 1, .. }));
        }
        // The same link still serves well-formed traffic.
        assert_eq!(exchange(&link, &Request::Ping), Response::Ok { epoch: 1 });
        assert_eq!(telemetry.snapshot().counter("cachenet.node.bad_frames"), 2);
    }

    #[test]
    fn restart_bumps_the_epoch_and_invalidates_stale_entries() {
        let node = CacheNode::spawn(CacheNodeConfig::named("phoenix"));
        let telemetry = wedge_telemetry::Telemetry::new();
        node.instrument(&telemetry);
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
        assert_eq!(
            telemetry
                .snapshot()
                .counter("cachenet.node.stale_invalidated"),
            1
        );
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
        let telemetry = wedge_telemetry::Telemetry::new();
        node.instrument(&telemetry);
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
        assert_eq!(
            telemetry.snapshot().counter("cachenet.node.links_accepted"),
            201
        );
    }
}
