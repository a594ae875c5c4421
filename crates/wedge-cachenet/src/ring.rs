//! The cache ring: a machine's client for the distributed session cache.
//!
//! A [`CacheRing`] routes each [`SessionId`] to one [`CacheEndpoint`]
//! with **rendezvous (highest-random-weight) hashing** — every machine
//! holding the same node list agrees on the owner of every key with no
//! coordination, and when a node dies only its own keys move (to their
//! next-highest-scoring node), which is the consistent-hashing property
//! the ring needs to survive node churn.
//!
//! Remote I/O is **one request per link** (wire v4). Every operation —
//! a lookup, an insert, an invalidate — is one request frame and one
//! reply, sent through the same round-trip path on the caller's own
//! thread. Each node keeps a pool of idle links: an op checks one out,
//! sends, receives and checks it back in, so concurrent callers each
//! hold their own link and the pool grows to the peak number of
//! concurrent callers. A link never carries two requests at once, so a
//! reply needs no id to find its request, and the ring owns no thread.
//!
//! Remote operations stay **bounded-latency**: one routed node, one
//! reply awaited for at most [`CacheRingConfig::op_timeout`]. A link that
//! fails (send refused, hang-up, timeout) is dropped, never reused, so a
//! late reply can never answer another request. Failures (dial refused,
//! link dropped, timeout) feed a per-node **circuit breaker** — after
//! [`CacheRingConfig::breaker_threshold`] consecutive failures the node is
//! skipped outright for [`CacheRingConfig::breaker_cooldown`], then
//! probed again (half-open). While a node's circuit is open its keys
//! route to their next-best node, so a dead node costs the ring one
//! timeout per key at most once per cooldown, not per lookup.
//!
//! The ring is itself a [`SessionStore`]: servers cannot tell it from the
//! in-process [`SharedSessionCache`]. Lookups **miss through** to a local
//! cache tier (so a machine keeps resuming its own sessions with every
//! cache node dead) and a remote hit warms that tier, inserts **write
//! through** (local tier + routed node), and every reply's epoch is
//! tracked per node so a restarted node is observable the moment it
//! answers.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use wedge_net::duplex::fnv1a;
use wedge_net::{Duplex, NetError, RecvTimeout, SourceAddr};
use wedge_telemetry::trace::{self, SpanGuard};
use wedge_telemetry::{Histogram, SpanKind, Telemetry, TelemetryEvent, TraceContext};
use wedge_tls::{SessionId, SessionStore, SharedSessionCache};

use crate::node::CacheEndpoint;
use crate::proto::{Request, Response};

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
}

impl Default for CacheRingConfig {
    fn default() -> Self {
        CacheRingConfig {
            source: SourceAddr::new([127, 0, 0, 1], 0),
            op_timeout: Duration::from_millis(250),
            breaker_threshold: 3,
            breaker_cooldown: Duration::from_millis(250),
            local_capacity: wedge_tls::DEFAULT_SESSION_CACHE_CAPACITY,
        }
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
/// lookup latency plus the remote-answered / local-tier split.
struct RingProbes {
    telemetry: Telemetry,
    lookup: Histogram,
    lookup_remote: Histogram,
    lookup_local: Histogram,
}

struct NodeState {
    /// This node's position in the ring's endpoint list (stable — the
    /// index [`TelemetryEvent::CircuitOpen`] reports).
    index: usize,
    endpoint: CacheEndpoint,
    /// Routing seed: FNV-1a of the node name. Machines sharing a node
    /// list derive identical seeds, hence identical routing.
    seed: u64,
    /// Idle links, each with no request outstanding. An op checks one
    /// out for its round trip and checks it back in only on success.
    idle: Mutex<Vec<Duplex>>,
    breaker: Mutex<Breaker>,
    /// Last epoch seen in a reply from this node (0 = none yet).
    last_epoch: AtomicU64,
}

impl NodeState {
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
    /// cooldown. `None`: not routable; `Some(probe)`: routable, and
    /// `probe` says whether this caller now holds the half-open claim (a
    /// closed breaker claims nothing).
    fn claim_routable(&self, now: Instant) -> Option<bool> {
        let mut breaker = self.breaker.lock();
        match breaker.open_until {
            None => Some(false),
            Some(until) if now >= until && !breaker.probing => {
                breaker.probing = true;
                Some(true)
            }
            Some(_) => None,
        }
    }

    /// A clean link to this node: the first idle link that is still
    /// quiet, else a fresh dial (`None`: the dial failed). An idle link
    /// the node hung up on (it was killed) or that holds a stray frame is
    /// dropped without counting a failure — it is not the node's answer
    /// to anything this op asked.
    fn checkout(&self, source: SourceAddr) -> Option<Duplex> {
        loop {
            let Some(link) = self.idle.lock().pop() else {
                return self.endpoint.dial(source).ok();
            };
            if matches!(link.try_recv(), Err(NetError::WouldBlock)) {
                return Some(link);
            }
        }
    }
}

/// Counters, config and probes shared between the ring and its
/// telemetry collector. The counters are monotonic and are read only by
/// [`CacheRing::instrument`]'s collector.
struct RingShared {
    config: CacheRingConfig,
    /// Lookups a node answered with a hit.
    remote_hits: AtomicU64,
    /// Lookups a node answered with a miss.
    remote_misses: AtomicU64,
    /// Lookups the local tier answered after the remote path failed or
    /// missed.
    local_hits: AtomicU64,
    /// Write-through inserts a node acknowledged `Ok`.
    write_throughs: AtomicU64,
    /// Remote frames that failed (dial, send, timeout, link death); each
    /// also feeds the owning node's breaker.
    failures: AtomicU64,
    /// Times a node's breaker opened.
    circuit_opens: AtomicU64,
    /// Epoch changes seen in node replies: detected node restarts.
    epoch_changes: AtomicU64,
    /// Operations that found no routable node and ran on the local tier.
    all_nodes_down: AtomicU64,
    /// Store-level hit/miss counters (the [`SessionStore`] contract).
    store_hits: AtomicU64,
    store_misses: AtomicU64,
    /// Set once by [`CacheRing::instrument`].
    probes: std::sync::OnceLock<RingProbes>,
}

impl RingShared {
    /// Success bookkeeping for one replied frame: close the breaker,
    /// release the half-open claim if this op (`probe`) holds it, track
    /// the node's epoch.
    fn op_succeeded(&self, node: &NodeState, epoch: u64, probe: bool) {
        {
            let mut breaker = node.breaker.lock();
            breaker.consecutive_failures = 0;
            breaker.open_until = None;
            breaker.probing &= !probe;
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
    /// hang-up): count it and feed the node's breaker. Releases the
    /// half-open claim if this op (`probe`) holds it — a failed probe
    /// re-arms the cooldown, so the next probe waits it out again.
    fn op_failed(&self, node: &NodeState, probe: bool) {
        self.failures.fetch_add(1, Ordering::Relaxed);
        let mut breaker = node.breaker.lock();
        breaker.probing &= !probe;
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

/// The distributed session-cache client: rendezvous routing over the
/// node endpoints, per-node idle-link pools, circuit breaking, local
/// miss-through tier.
pub struct CacheRing {
    shared: Arc<RingShared>,
    nodes: Vec<Arc<NodeState>>,
    local: Arc<SharedSessionCache>,
}

impl std::fmt::Debug for CacheRing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CacheRing")
            .field("nodes", &self.nodes.len())
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
                        idle: Mutex::new(Vec::new()),
                        breaker: Mutex::new(Breaker {
                            consecutive_failures: 0,
                            open_until: None,
                            probing: false,
                        }),
                        last_epoch: AtomicU64::new(0),
                    })
                })
                .collect(),
            local: Arc::new(SharedSessionCache::with_capacity(
                config.local_capacity.max(1),
            )),
            shared: Arc::new(RingShared {
                config: CacheRingConfig {
                    breaker_threshold: config.breaker_threshold.max(1),
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
        }
    }

    /// Register the ring on `telemetry` (idempotent): live latency
    /// histograms `cachenet.lookup` (every lookup), its
    /// `cachenet.lookup.remote` / `cachenet.lookup.local` split by which
    /// tier answered, plus a pull collector for the ring counters
    /// (`cachenet.remote_hits`, `cachenet.failures`,
    /// `cachenet.circuit_opens`, …), the currently-open breaker count and
    /// the local tier's residency. Audit events
    /// ([`TelemetryEvent::CircuitOpen`], [`TelemetryEvent::EpochBump`])
    /// flow to an installed sink from the moment this returns.
    pub fn instrument(self: &Arc<Self>, telemetry: &Telemetry) {
        let probes = RingProbes {
            telemetry: telemetry.clone(),
            lookup: telemetry.histogram("cachenet.lookup"),
            lookup_remote: telemetry.histogram("cachenet.lookup.remote"),
            lookup_local: telemetry.histogram("cachenet.lookup.local"),
        };
        if self.shared.probes.set(probes).is_err() {
            return;
        }
        let ring = Arc::downgrade(self);
        telemetry.register_collector(move |sample| {
            let Some(ring) = ring.upgrade() else { return };
            let shared = &ring.shared;
            for (name, cell) in [
                ("cachenet.remote_hits", &shared.remote_hits),
                ("cachenet.remote_misses", &shared.remote_misses),
                ("cachenet.local_hits", &shared.local_hits),
                ("cachenet.write_throughs", &shared.write_throughs),
                ("cachenet.failures", &shared.failures),
                ("cachenet.circuit_opens", &shared.circuit_opens),
                ("cachenet.epoch_changes", &shared.epoch_changes),
                ("cachenet.all_nodes_down", &shared.all_nodes_down),
            ] {
                sample.counter(name, cell.load(Ordering::Relaxed));
            }
            let now = Instant::now();
            let open = ring.nodes.iter().filter(|n| !n.routable(now)).count();
            sample.gauge("cachenet.breaker_open", open as u64);
            sample.gauge("cachenet.local_resident", ring.local.len() as u64);
        });
    }

    /// Number of nodes in the ring (routable or not).
    pub fn nodes(&self) -> usize {
        self.nodes.len()
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
    /// Also returns whether this caller holds the probe claim; the op's
    /// bookkeeping ([`RingShared::op_succeeded`] or
    /// [`RingShared::op_failed`]) always resolves it.
    fn routed_node(&self, id: &SessionId) -> Option<(Arc<NodeState>, bool)> {
        let now = Instant::now();
        self.ranked(id).into_iter().find_map(|idx| {
            let node = &self.nodes[idx];
            Some((node.clone(), node.claim_routable(now)?))
        })
    }

    /// One round trip on a link checked out of `node`'s pool, bounded by
    /// `op_timeout`; `probe` says whether this op holds the node's
    /// half-open claim.
    ///
    /// The link is this op's alone from send to reply. On success it goes
    /// back to the pool; on a dial failure, send failure, hang-up,
    /// undecodable reply or timeout it is dropped — never reused, so a
    /// late reply dies with it — and the breaker is fed once.
    fn remote(&self, node: &NodeState, request: &Request, probe: bool) -> Option<Response> {
        // A caller serving a traced request gets a client-side cachenet
        // span covering the whole round trip, and the frame carries the
        // span's context so the node's server-side span joins the trace.
        let mut span = trace::span(SpanKind::Cachenet, node.index as u32);
        let result = self.round_trip(node, request, span.as_ref().map(SpanGuard::ctx));
        match &result {
            Some(response) => self.shared.op_succeeded(node, response.epoch(), probe),
            None => self.shared.op_failed(node, probe),
        }
        if let Some(span) = span.as_mut() {
            span.set_ok(result.is_some());
        }
        result
    }

    fn round_trip(
        &self,
        node: &NodeState,
        request: &Request,
        wire_trace: Option<TraceContext>,
    ) -> Option<Response> {
        let link = node.checkout(self.shared.config.source)?;
        link.send(&request.encode_traced(wire_trace)).ok()?;
        let frame = link
            .recv(RecvTimeout::After(self.shared.config.op_timeout))
            .ok()?;
        let response = Response::decode(&frame).ok()?;
        node.idle.lock().push(link);
        Some(response)
    }

    /// [`CacheRing::remote`] on `id`'s routed node; `None` (counted as
    /// `all_nodes_down`) when every circuit is open.
    fn routed(&self, id: &SessionId, request: &Request) -> Option<Response> {
        match self.routed_node(id) {
            Some((node, probe)) => self.remote(&node, request, probe),
            None => {
                self.shared.all_nodes_down.fetch_add(1, Ordering::Relaxed);
                None
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
        if let Some(Response::Ok { .. }) = self.routed(&id, &Request::Insert(id, premaster)) {
            self.shared.write_throughs.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Remote-first with local miss-through: one `Lookup` round trip to
    /// the routed node. A remote hit warms the local tier; on a miss, a
    /// failure or an all-open ring the local tier answers.
    fn lookup(&self, id: &SessionId) -> Option<Vec<u8>> {
        let started = self.shared.probes.get().map(|_| Instant::now());
        let remote = match self.routed(id, &Request::Lookup(*id)) {
            Some(Response::Hit { premaster, .. }) => {
                self.shared.remote_hits.fetch_add(1, Ordering::Relaxed);
                self.local.insert(*id, premaster.clone());
                Some(premaster)
            }
            Some(Response::Miss { .. }) => {
                self.shared.remote_misses.fetch_add(1, Ordering::Relaxed);
                None
            }
            _ => None,
        };
        let remote_answered = remote.is_some();
        let found = remote.or_else(|| {
            let local = self.local.lookup(id);
            if local.is_some() {
                self.shared.local_hits.fetch_add(1, Ordering::Relaxed);
            }
            local
        });
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
            let _ = self.remote(node, &Request::Invalidate(*id), false);
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

    /// Evictions from the **local** tier.
    fn evictions(&self) -> u64 {
        self.local.evictions()
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
        }
    }

    /// `ring`, instrumented on a registry of its own: the only place the
    /// tests read its counters.
    fn watched(ring: CacheRing) -> (Arc<CacheRing>, Telemetry) {
        let (ring, telemetry) = (Arc::new(ring), Telemetry::new());
        ring.instrument(&telemetry);
        (ring, telemetry)
    }

    fn three_nodes() -> (Vec<CacheNode>, Arc<CacheRing>, Telemetry) {
        let nodes: Vec<CacheNode> = (0..3)
            .map(|n| CacheNode::spawn(CacheNodeConfig::named(&format!("cache-{n}"))))
            .collect();
        let (ring, telemetry) = watched(CacheRing::new(
            nodes.iter().map(CacheNode::endpoint).collect(),
            quick_config(),
        ));
        (nodes, ring, telemetry)
    }

    #[test]
    fn routing_is_deterministic_and_spread() {
        let (_nodes, ring, _) = three_nodes();
        let (_nodes2, ring2, _) = three_nodes();
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
        let (nodes, ring_a, _) = three_nodes();
        // Machine B: its own ring over the same endpoints.
        let (ring_b, telemetry) = watched(CacheRing::new(
            nodes.iter().map(CacheNode::endpoint).collect(),
            CacheRingConfig {
                source: SourceAddr::new([10, 2, 0, 2], 40_001),
                ..quick_config()
            },
        ));
        ring_a.insert(id(1), b"premaster".to_vec());
        assert_eq!(
            ring_b.lookup(&id(1)).expect("cross-machine hit"),
            b"premaster"
        );
        assert_eq!(ring_b.stats(), (1, 0));
        assert_eq!(telemetry.snapshot().counter("cachenet.remote_hits"), 1);
        assert_eq!(
            ring_b.local.len(),
            1,
            "a remote hit warms machine B's local tier"
        );
        // Totals live on the nodes, one of which holds the key.
        let resident: usize = nodes.iter().map(CacheNode::len).sum();
        assert_eq!(resident, 1);
    }

    #[test]
    fn dead_node_falls_back_to_local_tier_without_hanging() {
        let (nodes, ring, telemetry) = three_nodes();
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
        assert_eq!(telemetry.snapshot().counter("cachenet.local_hits"), 1);
        assert!(telemetry.snapshot().counter("cachenet.failures") >= 1);
        assert!(telemetry.snapshot().counter("cachenet.circuit_opens") >= 1);
    }

    #[test]
    fn open_circuit_reroutes_keys_to_the_next_node() {
        let (nodes, ring, telemetry) = three_nodes();
        let owner = ring.route_of(&id(3)).unwrap();
        nodes[owner].kill();
        // First insert eats the failure and opens the circuit...
        ring.insert(id(3), b"pm".to_vec());
        assert!(telemetry.snapshot().counter("cachenet.circuit_opens") >= 1);
        // ...the next insert routes straight to the runner-up node.
        ring.insert(id(3), b"pm".to_vec());
        assert_eq!(telemetry.snapshot().counter("cachenet.write_throughs"), 1);
        let resident: usize = nodes
            .iter()
            .enumerate()
            .filter(|(idx, _)| *idx != owner)
            .map(|(_, node)| node.len())
            .sum();
        assert_eq!(resident, 1, "the key lives on a surviving node now");
        // And a lookup through the rerouted path hits remotely.
        assert!(ring.lookup(&id(3)).is_some());
        assert!(telemetry.snapshot().counter("cachenet.remote_hits") >= 1);
    }

    #[test]
    fn half_open_probe_recovers_a_restarted_node() {
        let (nodes, ring, telemetry) = three_nodes();
        let owner = ring.route_of(&id(5)).unwrap();
        // Seed an epoch observation so the restart is detectable.
        ring.insert(id(5), b"pm".to_vec());
        assert_eq!(telemetry.snapshot().counter("cachenet.write_throughs"), 1);
        nodes[owner].kill();
        ring.insert(id(5), b"pm".to_vec()); // failure → circuit opens
        nodes[owner].restart();
        // After the cooldown the half-open probe finds it again.
        std::thread::sleep(Duration::from_millis(80));
        ring.insert(id(5), b"pm2".to_vec());
        assert_eq!(telemetry.snapshot().counter("cachenet.write_throughs"), 2);
        let deadline = Instant::now() + Duration::from_secs(2);
        while telemetry.snapshot().counter("cachenet.epoch_changes") == 0
            && Instant::now() < deadline
        {
            ring.lookup(&id(5));
        }
        assert!(
            telemetry.snapshot().counter("cachenet.epoch_changes") >= 1,
            "the bumped epoch must be observed:\n{}",
            telemetry.snapshot().to_text()
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
        let (ring, telemetry) = watched(CacheRing::new(
            vec![node.endpoint()],
            CacheRingConfig {
                source: SourceAddr::new([10, 2, 0, 3], 40_002),
                breaker_cooldown: Duration::from_millis(500),
                ..quick_config()
            },
        ));
        ring.insert(id(21), b"pm".to_vec());
        node.kill();
        assert_eq!(ring.lookup(&id(21)).expect("local miss-through"), b"pm");
        assert_eq!(
            telemetry.snapshot().counter("cachenet.failures"),
            1,
            "the dead node opened its circuit"
        );
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
            telemetry.snapshot().counter("cachenet.failures"),
            2,
            "exactly one caller probes the recovering node:\n{}",
            telemetry.snapshot().to_text()
        );
    }

    #[test]
    fn all_nodes_down_serves_purely_locally_and_deterministically() {
        let (nodes, ring, telemetry) = three_nodes();
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
        assert!(telemetry.snapshot().counter("cachenet.all_nodes_down") > 0);
    }

    #[test]
    fn remove_invalidates_the_remote_copy_too() {
        let (nodes, ring, _) = three_nodes();
        ring.insert(id(11), b"pm".to_vec());
        SessionStore::remove(ring.as_ref(), &id(11));
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
        let (nodes, ring, _) = three_nodes();
        let owner = ring.route_of(&id(13)).unwrap();
        nodes[owner].kill();
        ring.insert(id(13), b"pm".to_vec()); // failure → owner circuit opens
        ring.insert(id(13), b"pm".to_vec()); // lands on the runner-up
        let resident: usize = nodes.iter().map(CacheNode::len).sum();
        assert_eq!(resident, 1, "the copy lives on a non-owner node");
        SessionStore::remove(ring.as_ref(), &id(13));
        let resident: usize = nodes.iter().map(CacheNode::len).sum();
        assert_eq!(resident, 0, "the broadcast reached the non-owner copy");
        assert!(ring.lookup(&id(13)).is_none(), "local tier cleared too");
    }

    #[test]
    fn remove_leaves_another_callers_probe_claim_alone() {
        // A zero cooldown makes a failed node half-open again at once, so
        // the only thing keeping a second caller out is the probe claim.
        let node = CacheNode::spawn(CacheNodeConfig::named("cache-claim"));
        let (ring, _) = watched(CacheRing::new(
            vec![node.endpoint()],
            CacheRingConfig {
                breaker_cooldown: Duration::ZERO,
                ..quick_config()
            },
        ));
        node.kill();
        assert!(ring.lookup(&id(31)).is_none(), "failure opens the circuit");
        let state = &ring.nodes[0];
        assert_eq!(state.claim_routable(Instant::now()), Some(true));
        // The broadcast invalidate fails on the dead node; it did not
        // claim the probe, so it must not release it.
        SessionStore::remove(ring.as_ref(), &id(31));
        assert_eq!(
            state.claim_routable(Instant::now()),
            None,
            "the probe claim still belongs to its caller"
        );
    }

    #[test]
    fn a_late_reply_never_answers_the_next_request() {
        let node = CacheNode::spawn(CacheNodeConfig::named("cache-late"));
        let telemetry = Telemetry::new();
        node.instrument(&telemetry);
        let links = || telemetry.snapshot().counter("cachenet.node.links_accepted");
        // The values live on the node only: the ring under test never
        // inserts them, so only a remote reply can answer its lookups.
        let writer = CacheRing::new(vec![node.endpoint()], quick_config());
        writer.insert(id(1), b"one".to_vec());
        writer.insert(id(2), b"two".to_vec());
        let (ring, ring_telemetry) = watched(CacheRing::new(
            vec![node.endpoint()],
            CacheRingConfig {
                op_timeout: Duration::from_millis(300),
                breaker_threshold: 2,
                ..quick_config()
            },
        ));
        // Pool one link.
        ring.insert(id(3), b"three".to_vec());
        // Stall the node's one serve thread: it delivers the reply to a
        // raw link whose readiness waker blocks until released.
        let (release, gate) = std::sync::mpsc::channel::<()>();
        let (entered, stalled) = std::sync::mpsc::channel::<()>();
        let gate = Mutex::new(gate);
        let entered = Mutex::new(entered);
        let stall = node.endpoint().dial(quick_config().source).expect("dial");
        stall.set_ready_waker(Box::new(move || {
            let _ = entered.lock().send(());
            let _ = gate.lock().recv();
        }));
        stall.send(&Request::Ping.encode()).unwrap();
        stalled.recv().unwrap();

        // The node is stuck, so this lookup times out.
        assert!(ring.lookup(&id(1)).is_none(), "timed out, local miss");
        assert_eq!(ring_telemetry.snapshot().counter("cachenet.failures"), 1);
        let before = links();
        std::thread::scope(|scope| {
            let next = scope.spawn(|| ring.lookup(&id(2)));
            // The next lookup dials a fresh link (the node's accept thread
            // is not stuck) while the node still owes lookup 1 its reply.
            // A reused link would hand lookup 2 the answer to lookup 1.
            let deadline = Instant::now() + Duration::from_secs(5);
            while links() == before {
                assert!(Instant::now() < deadline, "the next op dialed no link");
                std::thread::yield_now();
            }
            drop(release);
            assert_eq!(
                next.join().unwrap().expect("remote hit"),
                b"two",
                "the next op gets its own key's answer"
            );
        });
        assert_eq!(telemetry.snapshot().counter("cachenet.node.lookups"), 2);
        assert_eq!(ring_telemetry.snapshot().counter("cachenet.remote_hits"), 1);
        assert_eq!(links(), before + 1, "one fresh link, no more");
    }

    #[test]
    fn a_killed_and_restarted_node_costs_no_phantom_failure() {
        let node = CacheNode::spawn(CacheNodeConfig::named("cache-bounce"));
        let (ring, telemetry) = watched(CacheRing::new(vec![node.endpoint()], quick_config()));
        node.instrument(&telemetry);
        ring.insert(id(41), b"pm".to_vec()); // pools one link
        node.kill();
        node.restart();
        // The pooled link was hung up by the kill: checkout drops it and
        // dials afresh, and the breaker never hears about it.
        assert_eq!(ring.lookup(&id(41)).expect("local tier"), b"pm");
        let snapshot = telemetry.snapshot();
        assert_eq!(snapshot.counter("cachenet.failures"), 0);
        assert_eq!(snapshot.counter("cachenet.remote_misses"), 1, "stale: Miss");
        assert_eq!(snapshot.counter("cachenet.epoch_changes"), 1);
        assert_eq!(snapshot.counter("cachenet.node.links_accepted"), 2);
    }

    #[test]
    fn concurrent_lookups_each_get_their_own_answer() {
        // 8 threads look up through one ring to one node at once. Each
        // op holds its own link from send to reply, so every caller gets
        // its own key's answer, and the pool never exceeds the peak
        // number of concurrent callers.
        let node = CacheNode::spawn(CacheNodeConfig::named("cache-pool"));
        let (ring, telemetry) = watched(CacheRing::new(
            vec![node.endpoint()],
            CacheRingConfig {
                source: SourceAddr::new([10, 2, 0, 4], 40_003),
                ..quick_config()
            },
        ));
        node.instrument(&telemetry);
        for byte in 0..8u8 {
            ring.insert(id(byte), vec![byte]);
        }
        let links = || telemetry.snapshot().counter("cachenet.node.links_accepted");
        assert_eq!(links(), 1, "sequential inserts reuse one link");
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
        let snapshot = telemetry.snapshot();
        let dialed = links();
        assert!(dialed <= 8, "at most one link per concurrent caller");
        assert_eq!(snapshot.counter("cachenet.node.lookups"), 8);
        assert_eq!(snapshot.counter("cachenet.remote_hits"), 8);
        for byte in 0..8u8 {
            assert_eq!(ring.lookup(&id(byte)).expect("hit"), vec![byte]);
        }
        assert_eq!(links(), dialed, "a sequential run dials no new link");
    }

    #[test]
    fn lookup_histograms_split_by_the_answering_tier() {
        let node = CacheNode::spawn(CacheNodeConfig::named("cache-hist"));
        let (ring, telemetry) = watched(CacheRing::new(
            vec![node.endpoint()],
            CacheRingConfig {
                source: SourceAddr::new([10, 2, 0, 7], 40_006),
                ..quick_config()
            },
        ));
        ring.insert(id(1), b"a".to_vec());
        ring.insert(id(2), b"b".to_vec());
        for byte in [1, 2, 9] {
            ring.lookup(&id(byte));
        }
        let snapshot = telemetry.snapshot();
        let count = |name| snapshot.histogram(name).expect("histogram").count;
        assert_eq!(count("cachenet.lookup"), 3, "one sample per lookup");
        assert_eq!(count("cachenet.lookup.remote"), 2, "the two remote hits");
        assert_eq!(count("cachenet.lookup.local"), 1, "the miss fell through");
    }
}
