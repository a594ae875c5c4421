//! One protocol-agnostic sharded front-end.
//!
//! [`ShardedFrontEnd`] is the scaffolding around [`ShardSet`] +
//! [`Acceptor`] written once, generically over [`ShardServer`]: config,
//! the submit/serve-all drivers, report aggregation, kill-shard plumbing.
//! The Apache, SSH and POP3 front-ends are thin wrappers adding only their
//! protocol state (certificate keys, session caches, OTP ledgers).
//!
//! It composes the three serving-stack layers, none of which runs on a
//! timer:
//!
//! 1. **Listener** ([`wedge_net::Listener`]) — `serve_listener` is an
//!    event loop with one blocking wait, ended by a client connecting, by
//!    the accept [`Reactor`] handing a parked link back, or by
//!    `Listener::close`. With [`FrontEndConfig::defer_accept`] accepted
//!    links park until their first byte and only then occupy a shard,
//!    submitted with the **source-address affinity key** they arrived
//!    with, so [`AcceptPolicy::SessionAffinity`] needs no protocol help.
//! 2. **Supervision** ([`crate::Supervisor`]) — enabled with
//!    [`FrontEndConfig::supervisor`], killed shards respawn automatically
//!    (fresh kernel, old ring index) with bounded backoff and
//!    restart-storm detection; see [`ShardedFrontEnd::restart_stats`].
//! 3. **Placement** ([`Acceptor`]) — pluggable policy, per-shard health
//!    and admission backpressure, kill-time re-routing. A link every shard
//!    refuses waits for the set's next capacity-or-health change.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use wedge_core::{KernelStats, WedgeError};
use wedge_net::{Duplex, Listener, Reactor};
use wedge_telemetry::trace::SpanGuard;
use wedge_telemetry::{ActiveTrace, SpanKind, Telemetry, TelemetrySnapshot};
use wedge_tls::SessionStore;

use crate::acceptor::{AcceptPolicy, Acceptor, ShardJobHandle};
use crate::metrics::SchedStats;
use crate::shard::{KillReport, ShardConfig, ShardHealth, ShardServer, ShardSet, ShardStats};
use crate::supervisor::{RestartStats, Supervisor, SupervisorConfig};

/// Configuration of a [`ShardedFrontEnd`].
#[derive(Debug, Clone, Copy)]
pub struct FrontEndConfig {
    /// Shard workers to fork — each an independent kernel running one
    /// server instance.
    pub shards: usize,
    /// Bounded per-shard link-queue capacity.
    pub queue_capacity: usize,
    /// Per-shard admission limit on in-flight links (`None`: only the
    /// bounded queues push back).
    pub max_inflight: Option<u64>,
    /// Descriptor-table size the simulated fork copies at shard boot.
    pub fork_fd_count: usize,
    /// How the acceptor places links on shards.
    pub policy: AcceptPolicy,
    /// Enable the auto-restart watchdog with this configuration.
    pub supervisor: Option<SupervisorConfig>,
    /// Park accepted links on the front-end's readiness reactor until
    /// their first byte arrives, and only then occupy a shard slot —
    /// so thousands of idle connections cost one parked sthread, not a
    /// queue slot and a serving thread each. Correct for
    /// client-speaks-first protocols (TLS, SSH: the client sends the
    /// hello). Protocols where the **server** speaks first (POP3 sends
    /// its `+OK` greeting unprompted) must disable this, or greeting and
    /// client would deadlock waiting for each other.
    pub defer_accept: bool,
}

impl Default for FrontEndConfig {
    fn default() -> Self {
        let shard = ShardConfig::default();
        FrontEndConfig {
            shards: shard.shards,
            queue_capacity: shard.queue_capacity,
            max_inflight: shard.max_inflight,
            fork_fd_count: shard.fork_fd_count,
            policy: AcceptPolicy::RoundRobin,
            supervisor: None,
            defer_accept: true,
        }
    }
}

impl FrontEndConfig {
    fn shard_config(&self) -> ShardConfig {
        ShardConfig {
            shards: self.shards,
            queue_capacity: self.queue_capacity,
            max_inflight: self.max_inflight,
            fork_fd_count: self.fork_fd_count,
        }
    }
}

/// The generic sharded front-end: N forked shards, one acceptor, an
/// optional supervisor — shared by every protocol.
pub struct ShardedFrontEnd<S: ShardServer> {
    set: ShardSet<S>,
    acceptor: Acceptor<S>,
    supervisor: Option<Supervisor>,
    /// The session store this front-end's shards consult, when the
    /// protocol has one (TLS front-ends do). Held here so operators can
    /// watch resumption health at the front-end — and so a front-end can
    /// be pointed at a **remote cache ring** (`wedge-cachenet`) instead
    /// of an in-process cache without the generic layer noticing.
    session_store: Option<Arc<dyn SessionStore>>,
    /// The registry this front-end reports into, once
    /// [`Self::instrument`] has been called.
    telemetry: std::sync::OnceLock<Telemetry>,
    /// The readiness reactor idle accepted links park on; `None` when
    /// [`FrontEndConfig::defer_accept`] is off.
    reactor: Option<Reactor>,
    /// Hand-backs the accept loops received (`front.handback_wakes`);
    /// equals the reactor's `handoffs` once every loop has returned.
    handback_wakes: Arc<AtomicU64>,
}

/// One accepted connection in [`ShardedFrontEnd::serve_listener`]'s
/// arrival-ordered table.
enum Arrival<R> {
    /// On the accept reactor under watch id `watch`; a traced link's open
    /// `park` span (accept → first byte) rides along, boxed to keep the
    /// table's per-connection entry small.
    Parked {
        watch: u64,
        park: Option<Box<SpanGuard>>,
    },
    /// Offered to the shards: a handle to join, or the final refusal.
    Placed(Result<ShardJobHandle<R>, WedgeError>),
}

impl<S: ShardServer> std::fmt::Debug for ShardedFrontEnd<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedFrontEnd")
            .field("shards", &self.set.shards())
            .field("policy", &self.acceptor.policy())
            .field("supervised", &self.supervisor.is_some())
            .field("session_store", &self.session_store.is_some())
            .finish()
    }
}

impl<S: ShardServer> ShardedFrontEnd<S> {
    /// Fork `config.shards` shards via `factory` (one call per shard,
    /// inside the simulated forked child; retained for restarts), build
    /// the acceptor, and start the supervisor when configured.
    pub fn new<F>(config: FrontEndConfig, factory: F) -> Result<ShardedFrontEnd<S>, WedgeError>
    where
        F: Fn(usize) -> Result<S, WedgeError> + Send + Sync + 'static,
    {
        ShardedFrontEnd::build(config, None, factory)
    }

    /// [`Self::new`], registering the [`SessionStore`] the shards consult
    /// — the in-process `SharedSessionCache` or a `wedge-cachenet` remote
    /// ring; the front-end treats both identically. The factory still
    /// owns wiring the store into each shard's server (it holds its own
    /// `Arc` clone); registering it here additionally exposes resumption
    /// health through [`Self::resumption_hit_rate`].
    pub fn with_session_store<F>(
        config: FrontEndConfig,
        store: Arc<dyn SessionStore>,
        factory: F,
    ) -> Result<ShardedFrontEnd<S>, WedgeError>
    where
        F: Fn(usize) -> Result<S, WedgeError> + Send + Sync + 'static,
    {
        ShardedFrontEnd::build(config, Some(store), factory)
    }

    fn build<F>(
        config: FrontEndConfig,
        session_store: Option<Arc<dyn SessionStore>>,
        factory: F,
    ) -> Result<ShardedFrontEnd<S>, WedgeError>
    where
        F: Fn(usize) -> Result<S, WedgeError> + Send + Sync + 'static,
    {
        let set = ShardSet::new(config.shard_config(), factory)?;
        let acceptor = Acceptor::new(&set, config.policy);
        let supervisor = config
            .supervisor
            .map(|sup_config| Supervisor::spawn(&set, sup_config));
        Ok(ShardedFrontEnd {
            set,
            acceptor,
            supervisor,
            session_store,
            telemetry: std::sync::OnceLock::new(),
            reactor: config
                .defer_accept
                .then(|| Reactor::spawn("frontend-accept")),
            handback_wakes: Arc::default(),
        })
    }

    /// Register every layer of this front-end on `telemetry`: the shard
    /// set (scheduler counters, `shard.serve` latency, handshake mix,
    /// per-shard kernels via [`ShardServer::instrument`]), the supervisor
    /// when one runs, the accept loop's `front.handback_wakes` (the pair of
    /// `reactor.handoffs`), and the session store's `tls.session_cache.*`
    /// resumption counters when one is registered. Idempotent — only the
    /// first call wires anything. After this,
    /// [`Self::telemetry_snapshot`] aggregates the whole stack.
    pub fn instrument(&self, telemetry: &Telemetry) {
        if self.telemetry.set(telemetry.clone()).is_err() {
            return;
        }
        self.set.instrument(telemetry);
        if let Some(supervisor) = &self.supervisor {
            supervisor.instrument(telemetry);
        }
        if let Some(reactor) = &self.reactor {
            reactor.instrument(telemetry);
        }
        let wakes = Arc::downgrade(&self.handback_wakes);
        telemetry.register_collector(move |sample| {
            if let Some(wakes) = wakes.upgrade() {
                sample.counter("front.handback_wakes", wakes.load(Ordering::Relaxed));
            }
        });
        if let Some(store) = &self.session_store {
            let store = Arc::downgrade(store);
            telemetry.register_collector(move |sample| {
                let Some(store) = store.upgrade() else { return };
                let (hits, misses) = store.stats();
                sample.counter("tls.session_cache.hits", hits);
                sample.counter("tls.session_cache.misses", misses);
                sample.gauge("tls.session_cache.resident", store.len() as u64);
            });
        }
    }

    /// One aggregated snapshot of every metric this front-end (and
    /// anything else sharing the registry) reports. `None` until
    /// [`Self::instrument`] has been called.
    pub fn telemetry_snapshot(&self) -> Option<TelemetrySnapshot> {
        self.telemetry.get().map(Telemetry::snapshot)
    }

    /// The registry handed to [`Self::instrument`], if any — so callers
    /// can install a [`wedge_telemetry::TelemetrySink`] or register more
    /// collectors on the same registry.
    pub fn telemetry(&self) -> Option<&Telemetry> {
        self.telemetry.get()
    }

    /// The session store registered at construction (`None` for
    /// protocols without TLS-style warm state).
    pub fn session_store(&self) -> Option<&Arc<dyn SessionStore>> {
        self.session_store.as_ref()
    }

    /// Resumption health: the registered session store's hit rate
    /// (`None` when no store is registered **or** the store has served
    /// no lookups yet — see `SharedSessionCache::hit_rate` for the
    /// spec).
    pub fn resumption_hit_rate(&self) -> Option<f64> {
        self.session_store
            .as_ref()
            .and_then(|store| store.hit_rate())
    }

    /// The underlying shard set (per-shard admission, health, servers).
    pub fn set(&self) -> &ShardSet<S> {
        &self.set
    }

    /// The configured placement policy.
    pub fn policy(&self) -> AcceptPolicy {
        self.acceptor.policy()
    }

    /// Number of shards (healthy or not).
    pub fn shards(&self) -> usize {
        self.set.shards()
    }

    /// Shard `idx`'s health.
    pub fn health(&self, idx: usize) -> ShardHealth {
        self.set.health(idx)
    }

    /// Front-end counters: every offered link bumps `submitted` and
    /// resolves into exactly one of `completed` / `rejected` — a link the
    /// batch drivers re-offer after backpressure counts as a fresh offer,
    /// so `submitted == completed + rejected` always balances; `stolen`
    /// counts placements away from the policy's first choice (skips of
    /// saturated shards and post-kill re-routes).
    pub fn sched_stats(&self) -> SchedStats {
        self.set.stats()
    }

    /// Per-shard snapshots (health, boot cost, restarts, depth, counters,
    /// kernel), in shard order.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.set.shard_stats()
    }

    /// The per-shard snapshots folded into one aggregate (counters sum,
    /// `healthy` only when every shard is).
    pub fn aggregate_stats(&self) -> ShardStats {
        let mut total = ShardStats::default();
        for stats in self.set.shard_stats() {
            total += &stats;
        }
        total
    }

    /// Kernel counters summed across every shard.
    pub fn kernel_stats(&self) -> KernelStats {
        self.set.kernel_stats()
    }

    /// The supervisor's restart counters; `None` when the front-end runs
    /// unsupervised.
    pub fn restart_stats(&self) -> Option<RestartStats> {
        self.supervisor.as_ref().map(Supervisor::stats)
    }

    /// Shard indices the supervisor's storm guard has written off —
    /// dead with no pending revival (empty when unsupervised or when
    /// every failed shard is still being restarted). The health-polling
    /// counterpart of [`Supervisor::abandoned`].
    pub fn abandoned_shards(&self) -> Vec<usize> {
        self.supervisor
            .as_ref()
            .map(Supervisor::abandoned)
            .unwrap_or_default()
    }

    /// Kill shard `idx` (fault injection): queued links re-route to
    /// healthy shards, the link in service finishes, and — when a
    /// supervisor is configured — the shard respawns automatically.
    pub fn kill_shard(&self, idx: usize) -> KillReport {
        self.set.kill_shard(idx)
    }

    /// Manually revive killed shard `idx` (the supervisor does this
    /// automatically when configured). Returns the respawn's boot cost.
    pub fn restart_shard(&self, idx: usize) -> Result<Duration, WedgeError> {
        self.set.restart_shard(idx)
    }

    /// Block until shard `idx` reports healthy, up to `timeout`. Returns
    /// whether it did — the test/demo helper for "the shard rejoined the
    /// ring". Woken by the restart landing.
    pub fn await_healthy(&self, idx: usize, timeout: Duration) -> bool {
        let healthy = || self.set.health(idx) == ShardHealth::Healthy;
        let deadline = Instant::now() + timeout;
        self.set.inner().changes.wait_until(Some(deadline), healthy)
    }

    /// Submit one link for service on whichever shard the acceptor picks
    /// (the link's source-address affinity key is used under
    /// [`AcceptPolicy::SessionAffinity`]). The handle resolves to the
    /// report, whose shard attribution names the shard that served it.
    pub fn serve(&self, link: Duplex) -> Result<ShardJobHandle<S::Report>, WedgeError> {
        self.acceptor.submit(link)
    }

    /// [`Self::serve`] with an explicit affinity key (ignored by the
    /// non-affinity policies).
    pub fn serve_with_key(
        &self,
        link: Duplex,
        key: u64,
    ) -> Result<ShardJobHandle<S::Report>, WedgeError> {
        self.acceptor.submit_with_key(link, key)
    }

    /// Batch driver: serve every link and return the outcomes **in link
    /// order** — `result[i]` is `links[i]`'s outcome — waiting out
    /// saturation and revivable dead shards as `submit_with_backoff` does.
    pub fn serve_all(&self, links: Vec<Duplex>) -> Vec<Result<S::Report, WedgeError>> {
        let handles: Vec<Result<ShardJobHandle<S::Report>, WedgeError>> = links
            .into_iter()
            .map(|link| self.submit_with_backoff(link))
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.and_then(ShardJobHandle::join))
            .collect()
    }

    /// The accept loop: drain `listener` in batches of up to `batch`
    /// links and — once the listener closes and its backlog is drained —
    /// return every outcome **in arrival order**. No accepted connection
    /// is ever silently dropped: each either serves or resolves with an
    /// error.
    ///
    /// The loop blocks in one place, `Listener::accept_batch_or_wake`,
    /// with no timeout; a connect, a hand-back and `Listener::close` each
    /// end that wait. Under [`FrontEndConfig::defer_accept`] an accepted
    /// link parks on the front-end's readiness [`Reactor`] until its first
    /// byte arrives and is then handed back intact, the byte still
    /// queued: the reactor's callback queues the link, then sets the
    /// listener's sticky wake flag, so a hand-back landing between the
    /// loop's drain and its next block still ends that block. A traced
    /// link's wait is its `park` span.
    pub fn serve_listener(
        &self,
        listener: &Listener,
        batch: usize,
    ) -> Vec<Result<S::Report, WedgeError>> {
        let mut arrivals: Vec<Arrival<S::Report>> = Vec::new();
        // Hand-backs: `(arrival index, link)` from the reactor's callbacks.
        let (ready_tx, ready_rx) = std::sync::mpsc::channel::<(usize, Duplex)>();
        let waker = listener.waker();
        while let Ok(links) = listener.accept_batch_or_wake(batch) {
            for link in links {
                let Some(reactor) = &self.reactor else {
                    arrivals.push(Arrival::Placed(self.submit_with_backoff(link)));
                    continue;
                };
                let idx = arrivals.len();
                let park = link.trace().and_then(|trace| {
                    let tracer = self.telemetry.get()?.tracer()?;
                    let ctx = trace.ctx;
                    Some(Box::new(
                        ActiveTrace { ctx, tracer }.span(SpanKind::Park, 0),
                    ))
                });
                let (tx, waker) = (ready_tx.clone(), waker.clone());
                let watch = reactor.watch(link, move |link| {
                    // Queue, then wake. A dead channel is fine: the loop
                    // returned, and its flush reclaimed the stragglers.
                    let _ = tx.send((idx, link));
                    waker.wake();
                });
                arrivals.push(Arrival::Parked { watch, park });
            }
            while let Ok((idx, link)) = ready_rx.try_recv() {
                self.handback_wakes.fetch_add(1, Ordering::Relaxed);
                self.unpark(&mut arrivals[idx], link);
            }
        }
        // Flush: the listener is closed, but some links may still be
        // parked. Reclaim each watch atomically — `take` returning the
        // link means its callback never fired (the client never spoke;
        // submit it anyway so it resolves rather than dangles), `None`
        // means the hand-back is in the channel (or about to be).
        for arrival in &mut arrivals {
            if let (Arrival::Parked { watch, .. }, Some(reactor)) = (&*arrival, &self.reactor) {
                if let Some(link) = reactor.take(*watch) {
                    self.unpark(arrival, link);
                }
            }
        }
        while arrivals.iter().any(|a| matches!(a, Arrival::Parked { .. })) {
            // Guaranteed to arrive: every un-taken watch has fired its
            // callback (or is inside it). The timeout bounds a reactor bug.
            let Ok((idx, link)) = ready_rx.recv_timeout(Duration::from_secs(1)) else {
                break;
            };
            self.handback_wakes.fetch_add(1, Ordering::Relaxed);
            self.unpark(&mut arrivals[idx], link);
        }
        arrivals
            .into_iter()
            .map(|arrival| match arrival {
                Arrival::Placed(handle) => handle.and_then(ShardJobHandle::join),
                // Unreachable by construction; resolve rather than panic
                // if the impossible happens.
                Arrival::Parked { .. } => Err(WedgeError::InvalidOperation(
                    "accepted link lost between reactor and shard".into(),
                )),
            })
            .collect()
    }

    /// A parked link came back: offer it to the shards.
    fn unpark(&self, arrival: &mut Arrival<S::Report>, link: Duplex) {
        if let Arrival::Parked { park, .. } = arrival {
            // Close the `park` span here, where the `queue` span opens.
            drop(park.take());
        }
        *arrival = Arrival::Placed(self.submit_with_backoff(link));
    }

    /// Offer a link until something admits it or the refusal is final.
    /// Transient saturation (some shard healthy, all momentarily full)
    /// waits for the shard set's next capacity-or-health change and
    /// re-offers; an **all-dead** set is waited out only while a
    /// supervisor exists that can still revive a shard — otherwise its
    /// uniform `ResourceExhausted` is surfaced immediately (deterministic
    /// shedding). A shut-down set fails at once with its permanent error.
    fn submit_with_backoff(&self, link: Duplex) -> Result<ShardJobHandle<S::Report>, WedgeError> {
        let inner = self.set.inner();
        let key = link.affinity_key();
        let mut link = link;
        loop {
            // Read before offering: a slot freed between the refusal and
            // the wait below must end that wait.
            let seen = inner.changes.seen();
            let (back, err) = match self.acceptor.offer(link, key) {
                Ok(handle) => return Ok(handle),
                Err(refused) => refused,
            };
            // Once the watchdog has written off the whole ring nothing
            // will come back, so waiting would never end.
            let revivable = self.supervisor.as_ref().is_some_and(|supervisor| {
                (supervisor.stats().abandoned_shards as usize) < self.set.shards()
            });
            // `alive`: some shard is healthy, so the refusal was transient
            // saturation. A dead, unrevivable ring sheds instead.
            if inner.shutdown.load(Ordering::SeqCst) || !(inner.alive() || revivable) {
                return Err(err);
            }
            link = back;
            inner.changes.wait_past(seen, None);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use wedge_net::{RecvTimeout, SourceAddr};

    /// Echo-style test server: waits for one message, reports the serving
    /// shard and the link's source host (so tests can match connections
    /// to outcomes).
    struct TagServer;

    #[derive(Debug)]
    struct TagReport {
        shard: usize,
        host: u8,
    }

    impl ShardServer for TagServer {
        type Report = TagReport;

        fn serve_link(&self, shard: usize, link: Duplex) -> Result<TagReport, WedgeError> {
            let _ = link.recv(RecvTimeout::Forever);
            Ok(TagReport {
                shard,
                host: link.source().map(|s| s.host[3]).unwrap_or(0),
            })
        }

        fn kernel_stats(&self) -> KernelStats {
            KernelStats::default()
        }
    }

    #[test]
    fn serve_listener_uses_source_affinity_without_protocol_help() {
        let front = ShardedFrontEnd::new(
            FrontEndConfig {
                shards: 4,
                policy: AcceptPolicy::SessionAffinity,
                ..FrontEndConfig::default()
            },
            |_id| Ok(TagServer),
        )
        .expect("front");
        let listener = Listener::bind("svc", 64);

        // Three hosts, three connections each (fresh ephemeral ports).
        let mut clients = Vec::new();
        for host in 1u8..=3 {
            for conn in 0u16..3 {
                let client = listener
                    .connect(SourceAddr::new([10, 0, 0, host], 40_000 + conn))
                    .expect("connect");
                client.send(b"go").unwrap();
                clients.push(client);
            }
        }
        listener.close();
        let outcomes = front.serve_listener(&listener, 4);
        assert_eq!(outcomes.len(), 9);
        // Same host ⇒ same shard, every time, with zero protocol bytes
        // examined (the ephemeral ports all differ).
        let mut host_shards: std::collections::HashMap<u8, Vec<usize>> =
            std::collections::HashMap::new();
        for outcome in outcomes {
            let report = outcome.expect("served");
            host_shards
                .entry(report.host)
                .or_default()
                .push(report.shard);
        }
        assert_eq!(host_shards.len(), 3);
        for (host, shards) in host_shards {
            assert!(
                shards.windows(2).all(|w| w[0] == w[1]),
                "host {host} must stick to one shard: {shards:?}"
            );
        }
        let stats = front.sched_stats();
        assert_eq!(stats.submitted, 9);
        assert_eq!(stats.completed, 9);
        assert_eq!(listener.stats().accepted, 9);
        assert!(listener.stats().batches > 0, "accepts were batched");
    }

    #[test]
    fn deferred_accept_parks_idle_links_off_the_shards() {
        // 12 idle connections against one shard with a 4-slot queue: with
        // deferred accept they park on the reactor — no slot, no serving
        // thread — while the 3 links that actually speak get served. A
        // hang-up (client drop) also counts as readiness, so every parked
        // link still resolves once the clients leave.
        let front = ShardedFrontEnd::new(
            FrontEndConfig {
                shards: 1,
                queue_capacity: 4,
                ..FrontEndConfig::default()
            },
            |_id| Ok(TagServer),
        )
        .expect("front");
        let listener = Listener::bind("lazy-svc", 32);
        let mut idle = Vec::new();
        for n in 0..12u8 {
            idle.push(
                listener
                    .connect(SourceAddr::new([10, 0, 2, n], 42_000))
                    .expect("connect"),
            );
        }
        let active: Vec<_> = (0..3u16)
            .map(|n| {
                let client = listener
                    .connect(SourceAddr::new([10, 0, 2, 100], 42_100 + n))
                    .expect("connect");
                client.send(b"go").unwrap();
                client
            })
            .collect();
        std::thread::scope(|scope| {
            let pump = scope.spawn(|| front.serve_listener(&listener, 8));
            let deadline = Instant::now() + Duration::from_secs(5);
            while front.sched_stats().completed < 3 {
                assert!(Instant::now() < deadline, "active links never served");
                std::thread::sleep(Duration::from_millis(1));
            }
            assert_eq!(
                front.sched_stats().submitted,
                3,
                "idle links must not occupy shard slots"
            );
            assert!(
                front.reactor.as_ref().expect("reactor").links() >= 12,
                "idle links park on the reactor"
            );
            drop(idle);
            drop(active);
            listener.close();
            let outcomes = pump.join().expect("pump");
            assert_eq!(outcomes.len(), 15, "every accepted link resolves");
            assert!(outcomes.iter().all(Result::is_ok));
        });
        let stats = front.sched_stats();
        assert_eq!(stats.completed, 15);
        // Re-offers after transient saturation count as fresh offers, so
        // the balance invariant is the precise claim here.
        assert_eq!(stats.submitted, stats.completed + stats.rejected);
    }

    #[test]
    fn supervised_front_end_waits_out_a_fully_dead_set() {
        let front = Arc::new(
            ShardedFrontEnd::new(
                FrontEndConfig {
                    shards: 1,
                    supervisor: Some(SupervisorConfig {
                        backoff_base: Duration::from_millis(1),
                        ..SupervisorConfig::default()
                    }),
                    ..FrontEndConfig::default()
                },
                |_id| Ok(TagServer),
            )
            .expect("front"),
        );
        front.kill_shard(0);
        // With every shard dead, an unsupervised front would fail the
        // link permanently; the supervised one blocks until the watchdog
        // revives shard 0 and then serves.
        let (client, server) = wedge_net::duplex_pair("c", "s");
        client.send(b"go").unwrap();
        let submitter = {
            let front = front.clone();
            std::thread::spawn(move || front.serve_all(vec![server]))
        };
        let outcomes = submitter.join().expect("submitter");
        assert_eq!(outcomes.len(), 1);
        assert_eq!(outcomes[0].as_ref().expect("served").shard, 0);
        let deadline = Instant::now() + Duration::from_secs(5);
        while front.restart_stats().expect("supervised").restarts == 0 {
            assert!(Instant::now() < deadline, "restart never counted");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(front.restart_stats().expect("supervised").restarts, 1);
    }

    #[test]
    fn fully_abandoned_front_end_fails_submissions_instead_of_spinning() {
        // The retained factory fails every respawn: the storm guard must
        // abandon the only shard, after which submissions return an error
        // promptly instead of waiting forever for a revival that cannot
        // come.
        let boots = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let factory_boots = boots.clone();
        let front = ShardedFrontEnd::new(
            FrontEndConfig {
                shards: 1,
                supervisor: Some(SupervisorConfig {
                    backoff_base: Duration::from_millis(1),
                    storm_threshold: 2,
                    ..SupervisorConfig::default()
                }),
                ..FrontEndConfig::default()
            },
            move |_id| {
                if factory_boots.fetch_add(1, std::sync::atomic::Ordering::SeqCst) == 0 {
                    Ok(TagServer)
                } else {
                    Err(WedgeError::InvalidOperation("respawn always fails".into()))
                }
            },
        )
        .expect("front");
        front.kill_shard(0);
        let deadline = Instant::now() + Duration::from_secs(10);
        while front.restart_stats().expect("supervised").storms == 0 {
            assert!(Instant::now() < deadline, "storm guard never tripped");
            std::thread::sleep(Duration::from_millis(1));
        }
        let stats = front.restart_stats().expect("supervised");
        assert_eq!(stats.restarts, 0);
        assert_eq!(stats.failed_restarts, 2, "both respawn attempts failed");
        // serve_all must resolve with an error, not hang. The abandoned
        // set is not shut down, so the error is the uniform shedding
        // signal, not the permanent one.
        let (_client, server) = wedge_net::duplex_pair("late", "s");
        let outcomes = front.serve_all(vec![server]);
        assert_eq!(outcomes.len(), 1);
        assert!(matches!(
            outcomes[0],
            Err(WedgeError::ResourceExhausted { .. })
        ));
    }

    /// The all-dead-ring spec for [`AcceptPolicy::SessionAffinity`]: with
    /// *every* shard killed (not shut down), a submission must fail
    /// deterministically with `ResourceExhausted` — the same shedding
    /// signal saturation produces — without spinning or panicking, for
    /// any affinity key, repeatedly. (The single-dead-shard fallback is
    /// covered by the restart tests in `shard.rs` and the supervised
    /// front-end integration tests.)
    #[test]
    fn session_affinity_on_an_all_dead_ring_sheds_deterministically() {
        let front = ShardedFrontEnd::new(
            FrontEndConfig {
                shards: 3,
                policy: AcceptPolicy::SessionAffinity,
                ..FrontEndConfig::default()
            },
            |_id| Ok(TagServer),
        )
        .expect("front");
        for idx in 0..3 {
            front.kill_shard(idx);
        }
        // Every key — whichever dead shard it hashes to, including the
        // fallback walk finding nothing — fails fast with backpressure.
        for key in [0u64, 1, 7, 0xFEED_F00D, u64::MAX] {
            for _attempt in 0..3 {
                let started = Instant::now();
                let (_client, server) = wedge_net::duplex_pair("dead-ring", "s");
                let err = front.serve_with_key(server, key).unwrap_err();
                assert!(
                    matches!(err, WedgeError::ResourceExhausted { .. }),
                    "all-dead ring must shed with backpressure, got {err:?}"
                );
                assert!(
                    started.elapsed() < Duration::from_secs(1),
                    "shedding must be immediate, not a timeout or a spin"
                );
            }
        }
        let stats = front.sched_stats();
        assert_eq!(stats.submitted, 15);
        assert_eq!(stats.rejected, 15);
        assert_eq!(stats.completed, 0);
        // A revived shard turns the same keys back into served links.
        front.restart_shard(1).expect("revive");
        let (client, server) = wedge_net::duplex_pair("after-revival", "s");
        client.send(b"go").unwrap();
        let report = front.serve_with_key(server, 7).unwrap().join().unwrap();
        assert_eq!(report.shard, 1, "only healthy shard serves everything");
    }

    /// Same all-dead ring driven through the listener batch path: every
    /// accepted connection resolves with an error — no accepted link is
    /// silently dropped and the accept pump terminates.
    #[test]
    fn all_dead_ring_resolves_every_accepted_link_with_an_error() {
        let front = ShardedFrontEnd::new(
            FrontEndConfig {
                shards: 2,
                policy: AcceptPolicy::SessionAffinity,
                ..FrontEndConfig::default()
            },
            |_id| Ok(TagServer),
        )
        .expect("front");
        front.kill_shard(0);
        front.kill_shard(1);
        let listener = Listener::bind("dead-svc", 16);
        let _clients: Vec<_> = (0..4u8)
            .map(|n| {
                listener
                    .connect(SourceAddr::new([10, 0, 1, n], 41_000))
                    .expect("connect")
            })
            .collect();
        listener.close();
        let outcomes = front.serve_listener(&listener, 4);
        assert_eq!(outcomes.len(), 4, "every accepted link resolves");
        assert!(outcomes
            .iter()
            .all(|o| matches!(o, Err(WedgeError::ResourceExhausted { .. }))));
    }

    #[test]
    fn await_healthy_reports_the_rejoin() {
        let front = ShardedFrontEnd::new(
            FrontEndConfig {
                shards: 2,
                supervisor: Some(SupervisorConfig {
                    backoff_base: Duration::from_millis(1),
                    ..SupervisorConfig::default()
                }),
                ..FrontEndConfig::default()
            },
            |_id| Ok(TagServer),
        )
        .expect("front");
        let started = Instant::now();
        front.kill_shard(1);
        assert!(
            front.await_healthy(1, Duration::from_secs(5)),
            "supervisor must revive shard 1"
        );
        assert!(started.elapsed() < Duration::from_secs(5));
        assert_eq!(front.shard_stats()[1].restarts, 1);
        assert_eq!(front.aggregate_stats().restarts, 1);
    }

    /// Echo server for the latency test: replies once to the first
    /// message.
    struct EchoServer;

    impl ShardServer for EchoServer {
        type Report = ();

        fn serve_link(&self, _shard: usize, link: Duplex) -> Result<(), WedgeError> {
            if let Ok(msg) = link.recv(RecvTimeout::Forever) {
                let _ = link.send(&msg);
            }
            Ok(())
        }

        fn kernel_stats(&self) -> KernelStats {
            KernelStats::default()
        }
    }

    /// The hand-back wakes the accept loop: a lone client (no second
    /// connect to end the loop's wait) is served at once. With the 20 ms
    /// accept timeout this took ≥ 2 s by construction.
    #[test]
    fn lone_deferred_connections_do_not_wait_for_a_timer() {
        let front =
            ShardedFrontEnd::new(FrontEndConfig::default(), |_id| Ok(EchoServer)).expect("front");
        let telemetry = Telemetry::new();
        front.instrument(&telemetry);
        let listener = Listener::bind("lone", 4);
        std::thread::scope(|scope| {
            let pump = scope.spawn(|| front.serve_listener(&listener, 8));
            let started = Instant::now();
            for n in 0..100u16 {
                let client = listener
                    .connect(SourceAddr::new([10, 0, 3, 1], 43_000 + n))
                    .expect("connect");
                client.send(b"ping").unwrap();
                let reply = client.recv(RecvTimeout::After(Duration::from_secs(5)));
                assert_eq!(reply.as_deref(), Ok(&b"ping"[..]));
            }
            let elapsed = started.elapsed();
            listener.close();
            let outcomes = pump.join().expect("pump");
            assert_eq!(outcomes.len(), 100);
            assert!(outcomes.iter().all(Result::is_ok));
            assert!(
                elapsed < Duration::from_secs(1),
                "100 lone connections took {elapsed:?}"
            );
        });
        let stats = front.sched_stats();
        assert_eq!(stats.completed, 100);
        assert_eq!(stats.submitted, stats.completed + stats.rejected);
        // Path coverage: every reactor hand-off woke the accept loop.
        let snapshot = telemetry.snapshot();
        assert_eq!(snapshot.counter("reactor.handoffs"), 100);
        assert_eq!(snapshot.counter("front.handback_wakes"), 100);
    }

    /// A link still parked when `Listener::close()` lands is reclaimed by
    /// the flush and resolves exactly once.
    #[test]
    fn a_link_parked_at_close_resolves_exactly_once() {
        let front =
            ShardedFrontEnd::new(FrontEndConfig::default(), |_id| Ok(TagServer)).expect("front");
        let listener = Listener::bind("closing", 4);
        let client = listener
            .connect(SourceAddr::new([10, 0, 4, 9], 44_000))
            .expect("connect");
        std::thread::scope(|scope| {
            let pump = scope.spawn(|| front.serve_listener(&listener, 8));
            // The park is what makes `links()` non-zero; the client never
            // speaks, so only the close can end the loop's wait.
            let reactor = front.reactor.as_ref().expect("reactor");
            while reactor.links() == 0 {
                std::thread::yield_now();
            }
            listener.close();
            // Nothing but the flush's `take` can un-park a silent link;
            // once it has, the shard is waiting for this byte.
            while reactor.links() != 0 {
                std::thread::yield_now();
            }
            client.send(b"late").unwrap();
            let outcomes = pump.join().expect("pump");
            assert_eq!(outcomes.len(), 1);
            assert_eq!(outcomes[0].as_ref().expect("served").host, 9);
        });
        let stats = front.sched_stats();
        assert_eq!(
            (stats.submitted, stats.completed, stats.rejected),
            (1, 1, 0)
        );
        assert_eq!(front.reactor.as_ref().expect("reactor").stats().handoffs, 0);
    }

    /// Under a saturated 1-slot shard queue the batch driver blocks on the
    /// shard set's change signal and is admitted by the worker's dequeue —
    /// the test's only event source is the client's bytes, never a clock.
    #[test]
    fn a_saturated_submit_is_admitted_by_the_workers_dequeue() {
        let front = ShardedFrontEnd::new(
            FrontEndConfig {
                shards: 1,
                queue_capacity: 1,
                ..FrontEndConfig::default()
            },
            |_id| Ok(TagServer),
        )
        .expect("front");
        let (serving_client, serving) = wedge_net::duplex_pair("serving", "s");
        let (queued_client, queued) = wedge_net::duplex_pair("queued", "s");
        let (blocked_client, blocked) = wedge_net::duplex_pair("blocked", "s");
        queued_client.send(b"go").unwrap();
        blocked_client.send(b"go").unwrap();
        let serving = front.serve(serving).expect("first link");
        // Wait until the worker holds `serving` (its dequeue is an event).
        let inner = front.set.inner();
        inner
            .changes
            .wait_until(None, || inner.shards[0].queue.lock().is_empty());
        let queued = front.serve(queued).expect("fills the one queue slot");
        std::thread::scope(|scope| {
            let driver = scope.spawn(|| front.serve_all(vec![blocked]));
            // The driver's offer is refused at least once before anything
            // can free the slot.
            while front.sched_stats().rejected == 0 {
                std::thread::yield_now();
            }
            // Finish the link in service: the worker dequeues `queued`,
            // and that dequeue admits `blocked`.
            serving_client.send(b"done").unwrap();
            let outcomes = driver.join().expect("driver");
            assert_eq!(outcomes.len(), 1);
            assert!(outcomes[0].is_ok(), "blocked link served: {outcomes:?}");
        });
        assert!(serving.join().is_ok());
        assert!(queued.join().is_ok());
        let stats = front.sched_stats();
        assert_eq!(stats.completed, 3);
        assert!(stats.rejected >= 1);
        assert_eq!(stats.submitted, stats.completed + stats.rejected);
    }
}
