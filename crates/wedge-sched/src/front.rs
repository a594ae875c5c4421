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
//! 1. **Listener** ([`wedge_net::Listener`]) — `serve_listener_with` is
//!    an event loop with one blocking wait, ended by a client connecting,
//!    by the accept [`Reactor`] handing a parked link back, or by
//!    `Listener::close`. With [`FrontEndConfig::defer_accept`] accepted
//!    links park until their first byte and only then occupy a shard,
//!    submitted with the **source-address affinity key** they arrived
//!    with, so [`AcceptPolicy::SessionAffinity`] needs no protocol help.
//!    It holds only links in flight — memory bounded by connections open,
//!    not served — and hands each outcome to a callback on its thread.
//! 2. **Supervision** ([`crate::Supervisor`]) — enabled with
//!    [`FrontEndConfig::supervisor`], killed shards respawn automatically
//!    (fresh kernel, old ring index) with bounded backoff and
//!    restart-storm detection, counted under `supervisor.*`.
//! 3. **Placement** ([`Acceptor`]) — pluggable policy, per-shard health
//!    and bounded-queue backpressure, kill-time re-routing. A link every shard
//!    refuses waits for the set's next capacity-or-health change.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::Sender;

use wedge_core::{KernelStats, WedgeError};
use wedge_net::{Duplex, Listener, Reactor};
use wedge_telemetry::trace::SpanGuard;
use wedge_telemetry::{ActiveTrace, SpanKind, Telemetry};
use wedge_tls::SessionStore;

use crate::acceptor::{AcceptPolicy, Acceptor, ShardJobHandle};
use crate::shard::{KillReport, ShardConfig, ShardHealth, ShardServer, ShardSet, ShardStats};
use crate::supervisor::{Supervisor, SupervisorConfig};

/// Configuration of a [`ShardedFrontEnd`].
#[derive(Debug, Clone, Copy)]
pub struct FrontEndConfig {
    /// Shard workers to boot — each an independent kernel running one
    /// server instance.
    pub shards: usize,
    /// Bounded per-shard link-queue capacity: the only admission bound.
    pub queue_capacity: usize,
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
        }
    }
}

/// The generic sharded front-end: N shards, one acceptor, an
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

/// What [`ShardedFrontEnd::serve_listener`] counted once its listener
/// closed: every accepted connection is exactly one of `ok` or `failed`.
#[derive(Debug, Default)]
pub struct ServeTally {
    /// Connections served to a report.
    pub ok: usize,
    /// Connections that resolved with an error.
    pub failed: usize,
    /// The first of those errors, in drain order.
    pub first_error: Option<WedgeError>,
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
    /// Boot `config.shards` shards via `factory` (one call per shard,
    /// retained for restarts), build
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
    /// first call wires anything. After this, `telemetry.snapshot()`
    /// aggregates the whole stack.
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
            wedge_tls::instrument_store(store, telemetry);
        }
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

    /// The underlying shard set (per-shard health, servers).
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

    /// Per-shard snapshots (health, boot cost, restarts, depth, kernel),
    /// in shard order.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.set.shard_stats()
    }

    /// Kernel counters summed across every shard.
    pub fn kernel_stats(&self) -> KernelStats {
        self.set.kernel_stats()
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
    /// saturation and revivable dead shards as `place` does.
    pub fn serve_all(&self, links: Vec<Duplex>) -> Vec<Result<S::Report, WedgeError>> {
        let (tx, rx) = crossbeam::channel::unbounded();
        let mut outcomes: Vec<_> = links.iter().map(|_| None).collect();
        for (idx, link) in links.into_iter().enumerate() {
            self.place(&tx, idx, link);
        }
        drop(tx);
        while let Ok((idx, outcome)) = rx.recv() {
            outcomes[idx] = Some(outcome);
        }
        let lost = || {
            Err(WedgeError::InvalidOperation(
                "shard set dropped the link".into(),
            ))
        };
        outcomes
            .into_iter()
            .map(|o| o.unwrap_or_else(lost))
            .collect()
    }

    /// The accept loop ([`Self::serve_listener_with`]), counting outcomes.
    pub fn serve_listener(&self, listener: &Listener, batch: usize) -> ServeTally {
        let mut tally = ServeTally::default();
        self.serve_listener_with(listener, batch, |_arrival, outcome| match outcome {
            Ok(_) => tally.ok += 1,
            Err(err) => {
                tally.failed += 1;
                tally.first_error.get_or_insert(err);
            }
        });
        tally
    }

    /// The accept loop: drain `listener` in batches of up to `batch` links
    /// and call `on_outcome(arrival, outcome)` once per accepted
    /// connection (`arrival` counts accepts from 0), on the loop's thread
    /// in drain order, until the listener closes and every connection has
    /// resolved. It holds only links in flight, so its memory is bounded
    /// by the connections open, not the connections served; completions
    /// are drained when the loop is awake anyway, and never wake it.
    ///
    /// The loop blocks in one place, `Listener::accept_batch_or_wake`,
    /// with no timeout; a connect, a hand-back and `Listener::close` each
    /// end that wait. Under [`FrontEndConfig::defer_accept`] an accepted
    /// link parks on the front-end's readiness [`Reactor`] until its first
    /// byte arrives and is then handed back intact: the reactor's callback
    /// queues the link, then sets the listener's sticky wake flag, so a
    /// hand-back landing between drain and block still ends that block.
    /// A traced link's wait is its `park` span.
    pub fn serve_listener_with(
        &self,
        listener: &Listener,
        batch: usize,
        mut on_outcome: impl FnMut(usize, Result<S::Report, WedgeError>),
    ) {
        let (tx, outcomes) = crossbeam::channel::unbounded();
        // Hand-backs: `(arrival, link)` from the reactor's callbacks.
        let (ready_tx, ready_rx) = std::sync::mpsc::channel::<(usize, Duplex)>();
        // Parked links: arrival → watch id and the open `park` span
        // (closed where the link is placed and its `queue` span opens).
        let mut parked: HashMap<usize, (u64, Option<Box<SpanGuard>>)> = HashMap::new();
        let mut accepted = 0;
        let waker = listener.waker();
        while let Ok(links) = listener.accept_batch_or_wake(batch) {
            for link in links {
                let arrival = accepted;
                accepted += 1;
                let Some(reactor) = &self.reactor else {
                    self.place(&tx, arrival, link);
                    continue;
                };
                let park = link.trace().and_then(|trace| {
                    let tracer = self.telemetry.get()?.tracer()?;
                    let ctx = trace.ctx;
                    Some(Box::new(
                        ActiveTrace { ctx, tracer }.span(SpanKind::Park, 0),
                    ))
                });
                let (ready_tx, waker) = (ready_tx.clone(), waker.clone());
                let watch = reactor.watch(link, move |link| {
                    // Queue, then wake. A dead channel is fine: the loop
                    // returned, and its flush reclaimed the stragglers.
                    let _ = ready_tx.send((arrival, link));
                    waker.wake();
                });
                parked.insert(arrival, (watch, park));
            }
            for (arrival, link) in ready_rx.try_iter() {
                self.handback_wakes.fetch_add(1, Ordering::Relaxed);
                parked.remove(&arrival);
                self.place(&tx, arrival, link);
            }
            while let Ok((arrival, outcome)) = outcomes.try_recv() {
                on_outcome(arrival, outcome);
            }
        }
        // Flush: the listener is closed, but some links may still be
        // parked. Reclaim each watch atomically — `take` returning the
        // link means its callback never fired (the client never spoke;
        // place it anyway so it resolves rather than dangles), `None`
        // means the hand-back is in the channel (or about to be).
        if let Some(reactor) = &self.reactor {
            parked.retain(|&arrival, (watch, park)| match reactor.take(*watch) {
                Some(link) => {
                    drop(park.take());
                    self.place(&tx, arrival, link);
                    false
                }
                None => true,
            });
        }
        while !parked.is_empty() {
            // Guaranteed to arrive: every un-taken watch has fired its
            // callback (or is inside it). The timeout bounds a reactor bug.
            let Ok((arrival, link)) = ready_rx.recv_timeout(Duration::from_secs(1)) else {
                break;
            };
            self.handback_wakes.fetch_add(1, Ordering::Relaxed);
            parked.remove(&arrival);
            self.place(&tx, arrival, link);
        }
        // Unreachable by construction; resolve rather than dangle if the
        // impossible happens.
        for arrival in parked.into_keys() {
            let lost = "accepted link lost between reactor and shard";
            let _ = tx.send((arrival, Err(WedgeError::InvalidOperation(lost.into()))));
        }
        // Every placed link reports, then drops its clone of `tx`: the
        // channel disconnects once the last one in flight has resolved.
        drop(tx);
        while let Ok((arrival, outcome)) = outcomes.recv() {
            on_outcome(arrival, outcome);
        }
    }

    /// Offer a link until something admits it or the refusal is final,
    /// its outcome going to `tx` tagged with `arrival` either way.
    /// Transient saturation (some shard healthy, all momentarily full)
    /// waits for the shard set's next capacity-or-health change and
    /// re-offers; an **all-dead** set is waited out only while a
    /// supervisor exists that can still revive a shard — otherwise its
    /// uniform `ResourceExhausted` is surfaced immediately (deterministic
    /// shedding). A shut-down set fails at once with its permanent error.
    fn place(
        &self,
        tx: &Sender<(usize, Result<S::Report, WedgeError>)>,
        arrival: usize,
        link: Duplex,
    ) {
        let inner = self.set.inner();
        let key = link.affinity_key();
        let mut link = link;
        loop {
            // Read before offering: a slot freed between the refusal and
            // the wait below must end that wait.
            let seen = inner.capacity.seen();
            let (back, err) = match self.acceptor.offer(link, key, arrival, tx.clone()) {
                Ok(_shard) => return,
                Err(refused) => refused,
            };
            // Once the watchdog has written off the whole ring nothing
            // will come back, so waiting would never end.
            let revivable = self.supervisor.as_ref().is_some_and(|supervisor| {
                let abandoned = &supervisor.counters.abandoned_shards;
                (abandoned.load(Ordering::Relaxed) as usize) < self.set.shards()
            });
            // `alive`: some shard is healthy, so the refusal was transient
            // saturation. A dead, unrevivable ring sheds instead.
            if inner.shutdown.load(Ordering::SeqCst) || !(inner.alive() || revivable) {
                let _ = tx.send((arrival, Err(err)));
                return;
            }
            link = back;
            inner.capacity.wait_past(seen, None);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use wedge_net::{RecvTimeout, SourceAddr};

    /// Every accepted connection's outcome in arrival order, through
    /// [`ShardedFrontEnd::serve_listener_with`]; each arrival must report
    /// exactly once.
    fn serve_by_arrival<S: ShardServer>(
        front: &ShardedFrontEnd<S>,
        listener: &Listener,
        batch: usize,
    ) -> Vec<Result<S::Report, WedgeError>> {
        let mut outcomes = std::collections::BTreeMap::new();
        front.serve_listener_with(listener, batch, |arrival, outcome| {
            assert!(
                outcomes.insert(arrival, outcome).is_none(),
                "{arrival} twice"
            );
        });
        assert!(
            outcomes.keys().copied().eq(0..outcomes.len()),
            "an arrival never reported"
        );
        outcomes.into_values().collect()
    }

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
        let telemetry = Telemetry::new();
        front.instrument(&telemetry);
        let listener = Listener::bind("svc", 64);
        listener.instrument(&telemetry);

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
        let outcomes = serve_by_arrival(&front, &listener, 4);
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
        let snapshot = telemetry.snapshot();
        assert_eq!(snapshot.counter("sched.submitted"), 9);
        assert_eq!(snapshot.counter("sched.completed"), 9);
        assert_eq!(snapshot.counter("listener.accept"), 9);
        assert!(
            snapshot.counter("listener.batches") > 0,
            "accepts were batched"
        );
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
        let telemetry = Telemetry::new();
        front.instrument(&telemetry);
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
            let pump = scope.spawn(|| serve_by_arrival(&front, &listener, 8));
            let deadline = Instant::now() + Duration::from_secs(5);
            while telemetry.snapshot().counter("sched.completed") < 3 {
                assert!(Instant::now() < deadline, "active links never served");
                std::thread::sleep(Duration::from_millis(1));
            }
            assert_eq!(
                telemetry.snapshot().counter("sched.submitted"),
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
        let snapshot = telemetry.snapshot();
        assert_eq!(snapshot.counter("sched.completed"), 15);
        // Re-offers after transient saturation count as fresh offers, so
        // the balance invariant is the precise claim here.
        assert_eq!(
            snapshot.counter("sched.submitted"),
            snapshot.counter("sched.completed") + snapshot.counter("sched.rejected")
        );
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
        let telemetry = Telemetry::new();
        front.instrument(&telemetry);
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
        let restarts = || telemetry.snapshot().counter("supervisor.restarts");
        while restarts() == 0 {
            assert!(Instant::now() < deadline, "restart never counted");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(restarts(), 1);
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
        let telemetry = Telemetry::new();
        front.instrument(&telemetry);
        front.kill_shard(0);
        let deadline = Instant::now() + Duration::from_secs(10);
        while telemetry.snapshot().counter("supervisor.storms") == 0 {
            assert!(Instant::now() < deadline, "storm guard never tripped");
            std::thread::sleep(Duration::from_millis(1));
        }
        let snapshot = telemetry.snapshot();
        assert_eq!(snapshot.counter("supervisor.restarts"), 0);
        assert_eq!(
            snapshot.counter("supervisor.failed_restarts"),
            2,
            "both respawn attempts failed"
        );
        assert_eq!(snapshot.counter("supervisor.abandoned_shards"), 1);
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
        let telemetry = Telemetry::new();
        front.instrument(&telemetry);
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
        let snapshot = telemetry.snapshot();
        assert_eq!(snapshot.counter("sched.submitted"), 15);
        assert_eq!(snapshot.counter("sched.rejected"), 15);
        assert_eq!(snapshot.counter("sched.completed"), 0);
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
        let mut resolved = 0;
        front.serve_listener_with(&listener, 4, |_arrival, outcome| {
            assert!(matches!(outcome, Err(WedgeError::ResourceExhausted { .. })));
            resolved += 1;
        });
        assert_eq!(resolved, 4, "every accepted link resolves");
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
            let pump = scope.spawn(|| serve_by_arrival(&front, &listener, 8));
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
        let snapshot = telemetry.snapshot();
        assert_eq!(snapshot.counter("sched.completed"), 100);
        assert_eq!(
            snapshot.counter("sched.submitted"),
            snapshot.counter("sched.completed") + snapshot.counter("sched.rejected")
        );
        // Path coverage: every reactor hand-off woke the accept loop.
        assert_eq!(snapshot.counter("reactor.handoffs"), 100);
        assert_eq!(snapshot.counter("front.handback_wakes"), 100);
    }

    /// A link still parked when `Listener::close()` lands is reclaimed by
    /// the flush and resolves exactly once.
    #[test]
    fn a_link_parked_at_close_resolves_exactly_once() {
        let front =
            ShardedFrontEnd::new(FrontEndConfig::default(), |_id| Ok(TagServer)).expect("front");
        let telemetry = Telemetry::new();
        front.instrument(&telemetry);
        let listener = Listener::bind("closing", 4);
        let client = listener
            .connect(SourceAddr::new([10, 0, 4, 9], 44_000))
            .expect("connect");
        std::thread::scope(|scope| {
            let pump = scope.spawn(|| serve_by_arrival(&front, &listener, 8));
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
        let snapshot = telemetry.snapshot();
        let books = ["submitted", "completed", "rejected"]
            .map(|name| snapshot.counter(&format!("sched.{name}")));
        assert_eq!(books, [1, 1, 0]);
        assert_eq!(snapshot.counter("reactor.handoffs"), 0);
        assert_eq!(snapshot.counter("front.handback_wakes"), 0);
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
        let telemetry = Telemetry::new();
        front.instrument(&telemetry);
        let (serving_client, serving) = wedge_net::duplex_pair("serving", "s");
        let (queued_client, queued) = wedge_net::duplex_pair("queued", "s");
        let (blocked_client, blocked) = wedge_net::duplex_pair("blocked", "s");
        queued_client.send(b"go").unwrap();
        blocked_client.send(b"go").unwrap();
        let serving = front.serve(serving).expect("first link");
        // Wait until the worker holds `serving` (its dequeue is an event).
        let inner = front.set.inner();
        inner
            .capacity
            .wait_until(None, || inner.shards[0].queue.lock().is_empty());
        let queued = front.serve(queued).expect("fills the one queue slot");
        std::thread::scope(|scope| {
            let driver = scope.spawn(|| front.serve_all(vec![blocked]));
            // The driver's offer is refused at least once before anything
            // can free the slot.
            while telemetry.snapshot().counter("sched.rejected") == 0 {
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
        let snapshot = telemetry.snapshot();
        assert_eq!(snapshot.counter("sched.completed"), 3);
        assert!(snapshot.counter("sched.rejected") >= 1);
        assert_eq!(
            snapshot.counter("sched.submitted"),
            snapshot.counter("sched.completed") + snapshot.counter("sched.rejected")
        );
    }
}
