//! Open-loop load harness over the whole serving stack, with scheduled
//! chaos.
//!
//! The generator is **open-loop**: arrivals are precomputed from each
//! phase's offered connections/sec and a worker picks each one up *when
//! it is due*, not when the previous connection finished — and latency is
//! measured from the **scheduled** arrival time, so queueing delay under
//! a fault shows up in p99/p999 instead of being silently absorbed
//! (the classic coordinated-omission trap of closed-loop drivers).
//!
//! The stack under load is everything the repo has: a cachenet ring of
//! [`CacheNode`]s backing TLS resumption, a supervised
//! [`ConcurrentApache`] + [`PooledWedgeSsh`] + [`ShardedPop3`] front-end
//! trio, each fed by its own rate-limited [`Listener`] accept loop, all
//! reporting into one [`Telemetry`] registry. Traffic comes from
//! [`LoadProfile::hosts`] distinct source addresses with Zipf-skewed
//! reuse — hot hosts reconnect constantly (abbreviated handshakes via
//! the ring), the long tail handshakes cold.
//!
//! Chaos rides along: [`LoadStack`] implements
//! [`wedge_chaos::ChaosTarget`], so a seeded [`ChaosSchedule`] can kill
//! shards, bounce cache nodes (epoch bumps), trip restart storms and
//! flood the rate limiters *while the offered load keeps arriving* —
//! every fault audited as a `FaultInjected` telemetry event, every
//! latency artifact attributable. `benches/load.rs` emits the
//! machine-readable `BENCH_load.json` artifact from a [`LoadRunReport`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use wedge_apache::{ConcurrentApache, ConcurrentApacheConfig, PageStore};
use wedge_cachenet::{CacheNode, CacheNodeConfig, CacheRing, CacheRingConfig};
use wedge_chaos::{
    ChaosPlan, ChaosRng, ChaosRun, ChaosSchedule, ChaosTarget, ScheduledFault, Zipf,
};
use wedge_core::WedgeError;
use wedge_crypto::{RsaKeyPair, WedgeRng};
use wedge_net::{
    Duplex, Listener, ListenerStats, RateLimitConfig, Reactor, RecvTimeout, SourceAddr,
};
use wedge_pop3::{MailDb, ShardedPop3, ShardedPop3Config};
use wedge_sched::{AcceptPolicy, RestartStats, SchedStats, SupervisorConfig};
use wedge_ssh::authdb::ServerConfig;
use wedge_ssh::{AuthDb, PooledSshConfig, PooledWedgeSsh, SshClient};
use wedge_telemetry::{
    Histogram, HistogramSummary, RecordingSink, Telemetry, TelemetryEvent, TelemetrySnapshot,
};
use wedge_tls::TlsClient;

/// Relative traffic weights per protocol front-end (0 disables one).
#[derive(Debug, Clone, Copy)]
pub struct ProtocolMix {
    /// Weight of HTTPS (TLS handshake, resumption via the ring).
    pub apache: u32,
    /// Weight of SSH (hello + password auth + disconnect).
    pub ssh: u32,
    /// Weight of POP3 (login + STAT + QUIT).
    pub pop3: u32,
}

impl Default for ProtocolMix {
    fn default() -> Self {
        // TLS is the expensive protocol; POP3 the cheap filler.
        ProtocolMix {
            apache: 1,
            ssh: 1,
            pop3: 2,
        }
    }
}

/// One constant-rate segment of the offered-load timeline.
#[derive(Debug, Clone)]
pub struct LoadPhase {
    /// Label carried into the report ("warm", "peak", ...).
    pub name: String,
    /// Offered arrivals per second (open-loop: scheduled, not reactive).
    pub offered_cps: f64,
    /// How long the phase lasts.
    pub duration: Duration,
}

impl LoadPhase {
    /// A named constant-rate phase.
    pub fn new(name: &str, offered_cps: f64, duration: Duration) -> LoadPhase {
        LoadPhase {
            name: name.to_string(),
            offered_cps,
            duration,
        }
    }

    /// Arrivals this phase schedules (at least 1).
    pub fn arrivals(&self) -> usize {
        ((self.offered_cps * self.duration.as_secs_f64()).round() as usize).max(1)
    }
}

/// The full load recipe: who connects, how often, through what stack.
#[derive(Debug, Clone)]
pub struct LoadProfile {
    /// Seed for the arrival schedule, host draws and protocol mix —
    /// same seed, same offered-load timeline, always.
    pub seed: u64,
    /// Distinct client hosts (each its own source address + TLS client).
    pub hosts: usize,
    /// Zipf exponent of host reuse (1.0 classic skew, 0.0 uniform).
    pub zipf_exponent: f64,
    /// Protocol weights.
    pub mix: ProtocolMix,
    /// The offered-load timeline, run back to back.
    pub phases: Vec<LoadPhase>,
    /// Concurrent connection workers draining the arrival queue.
    pub workers: usize,
    /// Shards per protocol front-end (3 front-ends run).
    pub shards_per_front: usize,
    /// Links each accept loop drains per wakeup.
    pub accept_batch: usize,
    /// Per-source token bucket on every listener. Size it so organic
    /// hosts never trip it and flood bursts always do.
    pub rate_limit: RateLimitConfig,
}

impl Default for LoadProfile {
    fn default() -> Self {
        LoadProfile {
            seed: 0xBEEF,
            hosts: 64,
            zipf_exponent: 1.0,
            mix: ProtocolMix::default(),
            phases: vec![
                LoadPhase::new("warm", 40.0, Duration::from_millis(500)),
                LoadPhase::new("peak", 120.0, Duration::from_millis(500)),
            ],
            workers: 8,
            shards_per_front: 2,
            accept_batch: 8,
            rate_limit: RateLimitConfig {
                burst: 32,
                refill_per_sec: 200.0,
            },
        }
    }
}

const APACHE: usize = 0;
const SSH: usize = 1;
const POP3: usize = 2;
const FRONT_NAMES: [&str; 3] = ["apache", "ssh", "pop3"];

/// The full serving stack assembled for one load run: cachenet ring,
/// three supervised front-ends, three rate-limited listeners, one
/// telemetry registry with a [`RecordingSink`] retaining every audit
/// event. Implements [`ChaosTarget`] so a chaos schedule can break it
/// while load flows: the shard-victim space is the three front-ends
/// concatenated (`0..s` Apache, `s..2s` SSH, `2s..3s` POP3).
pub struct LoadStack {
    telemetry: Telemetry,
    sink: Arc<RecordingSink>,
    nodes: Vec<CacheNode>,
    apache: Arc<ConcurrentApache>,
    ssh: Arc<PooledWedgeSsh>,
    pop3: Arc<ShardedPop3>,
    listeners: [Arc<Listener>; 3],
    shards_per_front: usize,
}

impl std::fmt::Debug for LoadStack {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LoadStack")
            .field("shards_per_front", &self.shards_per_front)
            .field("cache_nodes", &self.nodes.len())
            .finish()
    }
}

impl LoadStack {
    /// Boot the stack: 3 cache nodes, a ring, the three front-ends
    /// (supervised, session-affinity placement, Apache resuming through
    /// the ring), a rate-limited listener per front — everything
    /// instrumented on one fresh registry.
    pub fn spawn(profile: &LoadProfile) -> LoadStack {
        let telemetry = Telemetry::new();
        let sink = Arc::new(RecordingSink::default());
        telemetry.install_sink(sink.clone());
        // Causal tracing over the whole stack: roots minted at the
        // listeners, spans recorded through shard serve, kernel applies,
        // handshakes and cachenet ops. The flight recorder retains only
        // slow/erroneous/fault-window traces; the trace.* histograms
        // feed the span-level latency breakdown in BENCH_load.json.
        telemetry.install_tracer(wedge_telemetry::Tracer::new(
            wedge_telemetry::TracerConfig::default(),
        ));

        let nodes: Vec<CacheNode> = (0..3)
            .map(|n| CacheNode::spawn(CacheNodeConfig::named(&format!("load-cache-{n}"))))
            .collect();
        for node in &nodes {
            node.instrument(&telemetry);
        }
        let ring = Arc::new(CacheRing::new(
            nodes.iter().map(CacheNode::endpoint).collect(),
            CacheRingConfig {
                source: SourceAddr::new([10, 99, 0, 1], 45_000),
                op_timeout: Duration::from_millis(200),
                breaker_threshold: 2,
                breaker_cooldown: Duration::from_millis(100),
                ..CacheRingConfig::default()
            },
        ));
        ring.instrument(&telemetry);

        let supervisor = Some(SupervisorConfig {
            backoff_base: Duration::from_millis(1),
            ..SupervisorConfig::default()
        });
        let shards = profile.shards_per_front.max(1);
        let queue = (profile.hosts * 2).max(64);
        let keypair = RsaKeyPair::generate(&mut WedgeRng::from_seed(0x10AD));
        let apache = Arc::new(
            ConcurrentApache::with_session_store(
                keypair,
                PageStore::sample(),
                ConcurrentApacheConfig {
                    shards,
                    queue_capacity: queue,
                    policy: AcceptPolicy::SessionAffinity,
                    supervisor,
                    ..ConcurrentApacheConfig::default()
                },
                ring,
            )
            .expect("apache front-end"),
        );
        apache.instrument(&telemetry);
        let host_keypair = RsaKeyPair::generate(&mut WedgeRng::from_seed(0x55D));
        let ssh = Arc::new(
            PooledWedgeSsh::new(
                host_keypair,
                &AuthDb::sample(),
                &ServerConfig::default(),
                PooledSshConfig {
                    shards,
                    queue_capacity: queue,
                    policy: AcceptPolicy::SessionAffinity,
                    supervisor,
                    ..PooledSshConfig::default()
                },
            )
            .expect("ssh front-end"),
        );
        ssh.instrument(&telemetry);
        let pop3 = Arc::new(
            ShardedPop3::new(
                &MailDb::sample(),
                ShardedPop3Config {
                    shards,
                    queue_capacity: queue,
                    policy: AcceptPolicy::SessionAffinity,
                    supervisor,
                    ..ShardedPop3Config::default()
                },
            )
            .expect("pop3 front-end"),
        );
        pop3.instrument(&telemetry);

        let listeners = [APACHE, SSH, POP3].map(|front| {
            let listener = Listener::bind_rate_limited(
                &format!("load-{}", FRONT_NAMES[front]),
                queue,
                profile.rate_limit,
            );
            listener.instrument(&telemetry);
            listener
        });

        LoadStack {
            telemetry,
            sink,
            nodes,
            apache,
            ssh,
            pop3,
            listeners,
            shards_per_front: shards,
        }
    }

    /// The registry the whole stack reports into.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The audit-event recorder installed on the registry.
    pub fn sink(&self) -> &Arc<RecordingSink> {
        &self.sink
    }

    /// The listener feeding front `front` (0 Apache, 1 SSH, 2 POP3).
    pub fn listener(&self, front: usize) -> &Arc<Listener> {
        &self.listeners[front]
    }

    /// A [`ChaosPlan`] sized to this stack's victim spaces (the caller
    /// picks seed, horizon and fault counts on top).
    pub fn plan(&self, seed: u64, horizon: Duration) -> ChaosPlan {
        ChaosPlan {
            seed,
            horizon,
            shards: self.shards(),
            cache_nodes: self.cache_nodes(),
            flood_sources: 4,
            ..ChaosPlan::default()
        }
    }

    /// Map a global shard index to (front-end ordinal, local shard).
    fn locate(&self, shard: usize) -> (usize, usize) {
        (
            (shard / self.shards_per_front).min(2),
            shard % self.shards_per_front,
        )
    }

    fn restart_stats(&self, front: usize) -> Option<RestartStats> {
        match front {
            APACHE => self.apache.restart_stats(),
            SSH => self.ssh.restart_stats(),
            _ => self.pop3.restart_stats(),
        }
    }

    fn sched_stats(&self, front: usize) -> SchedStats {
        match front {
            APACHE => self.apache.sched_stats(),
            SSH => self.ssh.sched_stats(),
            _ => self.pop3.sched_stats(),
        }
    }
}

impl ChaosTarget for LoadStack {
    fn shards(&self) -> usize {
        3 * self.shards_per_front
    }

    fn cache_nodes(&self) -> usize {
        self.nodes.len()
    }

    fn kill_shard(&self, shard: usize) {
        let (front, local) = self.locate(shard);
        match front {
            APACHE => drop(self.apache.kill_shard(local)),
            SSH => drop(self.ssh.kill_shard(local)),
            _ => drop(self.pop3.kill_shard(local)),
        }
    }

    fn shard_healthy(&self, shard: usize) -> bool {
        let (front, local) = self.locate(shard);
        let stats = match front {
            APACHE => self.apache.shard_stats(),
            SSH => self.ssh.shard_stats(),
            _ => self.pop3.shard_stats(),
        };
        stats.get(local).is_some_and(|s| s.healthy)
    }

    fn storms(&self) -> u64 {
        (0..3)
            .filter_map(|front| self.restart_stats(front))
            .map(|stats| stats.storms)
            .sum()
    }

    fn kill_cache_node(&self, node: usize) {
        if let Some(node) = self.nodes.get(node) {
            node.kill();
        }
    }

    fn restart_cache_node(&self, node: usize) {
        if let Some(node) = self.nodes.get(node) {
            node.restart();
        }
    }

    fn flood(&self, source: usize, connections: u32) {
        // One hostile host hammers one listener as fast as it can. The
        // burst tokens admit a few dead links (dropped immediately, so
        // their serves fail fast on EOF); the emptied bucket then refuses
        // the rest before any link is built — that refusal count is the
        // rate limiter doing its job, visible as `listener.rate_limited`.
        let listener = &self.listeners[source % self.listeners.len()];
        let hostile = SourceAddr::new([66, 6, (source >> 8) as u8, source as u8], 50_000);
        for _ in 0..connections {
            drop(listener.connect(hostile));
        }
    }
}

/// Which front-end one arrival targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Protocol {
    Apache,
    Ssh,
    Pop3,
}

/// One precomputed open-loop arrival.
struct Arrival {
    phase: usize,
    host: usize,
    ordinal: usize,
    protocol: Protocol,
    due: Duration,
}

/// Precompute the whole arrival timeline: a pure function of the
/// profile (evenly spaced within each phase, hosts Zipf-drawn, protocol
/// weighted) — the open-loop half of the replay contract.
fn arrivals(profile: &LoadProfile) -> Vec<Arrival> {
    let mut rng = ChaosRng::new(profile.seed);
    let zipf = Zipf::new(profile.hosts.max(1), profile.zipf_exponent);
    let weights = [profile.mix.apache, profile.mix.ssh, profile.mix.pop3];
    let total_weight: u32 = weights.iter().sum::<u32>().max(1);
    let mut timeline = Vec::new();
    let mut phase_start = Duration::ZERO;
    let mut ordinal = 0usize;
    for (phase, spec) in profile.phases.iter().enumerate() {
        let n = spec.arrivals();
        let spacing = spec.duration / n as u32;
        for i in 0..n {
            let mut draw = rng.pick(total_weight as usize) as u32;
            let protocol = if draw < weights[0] {
                Protocol::Apache
            } else {
                draw -= weights[0];
                if draw < weights[1] {
                    Protocol::Ssh
                } else {
                    Protocol::Pop3
                }
            };
            timeline.push(Arrival {
                phase,
                host: zipf.sample(&mut rng),
                ordinal,
                protocol,
                due: phase_start + spacing * i as u32,
            });
            ordinal += 1;
        }
        phase_start += spec.duration;
    }
    timeline
}

/// Per-phase accumulators the workers write into.
struct PhaseTracker {
    latency: Histogram,
    completed: AtomicU64,
    errors: AtomicU64,
    resumed: AtomicU64,
    arrivals: AtomicU64,
}

impl PhaseTracker {
    fn new() -> PhaseTracker {
        PhaseTracker {
            latency: Histogram::new(),
            completed: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            resumed: AtomicU64::new(0),
            arrivals: AtomicU64::new(0),
        }
    }
}

/// What one phase did under load.
#[derive(Debug, Clone)]
pub struct PhaseReport {
    /// The phase's label.
    pub name: String,
    /// Offered arrivals/sec (what the schedule demanded).
    pub offered_cps: f64,
    /// Arrivals dispatched.
    pub arrivals: u64,
    /// Connections that completed their protocol script.
    pub completed: u64,
    /// Connections that failed anywhere (refused, reset, bad reply).
    pub errors: u64,
    /// Completed TLS connections that resumed (abbreviated handshake).
    pub resumed: u64,
    /// Completion latency measured from the **scheduled** arrival.
    pub latency: HistogramSummary,
    /// Completions/sec actually achieved over the phase's window.
    pub achieved_cps: f64,
}

/// Scheduler + supervisor counters for one front-end after the run.
#[derive(Debug, Clone)]
pub struct FrontReport {
    /// "apache" / "ssh" / "pop3".
    pub name: String,
    /// Front-end accounting (`submitted == completed + rejected`).
    pub sched: SchedStats,
    /// Supervisor counters (restarts, storms, abandoned shards).
    pub restarts: Option<RestartStats>,
    /// Accepted links whose serve resolved with an error (flood links,
    /// shed links) — still accounted, never dropped.
    pub serve_errors: u64,
}

/// Everything one load run produced.
#[derive(Debug, Clone)]
pub struct LoadRunReport {
    /// The profile seed (replays the arrival timeline).
    pub seed: u64,
    /// The chaos seed (replays the fault timeline).
    pub chaos_seed: u64,
    /// Wall time of the whole run.
    pub elapsed: Duration,
    /// Per-phase outcomes.
    pub phases: Vec<PhaseReport>,
    /// Every fault injected, at its scheduled offset.
    pub faults: Vec<ScheduledFault>,
    /// Per-front-end accounting.
    pub fronts: Vec<FrontReport>,
    /// Listener counters summed across the three accept loops.
    pub listener: ListenerStats,
    /// The Apache ring's resumption hit rate, if any lookups ran.
    pub resumption_hit_rate: Option<f64>,
    /// `FaultInjected` audit events the sink retained (one per fault).
    pub fault_events: usize,
    /// The final whole-stack telemetry snapshot.
    pub snapshot: TelemetrySnapshot,
}

impl LoadRunReport {
    /// Whether every front-end's books balance: each submitted link
    /// resolved into exactly one of completed / rejected.
    pub fn accounts_balance(&self) -> bool {
        self.fronts
            .iter()
            .all(|front| front.sched.submitted == front.sched.completed + front.sched.rejected)
    }

    /// Total completed connections across all phases.
    pub fn completed(&self) -> u64 {
        self.phases.iter().map(|p| p.completed).sum()
    }

    /// Total errored connections across all phases.
    pub fn errors(&self) -> u64 {
        self.phases.iter().map(|p| p.errors).sum()
    }

    /// How many injected faults carry the given [`wedge_chaos::Fault::name`].
    pub fn fault_count(&self, name: &str) -> usize {
        self.faults
            .iter()
            .filter(|entry| entry.fault.name() == name)
            .count()
    }
}

/// Run `profile`'s offered load against a fresh [`LoadStack`] while
/// injecting `schedule` (pass an empty schedule for a fault-free
/// baseline). Open-loop: arrivals fire on time regardless of how the
/// stack is coping, and latency counts from the scheduled arrival.
pub fn run_load(profile: &LoadProfile, schedule: &ChaosSchedule) -> LoadRunReport {
    let stack = Arc::new(LoadStack::spawn(profile));

    // Accept loops: one per front-end, drained until the listener closes.
    let batch = profile.accept_batch.max(1);
    let serve_apache = {
        let (stack, listener) = (stack.clone(), stack.listeners[APACHE].clone());
        std::thread::spawn(move || count_errors(stack.apache.serve_listener(&listener, batch)))
    };
    let serve_ssh = {
        let (stack, listener) = (stack.clone(), stack.listeners[SSH].clone());
        std::thread::spawn(move || count_errors(stack.ssh.serve_listener(&listener, batch)))
    };
    let serve_pop3 = {
        let (stack, listener) = (stack.clone(), stack.listeners[POP3].clone());
        std::thread::spawn(move || count_errors(stack.pop3.serve_listener(&listener, batch)))
    };

    let timeline = arrivals(profile);
    let trackers: Arc<Vec<PhaseTracker>> =
        Arc::new(profile.phases.iter().map(|_| PhaseTracker::new()).collect());
    // One persistent TLS client per host: resumption needs the client to
    // remember its session across reconnects, exactly like a browser.
    let tls_clients: Arc<Vec<Mutex<Option<TlsClient>>>> = Arc::new(
        (0..profile.hosts.max(1))
            .map(|_| Mutex::new(None))
            .collect(),
    );

    let started = Instant::now();
    let chaos = wedge_chaos::spawn(
        schedule.clone(),
        stack.clone() as Arc<dyn ChaosTarget>,
        stack.telemetry.clone(),
    );

    // Dispatcher: fires each arrival at its due time into the worker
    // queue. Workers block on the shared receiver; a slow stack backs up
    // the queue, not the clock.
    let (tx, rx) = mpsc::channel::<Arrival>();
    let rx = Arc::new(Mutex::new(rx));
    let workers: Vec<_> = (0..profile.workers.max(1))
        .map(|_| {
            let (rx, stack, trackers, tls_clients) = (
                rx.clone(),
                stack.clone(),
                trackers.clone(),
                tls_clients.clone(),
            );
            std::thread::spawn(move || {
                loop {
                    let job = { rx.lock().recv() };
                    let Ok(job) = job else { break };
                    let tracker = &trackers[job.phase];
                    tracker.arrivals.fetch_add(1, Ordering::Relaxed);
                    let due = started + job.due;
                    match drive(&stack, &tls_clients, &job) {
                        Ok(resumed) => {
                            tracker.completed.fetch_add(1, Ordering::Relaxed);
                            if resumed {
                                tracker.resumed.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        Err(()) => {
                            tracker.errors.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    // Latency from the *scheduled* arrival: dispatch lag
                    // and queueing under faults are part of the number.
                    tracker
                        .latency
                        .record_duration(Instant::now().saturating_duration_since(due));
                }
            })
        })
        .collect();
    for arrival in timeline {
        let due = started + arrival.due;
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        if tx.send(arrival).is_err() {
            break;
        }
    }
    drop(tx);
    for worker in workers {
        worker.join().expect("load worker");
    }
    let chaos_run: ChaosRun = chaos.join().expect("chaos injector");

    // Teardown: close the listeners, drain the accept loops, snapshot.
    for listener in &stack.listeners {
        listener.close();
    }
    let serve_errors = [
        serve_apache.join().expect("apache accept loop"),
        serve_ssh.join().expect("ssh accept loop"),
        serve_pop3.join().expect("pop3 accept loop"),
    ];
    let elapsed = started.elapsed();

    let phases = profile
        .phases
        .iter()
        .zip(trackers.iter())
        .map(|(spec, tracker)| {
            let completed = tracker.completed.load(Ordering::Relaxed);
            PhaseReport {
                name: spec.name.clone(),
                offered_cps: spec.offered_cps,
                arrivals: tracker.arrivals.load(Ordering::Relaxed),
                completed,
                errors: tracker.errors.load(Ordering::Relaxed),
                resumed: tracker.resumed.load(Ordering::Relaxed),
                latency: tracker.latency.summary(),
                achieved_cps: completed as f64 / spec.duration.as_secs_f64().max(f64::EPSILON),
            }
        })
        .collect();
    let fronts = (0..3)
        .map(|front| FrontReport {
            name: FRONT_NAMES[front].to_string(),
            sched: stack.sched_stats(front),
            restarts: stack.restart_stats(front),
            serve_errors: serve_errors[front],
        })
        .collect();
    let mut listener = ListenerStats::default();
    for l in &stack.listeners {
        listener += &l.stats();
    }
    let fault_events = stack
        .sink
        .events()
        .iter()
        .filter(|event| matches!(event, TelemetryEvent::FaultInjected { .. }))
        .count();
    LoadRunReport {
        seed: profile.seed,
        chaos_seed: schedule.seed,
        elapsed,
        phases,
        faults: chaos_run.injected,
        fronts,
        listener,
        resumption_hit_rate: stack.apache.resumption_hit_rate(),
        fault_events,
        snapshot: stack.telemetry.snapshot(),
    }
}

/// [`run_load`] with a schedule generated from `plan`.
pub fn run_load_with_plan(profile: &LoadProfile, plan: &ChaosPlan) -> LoadRunReport {
    run_load(profile, &ChaosSchedule::generate(plan))
}

fn count_errors<R>(outcomes: Vec<Result<R, WedgeError>>) -> u64 {
    outcomes.iter().filter(|o| o.is_err()).count() as u64
}

/// Drive one client connection through its protocol's front door.
fn drive(
    stack: &LoadStack,
    tls_clients: &[Mutex<Option<TlsClient>>],
    job: &Arrival,
) -> Result<bool, ()> {
    let source = SourceAddr::new(
        [11, 0, (job.host >> 8) as u8, job.host as u8],
        40_000 + (job.ordinal % 20_000) as u16,
    );
    match job.protocol {
        Protocol::Apache => {
            // Per-host client lock first: serializes a hot host's
            // reconnects so its session state is coherent, like a real
            // client would be.
            let mut slot = tls_clients[job.host].lock();
            let client = slot.get_or_insert_with(|| {
                TlsClient::new(
                    stack.apache.public_key(),
                    WedgeRng::from_seed(7_000 + job.host as u64),
                )
            });
            let link = stack.listeners[APACHE].connect(source).map_err(drop)?;
            let conn = client.connect(&link).map_err(drop)?;
            Ok(conn.resumed)
        }
        Protocol::Ssh => {
            let link = stack.listeners[SSH].connect(source).map_err(drop)?;
            let mut client = SshClient::new();
            client.connect(&link).map_err(drop)?;
            let (authed, _, _) = client
                .auth_password(&link, "alice", "correct horse battery")
                .map_err(drop)?;
            let _ = client.disconnect(&link);
            if authed {
                Ok(false)
            } else {
                Err(())
            }
        }
        Protocol::Pop3 => {
            let link = stack.listeners[POP3].connect(source).map_err(drop)?;
            let greeting = recv_ok(&link)?;
            if !greeting.starts_with(b"+OK") {
                return Err(());
            }
            for cmd in ["USER alice", "PASS wonderland", "STAT", "QUIT"] {
                link.send(cmd.as_bytes()).map_err(drop)?;
                if !recv_ok(&link)?.starts_with(b"+OK") {
                    return Err(());
                }
            }
            Ok(false)
        }
    }
}

fn recv_ok(link: &Duplex) -> Result<Vec<u8>, ()> {
    link.recv(RecvTimeout::After(Duration::from_secs(10)))
        .map_err(drop)
}

/// Outcome of the idle-link memory probe: the RSS ceiling of parking
/// accepted-but-silent connections on a readiness [`Reactor`] — the
/// deferred-accept path every front-end's `serve_listener` uses before a
/// link's first byte arrives — instead of giving each one a shard slot.
#[derive(Debug, Clone, Copy)]
pub struct IdleLinkProbe {
    /// Links parked on the reactor when the after-sample was taken.
    pub links: usize,
    /// `VmRSS` before any link was built (KiB).
    pub rss_before_kib: u64,
    /// `VmRSS` with every link parked (KiB).
    pub rss_after_kib: u64,
}

impl IdleLinkProbe {
    /// Memory ceiling one parked link costs (bytes; RSS-page granular,
    /// so small populations round up).
    pub fn per_link_bytes(&self) -> f64 {
        (self.rss_after_kib.saturating_sub(self.rss_before_kib) * 1024) as f64
            / self.links.max(1) as f64
    }
}

fn vm_rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Park `links` idle connections drawn from `profile`'s host population
/// on a deferred-accept front (listener + readiness reactor, exactly the
/// parking path of `serve_listener` before a first byte) and measure the
/// resident-memory ceiling. The clients never send, so every accepted
/// link stays parked — no shard slot, no serving thread — and the RSS
/// delta divided by the population is the per-parked-link cost recorded
/// in `BENCH_load.json`. Returns `None` where `/proc/self/status` is
/// unavailable (non-Linux).
pub fn probe_idle_link_memory(profile: &LoadProfile, links: usize) -> Option<IdleLinkProbe> {
    let rss_before = vm_rss_kib()?;
    let listener = Listener::bind("idle-probe", links.max(1) + 8);
    let reactor = Reactor::spawn("idle-probe");
    let mut clients = Vec::with_capacity(links);
    for i in 0..links {
        let host = i % profile.hosts.max(1);
        let source = SourceAddr::new(
            [12, 0, (host >> 8) as u8, host as u8],
            30_000 + (i % 20_000) as u16,
        );
        let client = listener.connect(source).ok()?;
        let parked = listener
            .accept(RecvTimeout::After(Duration::from_secs(5)))
            .ok()?;
        reactor.watch(parked, |_link| {});
        clients.push(client);
    }
    let parked = reactor.links();
    let rss_after = vm_rss_kib()?;
    reactor.shutdown();
    listener.close();
    drop(clients);
    Some(IdleLinkProbe {
        links: parked,
        rss_before_kib: rss_before,
        rss_after_kib: rss_after,
    })
}

/// The `BENCH_load.json` artifact: per-phase p50/p99/p999 +
/// connections/sec, the injected fault timeline, per-front accounting,
/// and (when the probe ran) the idle-link memory ceiling — emitted
/// through the shared [`crate::report`] writer.
pub fn load_bench_json(
    profile: &LoadProfile,
    report: &LoadRunReport,
    idle_links: Option<&IdleLinkProbe>,
) -> String {
    crate::report::bench_artifact("load", |w| {
        w.field_u64("seed", report.seed);
        w.field_u64("chaos_seed", report.chaos_seed);
        w.field_u64("hosts", profile.hosts as u64);
        w.field_u64("shards_per_front", profile.shards_per_front as u64);
        w.field_f64("elapsed_ms", crate::report::millis(report.elapsed));
        w.field_bool("accounts_balance", report.accounts_balance());
        w.nested("phases", |w| {
            for phase in &report.phases {
                w.nested(&phase.name, |w| {
                    w.field_f64("offered_cps", phase.offered_cps);
                    w.field_f64("achieved_cps", phase.achieved_cps);
                    w.field_u64("arrivals", phase.arrivals);
                    w.field_u64("completed", phase.completed);
                    w.field_u64("errors", phase.errors);
                    w.field_u64("resumed", phase.resumed);
                    w.field_u64("latency_p50_us", phase.latency.p50_nanos / 1_000);
                    w.field_u64("latency_p99_us", phase.latency.p99_nanos / 1_000);
                    w.field_u64("latency_p999_us", phase.latency.p999_nanos / 1_000);
                    w.field_u64("latency_max_us", phase.latency.max_nanos / 1_000);
                });
            }
        });
        w.nested("faults", |w| {
            for (idx, entry) in report.faults.iter().enumerate() {
                w.nested(&format!("f{idx}"), |w| {
                    w.field_str("fault", entry.fault.name());
                    w.field_u64("victim", entry.fault.victim() as u64);
                    w.field_u64("at_ms", entry.at.as_millis() as u64);
                });
            }
        });
        w.nested("fronts", |w| {
            for front in &report.fronts {
                w.nested(&front.name, |w| {
                    w.field_u64("submitted", front.sched.submitted);
                    w.field_u64("completed", front.sched.completed);
                    w.field_u64("rejected", front.sched.rejected);
                    w.field_u64("serve_errors", front.serve_errors);
                    if let Some(restarts) = &front.restarts {
                        w.field_u64("restarts", restarts.restarts);
                        w.field_u64("storms", restarts.storms);
                    }
                });
            }
        });
        w.nested("listener", |w| {
            w.field_u64("accepted", report.listener.accepted);
            w.field_u64("refused", report.listener.refused);
            w.field_u64("rate_limited", report.listener.rate_limited);
        });
        if let Some(rate) = report.resumption_hit_rate {
            w.field_f64("resumption_hit_rate", rate);
        }
        // Span-level latency breakdown: where a request's time went —
        // accept (backlog → accepted), queue (submit → dequeue), serve
        // (dequeue → done) and the remote cachenet slice — beside the
        // end-to-end percentiles above.
        w.nested("spans", |w| {
            for phase in ["accept", "queue", "serve", "handshake", "cachenet"] {
                if let Some(summary) = report.snapshot.histogram(&format!("trace.{phase}")) {
                    if summary.count == 0 {
                        continue;
                    }
                    w.nested(phase, |w| {
                        w.field_u64("count", summary.count);
                        w.field_u64("p50_us", summary.p50_nanos / 1_000);
                        w.field_u64("p99_us", summary.p99_nanos / 1_000);
                        w.field_u64("p999_us", summary.p999_nanos / 1_000);
                        w.field_u64("max_us", summary.max_nanos / 1_000);
                    });
                }
            }
        });
        w.field_u64("fault_events", report.fault_events as u64);
        if let Some(idle) = idle_links {
            w.nested("idle_links", |w| {
                w.field_u64("links", idle.links as u64);
                w.field_u64("rss_before_kib", idle.rss_before_kib);
                w.field_u64("rss_after_kib", idle.rss_after_kib);
                w.field_f64("per_link_bytes", idle.per_link_bytes());
            });
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use wedge_chaos::Fault;

    fn tiny_profile() -> LoadProfile {
        LoadProfile {
            hosts: 12,
            phases: vec![
                LoadPhase::new("warm", 30.0, Duration::from_millis(300)),
                LoadPhase::new("peak", 60.0, Duration::from_millis(300)),
            ],
            workers: 6,
            ..LoadProfile::default()
        }
    }

    #[test]
    fn arrival_timeline_is_deterministic_and_paced() {
        let profile = tiny_profile();
        let a = arrivals(&profile);
        let b = arrivals(&profile);
        assert_eq!(a.len(), b.len());
        assert_eq!(a.len(), 9 + 18, "offered rate times duration per phase");
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.host, y.host);
            assert_eq!(x.protocol, y.protocol);
            assert_eq!(x.due, y.due);
        }
        assert!(
            a.windows(2).all(|w| w[0].due <= w[1].due),
            "arrivals are time-ordered"
        );
        assert!(a.iter().any(|x| x.protocol == Protocol::Apache));
        assert!(a.iter().any(|x| x.protocol == Protocol::Ssh));
        assert!(a.iter().any(|x| x.protocol == Protocol::Pop3));
    }

    #[test]
    fn fault_free_load_completes_everything_and_resumes_hot_hosts() {
        let profile = tiny_profile();
        let report = run_load(&profile, &ChaosSchedule::explicit(0, Vec::new()));
        assert!(report.accounts_balance(), "books balance on every front");
        assert_eq!(report.errors(), 0, "no faults, no errors");
        assert_eq!(
            report.completed(),
            report.phases.iter().map(|p| p.arrivals).sum::<u64>()
        );
        assert!(report.faults.is_empty());
        assert_eq!(report.fault_events, 0);
        let resumed: u64 = report.phases.iter().map(|p| p.resumed).sum();
        assert!(
            resumed > 0,
            "Zipf-hot hosts reconnect and resume through the ring"
        );
        for phase in &report.phases {
            assert!(phase.latency.p999_nanos >= phase.latency.p99_nanos);
            assert!(phase.latency.p99_nanos >= phase.latency.p50_nanos);
            assert!(phase.achieved_cps > 0.0);
        }
        assert_eq!(report.listener.rate_limited, 0, "organic load never trips");
        let serve = report.snapshot.histogram("shard.serve").expect("serve");
        assert!(serve.count > 0);
    }

    /// The satellite gate: a hostile flood arrives mid-run while
    /// well-behaved open-loop traffic keeps flowing — the limiter
    /// refuses the flood, the organic phases stay clean and bounded.
    #[test]
    fn rate_limit_flood_under_open_loop_load_only_hurts_the_hostile_source() {
        let profile = tiny_profile();
        let schedule = ChaosSchedule::explicit(
            99,
            vec![ScheduledFault {
                at: Duration::from_millis(250),
                fault: Fault::Flood {
                    source: 1,
                    connections: 200,
                },
            }],
        );
        let report = run_load(&profile, &schedule);
        assert!(report.accounts_balance());
        assert_eq!(report.fault_count("flood"), 1);
        assert_eq!(report.fault_events, 1, "the flood is audited");
        assert!(
            report.listener.rate_limited > 100,
            "the bucket refuses most of the 200-connect burst: {:?}",
            report.listener
        );
        assert_eq!(report.errors(), 0, "no well-behaved connection fails");
        assert_eq!(
            report.completed(),
            report.phases.iter().map(|p| p.arrivals).sum::<u64>()
        );
        for phase in &report.phases {
            assert!(
                phase.latency.p99_nanos < Duration::from_secs(2).as_nanos() as u64,
                "well-behaved p99 stays bounded through the flood: {:?}",
                phase.latency
            );
        }
    }

    #[test]
    fn chaos_under_load_keeps_the_books_balanced() {
        let profile = LoadProfile {
            phases: vec![LoadPhase::new("steady", 50.0, Duration::from_millis(900))],
            ..tiny_profile()
        };
        let schedule = ChaosSchedule::explicit(
            7,
            vec![
                ScheduledFault {
                    at: Duration::from_millis(200),
                    fault: Fault::KillShard { shard: 0 },
                },
                ScheduledFault {
                    at: Duration::from_millis(350),
                    fault: Fault::CacheKill { node: 0 },
                },
                ScheduledFault {
                    at: Duration::from_millis(550),
                    fault: Fault::CacheRestart { node: 0 },
                },
            ],
        );
        let report = run_load(&profile, &schedule);
        assert!(report.accounts_balance(), "kills never leak a link");
        assert_eq!(report.faults.len(), 3);
        assert_eq!(report.fault_events, 3, "every fault audited");
        let apache = &report.fronts[APACHE];
        assert!(
            apache.restarts.as_ref().expect("supervised").restarts >= 1,
            "the supervisor revived the killed shard"
        );
        // The killed cache node bumped its epoch on restart.
        assert!(report.completed() > 0);
    }

    #[test]
    fn bench_json_is_well_formed() {
        let profile = LoadProfile {
            hosts: 8,
            phases: vec![LoadPhase::new("smoke", 25.0, Duration::from_millis(200))],
            ..tiny_profile()
        };
        let schedule = ChaosSchedule::explicit(
            3,
            vec![ScheduledFault {
                at: Duration::from_millis(100),
                fault: Fault::KillShard { shard: 2 },
            }],
        );
        let report = run_load(&profile, &schedule);
        let probe = IdleLinkProbe {
            links: 64,
            rss_before_kib: 10_000,
            rss_after_kib: 10_256,
        };
        let json = load_bench_json(&profile, &report, Some(&probe));
        for key in [
            "\"bench\":\"load\"",
            "\"phases\"",
            "\"smoke\"",
            "\"latency_p999_us\"",
            "\"achieved_cps\"",
            "\"faults\"",
            "\"kill_shard\"",
            "\"accounts_balance\":true",
            "\"fronts\"",
            "\"rate_limited\"",
            "\"idle_links\"",
            "\"per_link_bytes\":4096",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "balanced braces"
        );
    }

    #[test]
    fn idle_link_probe_parks_the_whole_population() {
        let profile = tiny_profile();
        let Some(probe) = probe_idle_link_memory(&profile, 128) else {
            // /proc/self/status unavailable (non-Linux): the probe is
            // allowed to opt out, and the artifact simply omits the
            // "idle_links" section.
            return;
        };
        assert_eq!(probe.links, 128, "every idle link parks on the reactor");
        assert!(probe.rss_before_kib > 0);
        assert!(probe.rss_after_kib >= probe.rss_before_kib);
        assert!(probe.per_link_bytes() >= 0.0);
    }
}
