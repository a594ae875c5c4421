//! The sharded HTTPS front-end.
//!
//! A single [`WedgeApache`] instance owns per-connection tagged regions
//! (`session_state`, the current-link slot), so it can only drive one
//! connection at a time. [`ConcurrentApache`] lifts that limit by putting
//! N forked, fully partitioned instances behind `wedge-sched`'s generic
//! [`ShardedFrontEnd`] — the shared serving stack (acceptor placement,
//! per-shard health/backpressure, optional supervisor auto-restart,
//! listener accept loop) lives there; this module only adds what is
//! HTTPS-specific: the shared certificate keypair, the page store, and
//! the cross-shard TLS session cache.
//!
//! What crosses shard boundaries is exactly one thing: the
//! [`SharedSessionCache`], a confined lookup service every shard's key
//! callgates consult through a narrow insert/lookup API. A TLS client that
//! handshakes on shard A and resumes on shard B still gets the abbreviated
//! handshake, because the premaster shard A cached is visible to shard B's
//! `begin_handshake` gate. No tagged memory is shared across shard
//! kernels: each shard still enforces the full §5.1.2 partitioning inside
//! its own kernel, so a compromised shard can at most replay cache lookups
//! — it cannot walk a sibling's address space.

use std::sync::Arc;
use std::time::Duration;

use wedge_core::{KernelStats, Wedge, WedgeError};
use wedge_crypto::{RsaKeyPair, RsaPublicKey};
use wedge_net::{Duplex, Listener};
use wedge_sched::{
    AcceptPolicy, FrontEndConfig, KillReport, RestartStats, SchedStats, ShardJobHandle,
    ShardServer, ShardStats, ShardedFrontEnd, SupervisorConfig,
};
use wedge_tls::{SessionStore, SharedSessionCache};

use crate::http::PageStore;
use crate::partitioned::{ApacheConfig, ConnectionReport, WedgeApache};

/// Configuration of the sharded front-end.
#[derive(Debug, Clone, Copy)]
pub struct ConcurrentApacheConfig {
    /// Shard workers to fork — each an independent kernel running one
    /// partitioned server instance.
    pub shards: usize,
    /// Bounded per-shard link-queue capacity.
    pub queue_capacity: usize,
    /// Per-shard admission limit on in-flight connections (`None`: only
    /// the bounded queues push back).
    pub max_inflight: Option<u64>,
    /// Run each shard's callgates and sthreads in recycled mode (the
    /// Table 2 fast path; the default for the sharded front-end).
    pub recycled: bool,
    /// How the acceptor places links on shards.
    pub policy: AcceptPolicy,
    /// Enable the shard watchdog (auto-restart of killed shards).
    pub supervisor: Option<SupervisorConfig>,
}

impl Default for ConcurrentApacheConfig {
    fn default() -> Self {
        ConcurrentApacheConfig {
            shards: 4,
            queue_capacity: 64,
            max_inflight: None,
            recycled: true,
            policy: AcceptPolicy::RoundRobin,
            supervisor: None,
        }
    }
}

impl ShardServer for WedgeApache {
    type Report = ConnectionReport;

    fn serve_link(&self, shard: usize, link: Duplex) -> Result<ConnectionReport, WedgeError> {
        self.serve_connection(link).map(|mut report| {
            report.shard = shard;
            report
        })
    }

    fn kernel_stats(&self) -> KernelStats {
        self.wedge().kernel().stats()
    }

    fn handshake_kind(report: &ConnectionReport) -> Option<wedge_telemetry::HandshakeKind> {
        report.handshake_ok.then_some(if report.resumed {
            wedge_telemetry::HandshakeKind::Abbreviated
        } else {
            wedge_telemetry::HandshakeKind::Full
        })
    }

    fn instrument(&self, telemetry: &wedge_telemetry::Telemetry) {
        self.wedge().kernel().instrument(telemetry);
    }
}

/// N forked, partitioned HTTPS shards behind the shared front-end,
/// sharing only the session-lookup service.
pub struct ConcurrentApache {
    front: ShardedFrontEnd<WedgeApache>,
    store: Arc<dyn SessionStore>,
    public_key: RsaPublicKey,
}

impl ConcurrentApache {
    /// Fork `config.shards` shard workers, each booting a partitioned
    /// instance sharing `keypair` and `pages` — and one fresh
    /// [`SharedSessionCache`] — plus the acceptor that distributes
    /// connections over them (and the supervisor, when configured).
    pub fn new(
        keypair: RsaKeyPair,
        pages: PageStore,
        config: ConcurrentApacheConfig,
    ) -> Result<ConcurrentApache, WedgeError> {
        ConcurrentApache::with_session_store(
            keypair,
            pages,
            config,
            Arc::new(SharedSessionCache::new()),
        )
    }

    /// [`ConcurrentApache::new`] with an explicit session-lookup service:
    /// pass a `wedge_cachenet::CacheRing` and this front-end becomes one
    /// "machine" of a cross-machine serving fleet — a TLS session
    /// established through any machine on the same ring resumes here with
    /// the abbreviated handshake, because every shard's key callgates
    /// consult the ring instead of a process-local cache.
    pub fn with_session_store(
        keypair: RsaKeyPair,
        pages: PageStore,
        config: ConcurrentApacheConfig,
        store: Arc<dyn SessionStore>,
    ) -> Result<ConcurrentApache, WedgeError> {
        let factory_store = store.clone();
        let apache_config = ApacheConfig {
            recycled: config.recycled,
        };
        let front = ShardedFrontEnd::with_session_store(
            FrontEndConfig {
                shards: config.shards,
                queue_capacity: config.queue_capacity,
                max_inflight: config.max_inflight,
                policy: config.policy,
                supervisor: config.supervisor,
                ..FrontEndConfig::default()
            },
            store.clone(),
            move |_shard| {
                WedgeApache::with_session_store(
                    Wedge::init(),
                    keypair,
                    pages.clone(),
                    apache_config,
                    factory_store.clone(),
                )
            },
        )?;
        Ok(ConcurrentApache {
            front,
            store,
            public_key: keypair.public,
        })
    }

    /// The shared certificate public key clients pin.
    pub fn public_key(&self) -> RsaPublicKey {
        self.public_key
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.front.shards()
    }

    /// The session-lookup service every shard consults — the cross-shard
    /// shared cache, or the cross-machine ring when configured with one
    /// (its `stats`/`hit_rate` expose resumption health either way).
    pub fn session_cache(&self) -> &Arc<dyn SessionStore> {
        &self.store
    }

    /// Resumption health as the generic front-end reports it (`None`
    /// until the store serves its first lookup).
    pub fn resumption_hit_rate(&self) -> Option<f64> {
        self.front.resumption_hit_rate()
    }

    /// Front-end counters (see [`ShardedFrontEnd::sched_stats`]).
    pub fn sched_stats(&self) -> SchedStats {
        self.front.sched_stats()
    }

    /// Per-shard snapshots (health, boot cost, restarts, depth, counters,
    /// kernel).
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.front.shard_stats()
    }

    /// Kernel counters summed across every shard.
    pub fn kernel_stats(&self) -> KernelStats {
        self.front.kernel_stats()
    }

    /// The supervisor's restart counters (`None` when unsupervised).
    pub fn restart_stats(&self) -> Option<RestartStats> {
        self.front.restart_stats()
    }

    /// Register the whole front-end on `telemetry` (see
    /// [`ShardedFrontEnd::instrument`]): scheduler counters, the
    /// `shard.serve` latency histogram, the full-vs-abbreviated TLS
    /// handshake mix, every shard kernel's counters and the session
    /// store's resumption health.
    pub fn instrument(&self, telemetry: &wedge_telemetry::Telemetry) {
        self.front.instrument(telemetry);
    }

    /// One aggregated metric snapshot (`None` until
    /// [`ConcurrentApache::instrument`] is called).
    pub fn telemetry_snapshot(&self) -> Option<wedge_telemetry::TelemetrySnapshot> {
        self.front.telemetry_snapshot()
    }

    /// Kill shard `idx` (fault injection): queued links are re-routed to
    /// healthy shards; the link it is serving right now finishes; a
    /// configured supervisor respawns the shard.
    pub fn kill_shard(&self, idx: usize) -> KillReport {
        self.front.kill_shard(idx)
    }

    /// Manually revive killed shard `idx` (fresh kernel, old ring index).
    pub fn restart_shard(&self, idx: usize) -> Result<Duration, WedgeError> {
        self.front.restart_shard(idx)
    }

    /// Block until shard `idx` is healthy again (supervised restarts are
    /// asynchronous), up to `timeout`.
    pub fn await_healthy(&self, idx: usize, timeout: Duration) -> bool {
        self.front.await_healthy(idx, timeout)
    }

    /// Submit one connection for service on whichever shard the acceptor
    /// picks. The returned handle resolves to the connection report, whose
    /// `shard` field names the shard that actually served it.
    ///
    /// Fails with [`WedgeError::ResourceExhausted`] only when **every**
    /// shard rejects the link — the caller sheds the connection instead of
    /// queuing it unboundedly.
    pub fn serve(&self, link: Duplex) -> Result<ShardJobHandle<ConnectionReport>, WedgeError> {
        self.front.serve(link)
    }

    /// [`ConcurrentApache::serve`] with an explicit affinity key (used by
    /// [`wedge_sched::AcceptPolicy::SessionAffinity`]; ignored by the
    /// other policies). Links accepted through a [`Listener`] already
    /// carry a source-address key — this override is for callers with
    /// richer identity.
    pub fn serve_with_key(
        &self,
        link: Duplex,
        key: u64,
    ) -> Result<ShardJobHandle<ConnectionReport>, WedgeError> {
        self.front.serve_with_key(link, key)
    }

    /// Serve every link and return the outcomes **in link order** (see
    /// [`ShardedFrontEnd::serve_all`]).
    pub fn serve_all(&self, links: Vec<Duplex>) -> Vec<Result<ConnectionReport, WedgeError>> {
        self.front.serve_all(links)
    }

    /// Run the accept loop over `listener` until it closes, serving every
    /// accepted connection with source-address affinity (see
    /// [`ShardedFrontEnd::serve_listener`]).
    pub fn serve_listener(
        &self,
        listener: &Listener,
        batch: usize,
    ) -> Vec<Result<ConnectionReport, WedgeError>> {
        self.front.serve_listener(listener, batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wedge_crypto::WedgeRng;
    use wedge_net::duplex_pair;
    use wedge_tls::TlsClient;

    fn run_connections(server: &ConcurrentApache, count: usize) -> Vec<ConnectionReport> {
        let mut client_links = Vec::new();
        let mut server_links = Vec::new();
        for i in 0..count {
            let (c, s) = duplex_pair(&format!("client-{i}"), &format!("server-{i}"));
            client_links.push(c);
            server_links.push(s);
        }
        let public_key = server.public_key();
        let clients: Vec<_> = client_links
            .into_iter()
            .enumerate()
            .map(|(i, link)| {
                std::thread::spawn(move || {
                    let mut client =
                        TlsClient::new(public_key, WedgeRng::from_seed(100 + i as u64));
                    let mut conn = client.connect(&link).expect("handshake");
                    conn.send(&link, b"GET /index.html HTTP/1.0\r\n\r\n")
                        .expect("send");
                    let response = conn.recv(&link).expect("response");
                    assert!(response.starts_with(b"HTTP/1.0 200 OK"));
                })
            })
            .collect();
        let reports: Vec<_> = server
            .serve_all(server_links)
            .into_iter()
            .map(|r| r.expect("connection served"))
            .collect();
        for client in clients {
            client.join().expect("client thread");
        }
        reports
    }

    #[test]
    fn shards_serve_many_simultaneous_connections() {
        let keypair = RsaKeyPair::generate(&mut WedgeRng::from_seed(41));
        let server = ConcurrentApache::new(
            keypair,
            PageStore::sample(),
            ConcurrentApacheConfig {
                shards: 4,
                ..ConcurrentApacheConfig::default()
            },
        )
        .unwrap();
        let telemetry = wedge_telemetry::Telemetry::new();
        server.instrument(&telemetry);
        let reports = run_connections(&server, 12);
        assert_eq!(reports.len(), 12);
        assert!(reports.iter().all(|r| r.handshake_ok && r.requests == 1));

        let sched = server.sched_stats();
        assert_eq!(sched.submitted, 12);
        assert_eq!(sched.completed, 12);
        assert_eq!(sched.rejected, 0);

        // Round-robin spreads the batch over every shard.
        let used: std::collections::HashSet<usize> = reports.iter().map(|r| r.shard).collect();
        assert_eq!(used.len(), 4, "all four shards must serve");

        // Each connection runs the two-phase §5.1.2 partitioning, summed
        // over the independent shard kernels: 24 sthread bodies ran, on the
        // two recycled sthreads each shard created for its first connection.
        let kernel = server.kernel_stats();
        assert_eq!(kernel.sthreads_created, 8);
        let runs = telemetry
            .snapshot()
            .counter("kernel.sthreads.recycled_runs");
        assert_eq!(runs, 24);
        assert!(kernel.recycled_invocations > 0, "shards run recycled gates");

        // Per-shard snapshots aggregate (AddAssign) back to the totals.
        let mut total = wedge_sched::ShardStats::default();
        for stats in server.shard_stats() {
            assert!(
                stats.boot_cost > std::time::Duration::ZERO,
                "fork cost charged"
            );
            total += &stats;
        }
        assert_eq!(total.sched.completed, 12);
        assert_eq!(total.kernel.sthreads_created, 8);
        assert!(total.healthy, "all shards healthy aggregates to healthy");
    }

    #[test]
    fn admission_limit_rejects_direct_serves_when_all_shards_full() {
        let keypair = RsaKeyPair::generate(&mut WedgeRng::from_seed(43));
        let server = ConcurrentApache::new(
            keypair,
            PageStore::sample(),
            ConcurrentApacheConfig {
                shards: 1,
                queue_capacity: 1,
                max_inflight: Some(1),
                ..ConcurrentApacheConfig::default()
            },
        )
        .unwrap();
        // One connection whose client never speaks occupies the only shard
        // until its handshake times out.
        let (_idle_client, idle_server) = duplex_pair("idle-client", "idle-server");
        let _busy = server.serve(idle_server).unwrap();
        let (_c2, s2) = duplex_pair("c2", "s2");
        let err = server.serve(s2).unwrap_err();
        assert!(matches!(err, WedgeError::ResourceExhausted { .. }));
        assert_eq!(server.sched_stats().rejected, 1);
    }
}
