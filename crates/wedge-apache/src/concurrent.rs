//! The sharded HTTPS front-end.
//!
//! A single [`WedgeApache`] instance owns per-connection tagged regions
//! (`session_state`, the current-link slot), so it can only drive one
//! connection at a time. [`ConcurrentApache`] lifts that limit by putting
//! N fully partitioned instances behind `wedge-sched`'s generic
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
    AcceptPolicy, FrontEndConfig, KillReport, ServeTally, ShardJobHandle, ShardServer, ShardStats,
    ShardedFrontEnd, SupervisorConfig,
};
use wedge_tls::{SessionStore, SharedSessionCache};

use crate::http::PageStore;
use crate::partitioned::{ApacheConfig, ConnectionReport, WedgeApache};

/// Configuration of the sharded front-end.
#[derive(Debug, Clone, Copy)]
pub struct ConcurrentApacheConfig {
    /// Shard workers to boot — each an independent kernel running one
    /// partitioned server instance.
    pub shards: usize,
    /// Bounded per-shard link-queue capacity.
    pub queue_capacity: usize,
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

/// N partitioned HTTPS shards behind the shared front-end,
/// sharing only the session-lookup service.
pub struct ConcurrentApache {
    front: ShardedFrontEnd<WedgeApache>,
    store: Arc<dyn SessionStore>,
    public_key: RsaPublicKey,
}

impl ConcurrentApache {
    /// Boot `config.shards` shard workers, each booting a partitioned
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

    /// Per-shard snapshots (health, boot cost, restarts, depth, kernel).
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.front.shard_stats()
    }

    /// Kernel counters summed across every shard.
    pub fn kernel_stats(&self) -> KernelStats {
        self.front.kernel_stats()
    }

    /// Register the whole front-end on `telemetry` (see
    /// [`ShardedFrontEnd::instrument`]): scheduler counters, the
    /// `shard.serve` latency histogram, the full-vs-abbreviated TLS
    /// handshake mix, every shard kernel's counters and the session
    /// store's resumption health.
    pub fn instrument(&self, telemetry: &wedge_telemetry::Telemetry) {
        self.front.instrument(telemetry);
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
    /// accepted connection with source-address affinity, and count the
    /// outcomes (see [`ShardedFrontEnd::serve_listener`]).
    pub fn serve_listener(&self, listener: &Listener, batch: usize) -> ServeTally {
        self.front.serve_listener(listener, batch)
    }

    /// The accept loop reporting each connection's outcome with its
    /// arrival index (see [`ShardedFrontEnd::serve_listener_with`]).
    pub fn serve_listener_with(
        &self,
        listener: &Listener,
        batch: usize,
        on_outcome: impl FnMut(usize, Result<ConnectionReport, WedgeError>),
    ) {
        self.front.serve_listener_with(listener, batch, on_outcome)
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

        let snapshot = telemetry.snapshot();
        assert_eq!(snapshot.counter("sched.submitted"), 12);
        assert_eq!(snapshot.counter("sched.completed"), 12);
        assert_eq!(snapshot.counter("sched.rejected"), 0);

        // Round-robin spreads the batch over every shard.
        let used: std::collections::HashSet<usize> = reports.iter().map(|r| r.shard).collect();
        assert_eq!(used.len(), 4, "all four shards must serve");

        // Each connection runs the two-phase §5.1.2 partitioning, summed
        // over the independent shard kernels: 24 sthread bodies ran, on the
        // two recycled sthreads each shard created for its first connection.
        let kernel = server.kernel_stats();
        assert_eq!(kernel.sthreads_created, 8);
        assert_eq!(snapshot.counter("kernel.sthreads"), 8);
        assert_eq!(snapshot.counter("kernel.sthreads.recycled_runs"), 24);
        assert!(kernel.recycled_invocations > 0, "shards run recycled gates");
        assert_eq!(
            snapshot.counter("kernel.allocs"),
            kernel.smallocs + kernel.private_allocs
        );

        // Per-shard snapshots sum back to the totals.
        let shards = server.shard_stats();
        for stats in &shards {
            assert!(stats.boot_cost > Duration::ZERO, "boot cost measured");
            assert!(stats.healthy);
        }
        let slowest = shards.iter().map(|s| s.boot_cost).max();
        assert_eq!(
            Some(Duration::from_nanos(snapshot.counter("shard.boot_ns"))),
            slowest
        );
        let created: u64 = shards.iter().map(|s| s.kernel.sthreads_created).sum();
        assert_eq!(created, 8);
        assert_eq!(snapshot.counter("shard.healthy"), 4);
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
                ..ConcurrentApacheConfig::default()
            },
        )
        .unwrap();
        let telemetry = wedge_telemetry::Telemetry::new();
        server.instrument(&telemetry);
        // The first connection handshakes and then holds the only shard
        // until released; the second fills the one queue slot.
        let (held_client, held_server) = duplex_pair("held-client", "held-server");
        let (handshaken_tx, handshaken) = std::sync::mpsc::channel();
        let (release, released) = std::sync::mpsc::channel::<()>();
        let public_key = server.public_key();
        let holder = std::thread::spawn(move || {
            let mut client = TlsClient::new(public_key, WedgeRng::from_seed(44));
            let mut conn = client.connect(&held_client).expect("handshake");
            handshaken_tx.send(()).unwrap();
            released.recv().unwrap();
            conn.send(&held_client, b"GET /index.html HTTP/1.0\r\n\r\n")
                .expect("send");
            assert!(conn
                .recv(&held_client)
                .expect("response")
                .starts_with(b"HTTP/1.0 200 OK"));
        });
        let held = server.serve(held_server).unwrap();
        handshaken.recv().unwrap();
        let (queued_client, queued_server) = duplex_pair("queued-client", "queued-server");
        let queued = server.serve(queued_server).unwrap();
        let (_c3, s3) = duplex_pair("c3", "s3");
        let err = server.serve(s3).unwrap_err();
        assert!(matches!(err, WedgeError::ResourceExhausted { .. }));
        assert_eq!(telemetry.snapshot().counter("sched.rejected"), 1);
        release.send(()).unwrap();
        holder.join().expect("holder");
        drop(queued_client);
        assert!(held.join().unwrap().handshake_ok);
        assert!(!queued.join().unwrap().handshake_ok);
        let snapshot = telemetry.snapshot();
        assert_eq!(
            snapshot.counter("sched.submitted"),
            snapshot.counter("sched.completed") + snapshot.counter("sched.rejected")
        );
    }
}
