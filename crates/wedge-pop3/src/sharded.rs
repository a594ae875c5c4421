//! The sharded POP3 front-end — Figure 1's server, finally at scale.
//!
//! The POP3 server is the paper's motivating example, but until now the
//! reproduction only ever drove it one connection at a time while Apache
//! and sshd got sharded front-ends of their own. With the serving stack
//! unified in `wedge-sched`, bringing POP3 up to the same scale is what
//! it should always have been: a [`ShardServer`] impl (serve one link,
//! stamp the shard) and a thin config wrapper. Everything else —
//! placement, per-shard health and backpressure, kill-time re-routing,
//! supervisor auto-restart, the listener accept loop with source-address
//! affinity — comes from [`ShardedFrontEnd`].
//!
//! Each shard boots its own [`Pop3Server`] over an independent simulated
//! kernel: password database, mail store and per-connection `uid` cells
//! all live in that shard's tagged memory, so the §2 isolation story (an
//! exploited client handler can neither read credentials nor skip
//! authentication) holds per shard exactly as it does sequentially.

use std::time::Duration;

use wedge_core::{KernelStats, Wedge, WedgeError};
use wedge_net::{Duplex, Listener};
use wedge_sched::{
    AcceptPolicy, FrontEndConfig, KillReport, RestartStats, SchedStats, ShardJobHandle,
    ShardServer, ShardStats, ShardedFrontEnd, SupervisorConfig,
};

use crate::maildb::MailDb;
use crate::server::{Pop3Server, Pop3Stats};

/// Per-connection report of the sharded front-end: the session's counters
/// plus the shard that served it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Pop3Report {
    /// The shard whose server drove the connection.
    pub shard: usize,
    /// The connection's command/login/retrieval counters.
    pub stats: Pop3Stats,
}

impl ShardServer for Pop3Server {
    type Report = Pop3Report;

    fn serve_link(&self, shard: usize, link: Duplex) -> Result<Pop3Report, WedgeError> {
        let stats = self.serve_connection(link)?.join()??;
        Ok(Pop3Report { shard, stats })
    }

    fn kernel_stats(&self) -> KernelStats {
        self.wedge().kernel().stats()
    }

    fn instrument(&self, telemetry: &wedge_telemetry::Telemetry) {
        self.wedge().kernel().instrument(telemetry);
    }
}

/// Configuration of the sharded POP3 front-end.
#[derive(Debug, Clone, Copy)]
pub struct ShardedPop3Config {
    /// Shard workers to fork — each an independent kernel running one
    /// partitioned server.
    pub shards: usize,
    /// Bounded per-shard link-queue capacity.
    pub queue_capacity: usize,
    /// Per-shard admission limit on in-flight connections.
    pub max_inflight: Option<u64>,
    /// How the acceptor places links on shards.
    pub policy: AcceptPolicy,
    /// Enable the shard watchdog (auto-restart of killed shards).
    pub supervisor: Option<SupervisorConfig>,
}

impl Default for ShardedPop3Config {
    fn default() -> Self {
        ShardedPop3Config {
            shards: 4,
            queue_capacity: 64,
            max_inflight: None,
            policy: AcceptPolicy::RoundRobin,
            supervisor: None,
        }
    }
}

/// N forked, partitioned POP3 shards behind the shared front-end.
pub struct ShardedPop3 {
    front: ShardedFrontEnd<Pop3Server>,
}

impl ShardedPop3 {
    /// Fork `config.shards` shards, each booting a partitioned
    /// [`Pop3Server`] over `db` (every shard gets its own copy inside its
    /// own kernel), plus the acceptor (and the supervisor, when
    /// configured).
    pub fn new(db: &MailDb, config: ShardedPop3Config) -> Result<ShardedPop3, WedgeError> {
        let db = db.clone();
        let front = ShardedFrontEnd::new(
            FrontEndConfig {
                shards: config.shards,
                queue_capacity: config.queue_capacity,
                max_inflight: config.max_inflight,
                policy: config.policy,
                supervisor: config.supervisor,
                // POP3 is server-speaks-first (the `+OK` greeting goes
                // out unprompted), so a link parked until the client's
                // first byte would deadlock: greeting waits for shard,
                // client waits for greeting. Submit on accept instead.
                defer_accept: false,
                ..FrontEndConfig::default()
            },
            move |_shard| Pop3Server::new(Wedge::init(), &db),
        )?;
        Ok(ShardedPop3 { front })
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.front.shards()
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
    /// [`ShardedFrontEnd::instrument`]).
    pub fn instrument(&self, telemetry: &wedge_telemetry::Telemetry) {
        self.front.instrument(telemetry);
    }

    /// One aggregated metric snapshot (`None` until
    /// [`ShardedPop3::instrument`] is called).
    pub fn telemetry_snapshot(&self) -> Option<wedge_telemetry::TelemetrySnapshot> {
        self.front.telemetry_snapshot()
    }

    /// Kill shard `idx` (fault injection): queued links re-route to
    /// healthy shards; a configured supervisor respawns the shard.
    pub fn kill_shard(&self, idx: usize) -> KillReport {
        self.front.kill_shard(idx)
    }

    /// Manually revive killed shard `idx`.
    pub fn restart_shard(&self, idx: usize) -> Result<Duration, WedgeError> {
        self.front.restart_shard(idx)
    }

    /// Block until shard `idx` is healthy again, up to `timeout`.
    pub fn await_healthy(&self, idx: usize, timeout: Duration) -> bool {
        self.front.await_healthy(idx, timeout)
    }

    /// Submit one connection; the handle resolves to the
    /// [`Pop3Report`], whose `shard` field names the serving shard.
    pub fn serve(&self, link: Duplex) -> Result<ShardJobHandle<Pop3Report>, WedgeError> {
        self.front.serve(link)
    }

    /// [`ShardedPop3::serve`] with an explicit affinity key.
    pub fn serve_with_key(
        &self,
        link: Duplex,
        key: u64,
    ) -> Result<ShardJobHandle<Pop3Report>, WedgeError> {
        self.front.serve_with_key(link, key)
    }

    /// Serve every link and return the outcomes **in link order**.
    pub fn serve_all(&self, links: Vec<Duplex>) -> Vec<Result<Pop3Report, WedgeError>> {
        self.front.serve_all(links)
    }

    /// Run the accept loop over `listener` until it closes, serving every
    /// accepted connection with source-address affinity (see
    /// [`ShardedFrontEnd::serve_listener`]).
    pub fn serve_listener(
        &self,
        listener: &Listener,
        batch: usize,
    ) -> Vec<Result<Pop3Report, WedgeError>> {
        self.front.serve_listener(listener, batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wedge_net::{duplex_pair, RecvTimeout, SourceAddr};

    fn send_cmd(client: &Duplex, cmd: &str) -> String {
        client.send(cmd.as_bytes()).unwrap();
        String::from_utf8_lossy(
            &client
                .recv(RecvTimeout::After(Duration::from_secs(5)))
                .unwrap(),
        )
        .to_string()
    }

    fn run_session(client: &Duplex, user: &str, pass: &str) {
        let greeting = client
            .recv(RecvTimeout::After(Duration::from_secs(5)))
            .unwrap();
        assert!(greeting.starts_with(b"+OK"));
        assert!(send_cmd(client, &format!("USER {user}")).starts_with("+OK"));
        assert!(send_cmd(client, &format!("PASS {pass}")).starts_with("+OK"));
        assert!(send_cmd(client, "STAT").starts_with("+OK"));
        assert!(send_cmd(client, "QUIT").starts_with("+OK"));
    }

    #[test]
    fn shards_serve_simultaneous_sessions_with_attribution() {
        let server = ShardedPop3::new(
            &MailDb::sample(),
            ShardedPop3Config {
                shards: 3,
                ..ShardedPop3Config::default()
            },
        )
        .unwrap();
        let connections = 9;
        let mut clients = Vec::new();
        let mut server_links = Vec::new();
        for i in 0..connections {
            let (client_link, server_link) = duplex_pair(&format!("c{i}"), &format!("s{i}"));
            server_links.push(server_link);
            clients.push(std::thread::spawn(move || {
                run_session(&client_link, "alice", "wonderland");
            }));
        }
        let reports = server.serve_all(server_links);
        for client in clients {
            client.join().expect("client thread");
        }
        let mut shards_used = std::collections::HashSet::new();
        for report in reports {
            let report = report.expect("session served");
            assert!(report.stats.logged_in, "every session logs in");
            shards_used.insert(report.shard);
        }
        assert_eq!(shards_used.len(), 3, "round-robin uses every shard");
        let sched = server.sched_stats();
        assert_eq!(sched.submitted, connections as u64);
        assert_eq!(sched.completed, connections as u64);
        // One client-handler sthread per connection across the shard
        // kernels.
        assert_eq!(server.kernel_stats().sthreads_created, connections as u64);
    }

    /// A shard's `uid` segment holds 2,048 cells: a cell leaked per
    /// connection fails every connection after the 2,048th with an
    /// out-of-memory `Alloc` error.
    #[test]
    fn one_shard_soaks_five_thousand_connections() {
        let server = ShardedPop3::new(
            &MailDb::sample(),
            ShardedPop3Config {
                shards: 1,
                ..ShardedPop3Config::default()
            },
        )
        .unwrap();
        for n in 0..5_000 {
            let (client, server_link) = duplex_pair("soak-client", "soak-server");
            let handle = server.serve(server_link).unwrap();
            let greeting = client.recv(RecvTimeout::After(Duration::from_secs(5)));
            assert!(
                greeting.is_ok_and(|greeting| greeting.starts_with(b"+OK")),
                "connection {n} got no greeting"
            );
            assert!(send_cmd(&client, "QUIT").starts_with("+OK"));
            assert!(handle.join().is_ok(), "connection {n} failed");
        }
        let sched = server.sched_stats();
        assert_eq!(sched.completed, 5_000);
        assert_eq!(sched.submitted, sched.completed + sched.rejected);
    }

    #[test]
    fn listener_affinity_pins_a_host_to_one_shard() {
        let server = ShardedPop3::new(
            &MailDb::sample(),
            ShardedPop3Config {
                shards: 4,
                policy: AcceptPolicy::SessionAffinity,
                ..ShardedPop3Config::default()
            },
        )
        .unwrap();
        let listener = Listener::bind("pop3", 16);
        let mut clients = Vec::new();
        for port in 0..4u16 {
            let link = listener
                .connect(SourceAddr::new([192, 168, 7, 7], 50_000 + port))
                .expect("connect");
            clients.push(std::thread::spawn(move || {
                run_session(&link, "bob", "builder");
            }));
        }
        listener.close();
        let reports = server.serve_listener(&listener, 4);
        for client in clients {
            client.join().expect("client thread");
        }
        let shards: Vec<usize> = reports
            .into_iter()
            .map(|r| r.expect("served").shard)
            .collect();
        assert_eq!(shards.len(), 4);
        assert!(
            shards.windows(2).all(|w| w[0] == w[1]),
            "one host must stick to one shard: {shards:?}"
        );
    }

    #[test]
    fn isolation_holds_per_shard() {
        // The §2 exploit story, via the front-end: a wrong password on one
        // shard neither logs in nor leaks another shard's state.
        let server = ShardedPop3::new(
            &MailDb::sample(),
            ShardedPop3Config {
                shards: 2,
                ..ShardedPop3Config::default()
            },
        )
        .unwrap();
        let (client_link, server_link) = duplex_pair("evil", "s");
        let handle = server.serve(server_link).unwrap();
        let greeting = client_link
            .recv(RecvTimeout::After(Duration::from_secs(5)))
            .unwrap();
        assert!(greeting.starts_with(b"+OK"));
        assert!(send_cmd(&client_link, "USER alice").starts_with("+OK"));
        assert!(send_cmd(&client_link, "PASS wrong").starts_with("-ERR"));
        assert!(send_cmd(&client_link, "RETR 1").starts_with("-ERR not authenticated"));
        send_cmd(&client_link, "QUIT");
        let report = handle.join().expect("session");
        assert!(!report.stats.logged_in);
        assert_eq!(report.stats.retrieved, 0);
    }
}
