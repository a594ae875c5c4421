//! Sharded privilege-separated monitors.
//!
//! In privilege-separated OpenSSH the *monitor* is the privileged process
//! that holds the credential stores and answers the slave's authentication
//! requests; in the Wedge partitioning that role is played by the auth
//! callgates of a [`WedgeSsh`] instance. One instance already serves
//! overlapping connections: each runs on its own worker sthread, and an auth
//! gate escalates only the worker the kernel names as its invoker. What a
//! pool adds is kernel isolation and supervision.
//!
//! [`PooledWedgeSsh`] boots N fully partitioned monitor shards (all
//! sharing one host keypair and auth database) behind `wedge-sched`'s
//! generic [`ShardedFrontEnd`]: each shard builds its own monitor over an
//! independent simulated kernel, once at boot, and the shared serving
//! stack supplies acceptor placement, per-shard health and bounded-queue
//! backpressure, the listener accept loop, and — when
//! configured — supervisor auto-restart of killed monitors. Each
//! monitor's isolation story — credential stores in tagged memory
//! reachable only by their gate, dummy-passwd responses, uid escalation
//! only through successful authentication — is exactly that of a single
//! server.
//!
//! Exactly one piece of state deliberately crosses shard boundaries, as a
//! narrow shared service rather than shared tagged memory: the
//! [`crate::SkeyLedger`], so an S/Key password spent on any shard is spent
//! on all of them. Everything else each shard holds (host keypair, auth
//! database) is an independent copy inside its own kernel.

use std::sync::Arc;

use wedge_core::{KernelStats, Wedge, WedgeError};
use wedge_crypto::{RsaKeyPair, RsaPublicKey};
use wedge_net::{Duplex, Listener};
use wedge_sched::{
    FrontEndConfig, KillReport, ServeTally, ShardJobHandle, ShardServer, ShardStats,
    ShardedFrontEnd,
};

use crate::authdb::{AuthDb, ServerConfig};
use crate::server::{SessionReport, WedgeSsh};

/// Configuration of the sharded sshd front-end: the generic front-end's,
/// since sshd adds nothing to it.
pub type PooledSshConfig = FrontEndConfig;

impl ShardServer for WedgeSsh {
    type Report = SessionReport;

    fn serve_link(&self, shard: usize, link: Duplex) -> Result<SessionReport, WedgeError> {
        self.serve_connection(link)
            .and_then(|handle| handle.join())
            .map(|mut report| {
                report.shard = shard;
                report
            })
    }

    fn kernel_stats(&self) -> KernelStats {
        self.wedge().kernel().stats()
    }

    fn instrument(&self, telemetry: &wedge_telemetry::Telemetry) {
        self.wedge().kernel().instrument(telemetry);
    }
}

/// N Wedge-partitioned SSH monitor shards behind the shared front-end.
pub struct PooledWedgeSsh {
    front: ShardedFrontEnd<WedgeSsh>,
    host_public: RsaPublicKey,
}

impl PooledWedgeSsh {
    /// Boot `config.shards` monitor shards sharing `host_keypair`, `db`
    /// and one consumed-OTP ledger, plus the connection acceptor (and the
    /// supervisor, when configured).
    pub fn new(
        host_keypair: RsaKeyPair,
        db: &AuthDb,
        server_config: &ServerConfig,
        config: PooledSshConfig,
    ) -> Result<PooledWedgeSsh, WedgeError> {
        // One consumed-OTP ledger across the shard set: an S/Key password
        // spent on any monitor shard is spent on all of them, exactly as
        // on a single server.
        let skey_ledger: crate::SkeyLedger =
            Arc::new(parking_lot::Mutex::new(std::collections::HashSet::new()));
        let db = db.clone();
        let server_config = server_config.clone();
        let front = ShardedFrontEnd::new(config, move |_shard| {
            WedgeSsh::with_skey_ledger(
                Wedge::init(),
                host_keypair,
                &db,
                &server_config,
                skey_ledger.clone(),
            )
        })?;
        Ok(PooledWedgeSsh {
            front,
            host_public: host_keypair.public,
        })
    }

    /// The host public key clients pin.
    pub fn host_public(&self) -> RsaPublicKey {
        self.host_public
    }

    /// Per-shard snapshots (health, boot cost, restarts, depth, kernel).
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.front.shard_stats()
    }

    /// Kernel counters summed across every monitor shard.
    pub fn kernel_stats(&self) -> KernelStats {
        self.front.kernel_stats()
    }

    /// Register the whole front-end on `telemetry` (see
    /// [`ShardedFrontEnd::instrument`]).
    pub fn instrument(&self, telemetry: &wedge_telemetry::Telemetry) {
        self.front.instrument(telemetry);
    }

    /// Kill shard `idx` (fault injection): queued links re-route to
    /// healthy shards; a configured supervisor respawns the monitor.
    pub fn kill_shard(&self, idx: usize) -> KillReport {
        self.front.kill_shard(idx)
    }

    /// Submit one connection; the handle resolves to the session report,
    /// whose `shard` field names the monitor shard that served it. Fails
    /// with [`WedgeError::ResourceExhausted`] only when every shard
    /// rejects.
    pub fn serve(&self, link: Duplex) -> Result<ShardJobHandle<SessionReport>, WedgeError> {
        self.front.serve(link)
    }

    /// Serve every link and return the outcomes **in link order** —
    /// `result[i]` is `links[i]`'s outcome — backing off briefly whenever
    /// every shard pushes back.
    pub fn serve_all(&self, links: Vec<Duplex>) -> Vec<Result<SessionReport, WedgeError>> {
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
        on_outcome: impl FnMut(usize, Result<SessionReport, WedgeError>),
    ) {
        self.front.serve_listener_with(listener, batch, on_outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SshClient;
    use wedge_crypto::WedgeRng;
    use wedge_net::duplex_pair;

    #[test]
    fn sharded_monitors_serve_simultaneous_logins() {
        let keypair = RsaKeyPair::generate(&mut WedgeRng::from_seed(61));
        let server = PooledWedgeSsh::new(
            keypair,
            &AuthDb::sample(),
            &ServerConfig::default(),
            PooledSshConfig {
                shards: 3,
                ..PooledSshConfig::default()
            },
        )
        .unwrap();
        let telemetry = wedge_telemetry::Telemetry::new();
        server.instrument(&telemetry);

        let connections = 9;
        let mut clients = Vec::new();
        let mut handles = Vec::new();
        for i in 0..connections {
            let (client_link, server_link) = duplex_pair(&format!("c{i}"), &format!("s{i}"));
            handles.push(server.serve(server_link).unwrap());
            clients.push(std::thread::spawn(move || {
                let mut client = SshClient::new();
                client.connect(&client_link).expect("hello");
                let (ok, _, _) = client
                    .auth_password(&client_link, "alice", "correct horse battery")
                    .expect("auth");
                assert!(ok, "login {i} must succeed");
                client.disconnect(&client_link).expect("disconnect");
            }));
        }
        for client in clients {
            client.join().expect("client thread");
        }
        let mut shards_used = std::collections::HashSet::new();
        for handle in handles {
            let report = handle.join().expect("session");
            assert!(report.authenticated);
            assert_eq!(report.uid, 1001);
            shards_used.insert(report.shard);
        }
        assert_eq!(shards_used.len(), 3, "round-robin uses every shard");

        let snapshot = telemetry.snapshot();
        assert_eq!(snapshot.counter("sched.submitted"), connections as u64);
        assert_eq!(snapshot.counter("sched.completed"), connections as u64);
        // One worker sthread per connection across the shard kernels.
        assert_eq!(server.kernel_stats().sthreads_created, connections as u64);
    }

    #[test]
    fn serve_all_preserves_link_order() {
        // Alternate alice/bob logins; the in-order reports must show the
        // alternating uids even though shards complete out of order.
        let keypair = RsaKeyPair::generate(&mut WedgeRng::from_seed(62));
        let server = PooledWedgeSsh::new(
            keypair,
            &AuthDb::sample(),
            &ServerConfig::default(),
            PooledSshConfig {
                shards: 2,
                ..PooledSshConfig::default()
            },
        )
        .unwrap();
        let users = ["alice", "bob", "alice", "bob", "alice", "bob"];
        let mut clients = Vec::new();
        let mut server_links = Vec::new();
        for (i, user) in users.iter().enumerate() {
            let (client_link, server_link) = duplex_pair(&format!("c{i}"), &format!("s{i}"));
            server_links.push(server_link);
            let user = user.to_string();
            clients.push(std::thread::spawn(move || {
                let password = if user == "alice" {
                    "correct horse battery"
                } else {
                    "hunter2"
                };
                let mut client = SshClient::new();
                client.connect(&client_link).expect("hello");
                let (ok, _, _) = client
                    .auth_password(&client_link, &user, password)
                    .expect("auth");
                assert!(ok);
                client.disconnect(&client_link).expect("disconnect");
            }));
        }
        let reports = server.serve_all(server_links);
        for client in clients {
            client.join().expect("client thread");
        }
        let uids: Vec<u32> = reports
            .into_iter()
            .map(|r| r.expect("session").uid)
            .collect();
        assert_eq!(
            uids,
            vec![1001, 1002, 1001, 1002, 1001, 1002],
            "reports must come back in link order"
        );
    }

    #[test]
    fn skey_otp_spent_on_one_monitor_is_dead_on_every_other() {
        // Two monitors built the way PooledWedgeSsh builds them: independent
        // kernels, one shared consumed-OTP ledger. Each monitor's private
        // S/Key store still lists "otp-one" after the other consumed it —
        // the ledger is what keeps one-time passwords one-time shard-wide.
        let keypair = RsaKeyPair::generate(&mut WedgeRng::from_seed(71));
        let db = AuthDb::sample();
        let config = ServerConfig::default();
        let ledger: crate::SkeyLedger =
            Arc::new(parking_lot::Mutex::new(std::collections::HashSet::new()));
        let monitor_a =
            WedgeSsh::with_skey_ledger(Wedge::init(), keypair, &db, &config, ledger.clone())
                .unwrap();
        let monitor_b =
            WedgeSsh::with_skey_ledger(Wedge::init(), keypair, &db, &config, ledger).unwrap();

        let login = |monitor: &WedgeSsh, otp: &str| -> bool {
            let (client_link, server_link) = duplex_pair("skey-client", "sshd");
            let handle = monitor.serve_connection(server_link).unwrap();
            let mut client = SshClient::new();
            client.connect(&client_link).expect("hello");
            let (ok, _, _) = client
                .auth_skey(&client_link, "alice", otp)
                .expect("skey auth");
            client.disconnect(&client_link).expect("disconnect");
            handle.join().expect("session");
            ok
        };

        assert!(login(&monitor_a, "otp-one"), "first use must succeed");
        assert!(
            !login(&monitor_b, "otp-one"),
            "replay on a sibling monitor must be refused"
        );
        assert!(
            login(&monitor_b, "otp-two"),
            "unspent OTPs still work everywhere"
        );
    }

    #[test]
    fn admission_limit_sheds_excess_logins() {
        let keypair = RsaKeyPair::generate(&mut WedgeRng::from_seed(67));
        let server = PooledWedgeSsh::new(
            keypair,
            &AuthDb::sample(),
            &ServerConfig::default(),
            PooledSshConfig {
                shards: 1,
                queue_capacity: 1,
                ..PooledSshConfig::default()
            },
        )
        .unwrap();
        let telemetry = wedge_telemetry::Telemetry::new();
        server.instrument(&telemetry);
        // The first login is under way on the only shard once its hello is
        // answered; the second fills the one queue slot.
        let (held_client, held_server) = duplex_pair("held", "sshd");
        let held = server.serve(held_server).unwrap();
        let mut client = SshClient::new();
        client.connect(&held_client).expect("hello");
        let (queued_client, queued_server) = duplex_pair("queued", "sshd");
        let queued = server.serve(queued_server).unwrap();
        let (_c3, s3) = duplex_pair("c3", "s3");
        let err = server.serve(s3).unwrap_err();
        assert!(matches!(err, WedgeError::ResourceExhausted { .. }));
        assert_eq!(telemetry.snapshot().counter("sched.rejected"), 1);
        client.disconnect(&held_client).expect("disconnect");
        drop(queued_client);
        assert!(!held.join().expect("held session").authenticated);
        assert!(!queued.join().expect("queued session").authenticated);
        let snapshot = telemetry.snapshot();
        assert_eq!(
            snapshot.counter("sched.submitted"),
            snapshot.counter("sched.completed") + snapshot.counter("sched.rejected")
        );
    }
}
