//! The one adapter between the benchmark and the serving stack.
//!
//! This module (with its child `probes`) is the only place that names
//! serving-stack types. Everything else in the crate sees connections,
//! counters by telemetry name, and spans — so a PR that collapses the
//! stack's tiers or rewrites its serve path edits this file at most, never
//! the measurement code.
//!
//! It uses the shipping surface only: `Kernel::new` via `Wedge::init`,
//! `with_session_store`, cachenet v2 through `CacheRing`, the three
//! sharded fronts behind their `Listener`s. Counters are read from
//! `Telemetry::snapshot()` by name; the two exceptions — allocations and
//! shard boot cost — have no telemetry name yet and are read here from
//! `kernel_stats()` / `shard_stats()` and republished under one.

pub mod probes;

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use wedge_apache::{
    ApacheConfig, ConcurrentApache, ConcurrentApacheConfig, PageStore, WedgeApache,
};
use wedge_cachenet::{CacheNode, CacheNodeConfig, CacheRing, CacheRingConfig};
use wedge_chaos::{ChaosSchedule, ChaosTarget, Fault, ScheduledFault};
use wedge_core::{KernelStats, Wedge, WedgeError};
use wedge_crypto::{RsaKeyPair, RsaPublicKey, WedgeRng};
use wedge_net::{Duplex, Listener, NetError, RateLimitConfig, RecvTimeout, SourceAddr};
use wedge_pop3::{MailDb, Pop3Server, ShardedPop3, ShardedPop3Config};
use wedge_sched::{
    AcceptPolicy, FrontEndConfig, ShardServer, ShardStats, ShardedFrontEnd, SupervisorConfig,
};
use wedge_ssh::authdb::ServerConfig;
use wedge_ssh::{AuthDb, PooledSshConfig, PooledWedgeSsh, SshClient, WedgeSsh};
use wedge_telemetry::{
    MetricValue, RecordingSink, Telemetry, TelemetryEvent, Tracer, TracerConfig,
};
use wedge_tls::{SessionId, SessionStore, TlsClient, TlsError};

use crate::spans::{Source, Span, SpanSink};
use crate::workload::{FaultKind, FaultSpec, Page, Proto};

/// The seeded generator the workloads draw from (the vendored `rand` shim
/// has OS entropy only).
pub use wedge_chaos::{ChaosRng as Rng, Zipf};

pub const FRONT_NAMES: [&str; 3] = ["apache", "ssh", "pop3"];

/// One of [`Stack::counters`]' per-front counters, summed over the fronts.
pub fn summed(counters: &BTreeMap<String, u64>, name: &str) -> u64 {
    FRONT_NAMES
        .iter()
        .map(|front| {
            counters
                .get(&format!("{front}.{name}"))
                .copied()
                .unwrap_or(0)
        })
        .sum()
}
pub const BLOB_BYTES: usize = 128 * 1024;
pub const CACHE_NODES: usize = 3;

const SHARDS: usize = 2;
const QUEUE: usize = 256;
const ACCEPT_BATCH: usize = 8;
/// Organic hosts never reach this (the hottest Zipf host of `https_conn`
/// takes ~12 % of its 400 connections a second); a flood empties it at once.
const RATE_LIMIT: RateLimitConfig = RateLimitConfig {
    burst: 64,
    refill_per_sec: 2000.0,
};
const REPLY_TIMEOUT: Duration = Duration::from_secs(5);
/// How long a client holds its first byte back after the connect: the
/// network round trip between a TCP accept and the first data segment,
/// which an in-memory link does not have. Without it the hello races the
/// accept loop's park of the link, and whether the link then waits 0.1 ms
/// or the accept loop's whole 20 ms timeout is a scheduler coin flip (seen:
/// 2/3 of open-loop HTTPS connections took the short path, and a closed
/// loop spent half its wall time in 20 ms stalls) — numbers that sit on
/// the flip repeat on no two runs.
const FIRST_BYTE_AFTER: Duration = Duration::from_micros(250);
const SSH_USER: (&str, &str) = ("alice", "correct horse battery");
const POP3_USER: (&str, &str) = ("alice", "wonderland");

/// Why a generated connection did not complete.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    Refused,
    Reset,
    TimedOut,
    /// The connection completed but the reply was not the generated one:
    /// counted as failed *and* a benchmark error.
    Wrong,
}

#[derive(Debug, Clone)]
pub struct Failure {
    pub kind: FailureKind,
    pub detail: String,
}

impl Failure {
    fn wrong(detail: impl Into<String>) -> Failure {
        Failure {
            kind: FailureKind::Wrong,
            detail: detail.into(),
        }
    }

    fn net(stage: &str, err: &NetError) -> Failure {
        let kind = match err {
            NetError::Refused => FailureKind::Refused,
            NetError::Timeout => FailureKind::TimedOut,
            NetError::Disconnected | NetError::WouldBlock => FailureKind::Reset,
        };
        Failure {
            kind,
            detail: format!("{stage}: {err}"),
        }
    }

    /// The TLS and SSH clients flatten link errors to their display
    /// strings; anything else they report is a wrong reply.
    fn text(stage: &str, err: &str) -> Failure {
        for net in [NetError::Timeout, NetError::Disconnected] {
            if err == net.to_string() {
                return Failure::net(stage, &net);
            }
        }
        Failure::wrong(format!("{stage}: {err}"))
    }

    fn tls(stage: &str, err: TlsError) -> Failure {
        match err {
            TlsError::Transport(text) => Failure::text(stage, &text),
            other => Failure::wrong(format!("{stage}: {other}")),
        }
    }
}

/// A verified completion.
#[derive(Debug, Clone, Copy, Default)]
pub struct Reply {
    /// Verified response-body bytes.
    pub bytes: u64,
    /// HTTPS only: the handshake was abbreviated.
    pub resumed: bool,
}

/// One simulated HTTPS host: its TLS client state, and whether it holds a
/// session the server may resume.
pub struct HttpsClient {
    tls: TlsClient,
    cold: bool,
}

impl HttpsClient {
    /// Drop the cached session: the next connection must handshake in full.
    pub fn forget(&mut self) {
        self.tls.cached_session = None;
        self.cold = true;
    }
}

/// What the benchmark needs from a front, whichever type builds it: the
/// shipping wrappers on a measured run, `ShardedFrontEnd` over decorated
/// servers on a traced one.
trait Front: Send + Sync {
    fn instrument(&self, telemetry: &Telemetry);
    /// Run the accept loop until the listener closes.
    fn pump(&self, listener: &Listener);
    fn kill_shard(&self, shard: usize);
    fn shard_stats(&self) -> Vec<ShardStats>;
    fn kernel_stats(&self) -> KernelStats;
}

macro_rules! front {
    ([$($generics:tt)*] $ty:ty) => {
        impl<$($generics)*> Front for $ty {
            fn instrument(&self, telemetry: &Telemetry) {
                <$ty>::instrument(self, telemetry);
            }
            fn pump(&self, listener: &Listener) {
                // Outcomes are read back from the `sched.*` counters.
                drop(self.serve_listener(listener, ACCEPT_BATCH));
            }
            fn kill_shard(&self, shard: usize) {
                <$ty>::kill_shard(self, shard);
            }
            fn shard_stats(&self) -> Vec<ShardStats> {
                <$ty>::shard_stats(self)
            }
            fn kernel_stats(&self) -> KernelStats {
                <$ty>::kernel_stats(self)
            }
        }
    };
}
front!([] ConcurrentApache);
front!([] PooledWedgeSsh);
front!([] ShardedPop3);
front!([S: ShardServer] ShardedFrontEnd<S>);

/// Times every `serve_link` from outside and names the connection by the
/// source address the client stamped on the link.
struct TimedServer<S> {
    inner: S,
    sink: Arc<SpanSink>,
}

impl<S: ShardServer> ShardServer for TimedServer<S> {
    type Report = S::Report;

    fn serve_link(&self, shard: usize, link: Duplex) -> Result<S::Report, WedgeError> {
        let conn = link.source().map_or(0, |addr| {
            Source {
                host: addr.host,
                port: addr.port,
            }
            .key()
        });
        let start_ns = self.sink.clock.now_ns();
        let outcome = self.inner.serve_link(shard, link);
        self.sink.push(Span {
            conn,
            parent: "conn",
            name: "serve",
            start_ns,
            end_ns: self.sink.clock.now_ns(),
        });
        outcome
    }

    fn kernel_stats(&self) -> KernelStats {
        self.inner.kernel_stats()
    }

    fn handshake_kind(report: &S::Report) -> Option<wedge_telemetry::HandshakeKind> {
        S::handshake_kind(report)
    }

    fn instrument(&self, telemetry: &Telemetry) {
        self.inner.instrument(telemetry);
    }
}

/// Times every session-store lookup and insert the handshake callgates
/// make.
struct TimedStore {
    inner: Arc<dyn SessionStore>,
    sink: Arc<SpanSink>,
}

impl TimedStore {
    fn record(&self, name: &'static str, start_ns: u64) {
        self.sink.push(Span {
            conn: 0,
            parent: "serve",
            name,
            start_ns,
            end_ns: self.sink.clock.now_ns(),
        });
    }
}

impl SessionStore for TimedStore {
    fn insert(&self, id: SessionId, premaster: Vec<u8>) {
        let start_ns = self.sink.clock.now_ns();
        self.inner.insert(id, premaster);
        self.record("store.insert", start_ns);
    }

    fn lookup(&self, id: &SessionId) -> Option<Vec<u8>> {
        let start_ns = self.sink.clock.now_ns();
        let found = self.inner.lookup(id);
        let name = if found.is_some() {
            "store.lookup.hit"
        } else {
            "store.lookup.miss"
        };
        self.record(name, start_ns);
        found
    }

    fn remove(&self, id: &SessionId) {
        self.inner.remove(id);
    }

    fn stats(&self) -> (u64, u64) {
        self.inner.stats()
    }

    fn len(&self) -> usize {
        self.inner.len()
    }
}

/// The whole serving stack: 3 cache nodes behind a ring, the Apache, SSH
/// and POP3 fronts at 2 shards each behind rate-limited listeners, one
/// accept loop per front.
pub struct Stack {
    nodes: Vec<CacheNode>,
    fronts: [Arc<dyn Front>; 3],
    listeners: [Arc<Listener>; 3],
    /// One registry per front so `sched.*` and `listener.*` stay per front.
    telemetry: [Telemetry; 3],
    chaos_telemetry: Telemetry,
    audit: Arc<RecordingSink>,
    pumps: Mutex<Vec<JoinHandle<()>>>,
    sink: Option<Arc<SpanSink>>,
    public_key: RsaPublicKey,
    index_body: Vec<u8>,
    blob_body: Vec<u8>,
    mail_count: usize,
    flood_refused: AtomicU64,
    restart_ms: Mutex<Vec<f64>>,
}

impl Stack {
    /// Build the stack and serve one verified connection per front.
    /// Returns the stack and how long that took (`setup_s`). `seed` fixes
    /// the blob page's bytes; with a `sink` the fronts are built over
    /// decorated servers and a decorated session store, and the program's
    /// own tracer is installed so its `trace.*` histograms fill.
    pub fn boot(seed: u64, sink: Option<Arc<SpanSink>>) -> Result<(Arc<Stack>, f64), Failure> {
        let started = Instant::now();
        let telemetry = [Telemetry::new(), Telemetry::new(), Telemetry::new()];
        if sink.is_some() {
            for registry in &telemetry {
                registry.install_tracer(Tracer::new(TracerConfig::default()));
            }
        }
        let chaos_telemetry = Telemetry::new();
        let audit = Arc::new(RecordingSink::default());
        chaos_telemetry.install_sink(audit.clone());

        let nodes: Vec<CacheNode> = (0..CACHE_NODES)
            .map(|n| CacheNode::spawn(CacheNodeConfig::named(&format!("e2e-cache-{n}"))))
            .collect();
        for node in &nodes {
            node.instrument(&telemetry[0]);
        }
        let ring = Arc::new(CacheRing::new(
            nodes.iter().map(CacheNode::endpoint).collect(),
            CacheRingConfig {
                source: SourceAddr::new([10, 99, 0, 1], 45_000),
                ..CacheRingConfig::default()
            },
        ));
        ring.instrument(&telemetry[0]);

        let mut pages = PageStore::sample();
        let mut blob_body = vec![0u8; BLOB_BYTES];
        WedgeRng::from_seed(seed).fill_bytes(&mut blob_body);
        pages.add(Page::Blob.path(), blob_body.clone());
        let index_request = wedge_apache::HttpRequest {
            method: "GET".into(),
            path: Page::Index.path().into(),
        };
        let index_body = split_body(&pages.respond(&index_request))
            .expect("sample page store serves the index")
            .to_vec();
        let mail = MailDb::sample();
        let mail_count = mail.user(POP3_USER.0).map_or(0, |user| user.emails.len());

        let supervisor = Some(SupervisorConfig::default());
        let keypair = RsaKeyPair::generate(&mut WedgeRng::from_seed(0xE2E0));
        let host_keypair = RsaKeyPair::generate(&mut WedgeRng::from_seed(0xE2E1));
        let fronts = match &sink {
            None => measured_fronts(keypair, host_keypair, pages, &mail, ring, supervisor),
            Some(sink) => {
                traced_fronts(keypair, host_keypair, pages, &mail, ring, supervisor, sink)
            }
        }
        .map_err(|err| Failure::wrong(format!("front boot: {err}")))?;

        let listeners = [0, 1, 2].map(|front| {
            let listener = Listener::bind_rate_limited(
                &format!("e2e-{}", FRONT_NAMES[front]),
                QUEUE,
                RATE_LIMIT,
            );
            listener.instrument(&telemetry[front]);
            listener
        });
        let mut pumps = Vec::new();
        for front in 0..3 {
            fronts[front].instrument(&telemetry[front]);
            let (server, listener) = (fronts[front].clone(), listeners[front].clone());
            pumps.push(std::thread::spawn(move || server.pump(&listener)));
        }

        let mut stack = Stack {
            nodes,
            fronts,
            listeners,
            telemetry,
            chaos_telemetry,
            audit,
            pumps: Mutex::new(pumps),
            // The set-up connections stay out of the span log.
            sink: None,
            public_key: keypair.public,
            index_body,
            blob_body,
            mail_count,
            flood_refused: AtomicU64::new(0),
            restart_ms: Mutex::new(Vec::new()),
        };
        let probe = |ordinal| Source {
            host: [10, 0, 0, 1],
            port: ordinal,
        };
        stack.https(&mut stack.https_client(0), probe(0), Page::Index)?;
        stack.ssh(probe(1))?;
        stack.pop3(probe(2))?;
        let setup_s = started.elapsed().as_secs_f64();
        stack.sink = sink;
        Ok((Arc::new(stack), setup_s))
    }

    /// A host with no session yet.
    pub fn https_client(&self, seed: u64) -> HttpsClient {
        HttpsClient {
            tls: TlsClient::new(self.public_key, WedgeRng::from_seed(seed)),
            cold: true,
        }
    }

    /// Connect and, where the client speaks first, hold its first byte
    /// back by [`FIRST_BYTE_AFTER`]. Returns the link and the stamps of
    /// start, connected, first byte.
    fn connect(&self, proto: Proto, source: Source) -> Result<(Duplex, [u64; 3]), Failure> {
        let start_ns = self.now_ns();
        let link = self.listeners[proto as usize]
            .connect(SourceAddr::new(source.host, source.port))
            .map_err(|err| Failure::net("connect", &err))?;
        let connected_ns = self.now_ns();
        // POP3's server speaks first: there is no client byte to hold back.
        if proto != Proto::Pop3 {
            std::thread::sleep(FIRST_BYTE_AFTER);
        }
        Ok((link, [start_ns, connected_ns, self.now_ns()]))
    }

    /// Push the five client-side spans of one connection.
    fn client_spans(&self, source: Source, middle: [&'static str; 2], stamps: [u64; 6]) {
        if let Some(sink) = &self.sink {
            let names = ["connect", "first_byte_delay", middle[0], middle[1], "close"];
            sink.extend((0..5).map(|i| Span {
                conn: source.key(),
                parent: "conn",
                name: names[i],
                start_ns: stamps[i],
                end_ns: stamps[i + 1],
            }));
        }
    }

    fn now_ns(&self) -> u64 {
        self.sink.as_ref().map_or(0, |sink| sink.clock.now_ns())
    }

    /// One HTTPS connection: connect, TLS handshake, `GET page`, verify
    /// status and body byte for byte, close.
    pub fn https(
        &self,
        client: &mut HttpsClient,
        source: Source,
        page: Page,
    ) -> Result<Reply, Failure> {
        let (link, [t0, tc, t1]) = self.connect(Proto::Https, source)?;
        let was_cold = client.cold;
        let mut conn = client
            .tls
            .connect(&link)
            .map_err(|err| Failure::tls("handshake", err))?;
        client.cold = false;
        let t2 = self.now_ns();
        if was_cold && conn.resumed {
            return Err(Failure::wrong(
                "server resumed a session the client had forgotten",
            ));
        }
        let request = format!("GET {} HTTP/1.0\r\n\r\n", page.path());
        conn.send(&link, request.as_bytes())
            .map_err(|err| Failure::tls("request", err))?;
        let response = conn
            .recv(&link)
            .map_err(|err| Failure::tls("response", err))?;
        let expected = match page {
            Page::Index => &self.index_body,
            Page::Blob => &self.blob_body,
        };
        if !response.starts_with(b"HTTP/1.0 200 OK") {
            return Err(Failure::wrong("status is not 200"));
        }
        if split_body(&response) != Some(expected.as_slice()) {
            return Err(Failure::wrong("body differs from the generated page"));
        }
        let t3 = self.now_ns();
        let resumed = conn.resumed;
        drop(conn);
        drop(link);
        let handshake = if resumed {
            "handshake.resumed"
        } else {
            "handshake.full"
        };
        let names = [handshake, "http.request"];
        self.client_spans(source, names, [t0, tc, t1, t2, t3, self.now_ns()]);
        Ok(Reply {
            bytes: expected.len() as u64,
            resumed,
        })
    }

    /// One SSH connection: hello with host-key proof, password login,
    /// disconnect.
    pub fn ssh(&self, source: Source) -> Result<Reply, Failure> {
        let (link, [t0, tc, t1]) = self.connect(Proto::Ssh, source)?;
        let mut client = SshClient::new();
        let hello = client
            .connect(&link)
            .map_err(|err| Failure::text("hello", &err))?;
        if !hello.host_proof_valid {
            return Err(Failure::wrong("host-key proof did not verify"));
        }
        let t2 = self.now_ns();
        let (accepted, _, detail) = client
            .auth_password(&link, SSH_USER.0, SSH_USER.1)
            .map_err(|err| Failure::text("auth", &err))?;
        if !accepted {
            return Err(Failure::wrong(format!("auth refused: {detail}")));
        }
        let t3 = self.now_ns();
        client
            .disconnect(&link)
            .map_err(|err| Failure::text("disconnect", &err))?;
        drop(link);
        let names = ["ssh.hello", "ssh.auth"];
        self.client_spans(source, names, [t0, tc, t1, t2, t3, self.now_ns()]);
        Ok(Reply::default())
    }

    /// One POP3 connection: greeting, login, `STAT` equal to the sample
    /// mailbox's count, `QUIT`.
    pub fn pop3(&self, source: Source) -> Result<Reply, Failure> {
        let (link, [t0, tc, t1]) = self.connect(Proto::Pop3, source)?;
        let mut bytes = 0u64;
        let mut expect = |command: Option<&str>, reply: Option<String>| -> Result<(), Failure> {
            let stage = command.unwrap_or("greeting");
            if let Some(command) = command {
                link.send(command.as_bytes())
                    .map_err(|err| Failure::net(stage, &err))?;
            }
            let got = link
                .recv(RecvTimeout::After(REPLY_TIMEOUT))
                .map_err(|err| Failure::net(stage, &err))?;
            let ok = match &reply {
                Some(exact) => got == exact.as_bytes(),
                None => got.starts_with(b"+OK"),
            };
            if !ok {
                return Err(Failure::wrong(format!(
                    "{stage}: {}",
                    String::from_utf8_lossy(&got)
                )));
            }
            bytes += got.len() as u64;
            Ok(())
        };
        expect(None, None)?;
        let t2 = self.now_ns();
        expect(Some(&format!("USER {}", POP3_USER.0)), None)?;
        expect(Some(&format!("PASS {}", POP3_USER.1)), None)?;
        expect(
            Some("STAT"),
            Some(format!("+OK {} messages", self.mail_count)),
        )?;
        let t3 = self.now_ns();
        expect(Some("QUIT"), None)?;
        drop(link);
        let names = ["pop3.greeting", "pop3.session"];
        self.client_spans(source, names, [t0, tc, t1, t2, t3, self.now_ns()]);
        Ok(Reply {
            bytes,
            resumed: false,
        })
    }

    /// Every counter and gauge the stack reports, keyed
    /// `<front>.<telemetry name>`, plus `<front>.alloc.allocs` and
    /// `chaos.*`. Subtract two of these for a window's deltas.
    pub fn counters(&self) -> BTreeMap<String, u64> {
        let mut out = BTreeMap::new();
        for (front, front_name) in FRONT_NAMES.iter().enumerate() {
            let snapshot = self.telemetry[front].snapshot();
            for (name, value) in snapshot.iter() {
                if let MetricValue::Counter(v) | MetricValue::Gauge(v) = value {
                    out.insert(format!("{front_name}.{name}"), *v);
                }
            }
            let kernel = self.fronts[front].kernel_stats();
            out.insert(
                format!("{front_name}.alloc.allocs"),
                kernel.smallocs + kernel.private_allocs,
            );
        }
        out.insert("chaos.faults_audited".into(), self.faults_audited());
        out.insert(
            "chaos.flood_refused".into(),
            self.flood_refused.load(Ordering::Relaxed),
        );
        out
    }

    fn faults_audited(&self) -> u64 {
        self.audit
            .events()
            .iter()
            .filter(|event| matches!(event, TelemetryEvent::FaultInjected { .. }))
            .count() as u64
    }

    /// p50 of one of the program's own histograms on the Apache front, in
    /// µs. These are log-bucketed (8 sub-buckets per octave), so callers
    /// flag them `quantised`.
    pub fn program_p50_us(&self, name: &str) -> Option<f64> {
        let snapshot = self.telemetry[0].snapshot();
        let summary = snapshot.histogram(name)?;
        (summary.count > 0).then_some(summary.p50_nanos as f64 / 1e3)
    }

    /// Slowest shard boot across the fronts, ms.
    pub fn boot_ms(&self) -> f64 {
        self.fronts
            .iter()
            .flat_map(|front| front.shard_stats())
            .map(|shard| shard.boot_cost.as_secs_f64() * 1e3)
            .fold(0.0, f64::max)
    }

    /// Median cost of one whole-stack `Telemetry::snapshot()`, ms.
    pub fn snapshot_ms(&self) -> f64 {
        let samples: Vec<f64> = (0..21)
            .map(|_| {
                let started = Instant::now();
                for registry in &self.telemetry {
                    std::hint::black_box(registry.snapshot());
                }
                started.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        crate::stats::median(&samples).expect("21 samples")
    }

    /// Kill → healthy-again time of every shard kill so far, ms.
    pub fn restart_ms(&self) -> Vec<f64> {
        self.restart_ms.lock().clone()
    }

    /// Inject `faults` (offsets from now) on their own thread. Join the
    /// handle for the number injected.
    pub fn inject(self: &Arc<Stack>, faults: &[FaultSpec]) -> JoinHandle<u64> {
        let entries = faults
            .iter()
            .map(|spec| ScheduledFault {
                at: spec.at,
                fault: match spec.kind {
                    FaultKind::KillShard { front, shard } => Fault::KillShard {
                        shard: front * SHARDS + shard % SHARDS,
                    },
                    FaultKind::CacheKill { node } => Fault::CacheKill { node },
                    FaultKind::CacheRestart { node } => Fault::CacheRestart { node },
                    FaultKind::Flood { front, connections } => Fault::Flood {
                        source: front,
                        connections,
                    },
                },
            })
            .collect();
        let run = wedge_chaos::spawn(
            ChaosSchedule::explicit(0, entries),
            self.clone() as Arc<dyn ChaosTarget>,
            self.chaos_telemetry.clone(),
        );
        std::thread::spawn(move || run.join().expect("chaos injector").injected.len() as u64)
    }

    /// Close the listeners, drain the accept loops, and check that every
    /// front's books balance: `submitted == completed + rejected`.
    pub fn shutdown(&self) -> Result<(), String> {
        for listener in &self.listeners {
            listener.close();
        }
        for pump in self.pumps.lock().drain(..) {
            pump.join()
                .map_err(|_| "accept loop panicked".to_string())?;
        }
        let counters = self.counters();
        for front in FRONT_NAMES {
            let read = |name: &str| {
                counters
                    .get(&format!("{front}.sched.{name}"))
                    .copied()
                    .unwrap_or(0)
            };
            let (submitted, completed, rejected) =
                (read("submitted"), read("completed"), read("rejected"));
            if submitted != completed + rejected {
                return Err(format!(
                    "{front}: submitted {submitted} != completed {completed} + rejected {rejected}"
                ));
            }
        }
        Ok(())
    }
}

impl ChaosTarget for Stack {
    fn shards(&self) -> usize {
        3 * SHARDS
    }

    fn cache_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Kills the shard, then waits for its supervisor to bring it back so
    /// the restart time is measured where the fault is injected.
    fn kill_shard(&self, shard: usize) {
        let started = Instant::now();
        self.fronts[shard / SHARDS].kill_shard(shard % SHARDS);
        while !self.shard_healthy(shard) && started.elapsed() < REPLY_TIMEOUT {
            std::thread::sleep(Duration::from_micros(200));
        }
        self.restart_ms
            .lock()
            .push(started.elapsed().as_secs_f64() * 1e3);
    }

    fn shard_healthy(&self, shard: usize) -> bool {
        self.fronts[shard / SHARDS]
            .shard_stats()
            .get(shard % SHARDS)
            .is_some_and(|stats| stats.healthy)
    }

    fn storms(&self) -> u64 {
        0
    }

    fn kill_cache_node(&self, node: usize) {
        self.nodes[node % self.nodes.len()].kill();
    }

    fn restart_cache_node(&self, node: usize) {
        self.nodes[node % self.nodes.len()].restart();
    }

    /// One hostile host hammers one listener; the links its burst tokens
    /// admit are dropped at once, the rest are refused before a link is
    /// built. The refusals are counted so the run can check them against
    /// `listener.rate_limited`.
    fn flood(&self, source: usize, connections: u32) {
        let hostile = SourceAddr::new([66, 6, 0, source as u8], 50_000);
        for _ in 0..connections {
            if let Err(NetError::Refused) = self.listeners[source % 3].connect(hostile) {
                self.flood_refused.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

type Fronts = Result<[Arc<dyn Front>; 3], WedgeError>;

/// The shipping wrappers, exactly as a deployment builds them.
fn measured_fronts(
    keypair: RsaKeyPair,
    host_keypair: RsaKeyPair,
    pages: PageStore,
    mail: &MailDb,
    ring: Arc<CacheRing>,
    supervisor: Option<SupervisorConfig>,
) -> Fronts {
    let policy = AcceptPolicy::SessionAffinity;
    Ok([
        Arc::new(ConcurrentApache::with_session_store(
            keypair,
            pages,
            ConcurrentApacheConfig {
                shards: SHARDS,
                queue_capacity: QUEUE,
                policy,
                supervisor,
                ..ConcurrentApacheConfig::default()
            },
            ring,
        )?),
        Arc::new(PooledWedgeSsh::new(
            host_keypair,
            &AuthDb::sample(),
            &ServerConfig::default(),
            PooledSshConfig {
                shards: SHARDS,
                queue_capacity: QUEUE,
                policy,
                supervisor,
                ..PooledSshConfig::default()
            },
        )?),
        Arc::new(ShardedPop3::new(
            mail,
            ShardedPop3Config {
                shards: SHARDS,
                queue_capacity: QUEUE,
                policy,
                supervisor,
                ..ShardedPop3Config::default()
            },
        )?),
    ])
}

/// The same three fronts built the way the wrappers build them, but over
/// [`TimedServer`]s and a [`TimedStore`].
fn traced_fronts(
    keypair: RsaKeyPair,
    host_keypair: RsaKeyPair,
    pages: PageStore,
    mail: &MailDb,
    ring: Arc<CacheRing>,
    supervisor: Option<SupervisorConfig>,
    sink: &Arc<SpanSink>,
) -> Fronts {
    let config = FrontEndConfig {
        shards: SHARDS,
        queue_capacity: QUEUE,
        policy: AcceptPolicy::SessionAffinity,
        supervisor,
        ..FrontEndConfig::default()
    };
    let store: Arc<dyn SessionStore> = Arc::new(TimedStore {
        inner: ring,
        sink: sink.clone(),
    });
    let (apache_store, apache_sink) = (store.clone(), sink.clone());
    let apache = ShardedFrontEnd::with_session_store(config, store, move |_shard| {
        Ok(TimedServer {
            inner: WedgeApache::with_session_store(
                Wedge::init(),
                keypair,
                pages.clone(),
                ApacheConfig { recycled: true },
                apache_store.clone(),
            )?,
            sink: apache_sink.clone(),
        })
    })?;
    let ledger: wedge_ssh::SkeyLedger = Arc::default();
    let (auth, ssh_config, ssh_sink) = (AuthDb::sample(), ServerConfig::default(), sink.clone());
    let ssh = ShardedFrontEnd::new(config, move |_shard| {
        Ok(TimedServer {
            inner: WedgeSsh::with_skey_ledger(
                Wedge::init(),
                host_keypair,
                &auth,
                &ssh_config,
                ledger.clone(),
            )?,
            sink: ssh_sink.clone(),
        })
    })?;
    let (mail, pop3_sink) = (mail.clone(), sink.clone());
    let pop3 = ShardedFrontEnd::new(
        FrontEndConfig {
            // Server speaks first: a parked link would deadlock.
            defer_accept: false,
            ..config
        },
        move |_shard| {
            Ok(TimedServer {
                inner: Pop3Server::new(Wedge::init(), &mail)?,
                sink: pop3_sink.clone(),
            })
        },
    )?;
    Ok([Arc::new(apache), Arc::new(ssh), Arc::new(pop3)])
}

/// The body of an HTTP/1.0 response.
fn split_body(response: &[u8]) -> Option<&[u8]> {
    response
        .windows(4)
        .position(|window| window == b"\r\n\r\n")
        .map(|at| &response[at + 4..])
}
