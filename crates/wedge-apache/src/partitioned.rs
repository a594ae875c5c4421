//! The §5.1.2 (man-in-the-middle-hardened) partitioning of Apache/OpenSSL.
//!
//! Per connection, a master coordinates two sequential phases (Figure 3):
//!
//! 1. **`ssl_handshake` sthread** — network-facing, reads and writes the
//!    cleartext handshake messages, but holds *no* access to the session-key
//!    or private-key regions. It drives four callgates:
//!    `begin_handshake` (chooses the server random, handles resumption),
//!    `setup_session_key` (the only code that can read the private key;
//!    decrypts the premaster and installs the derived keys into the
//!    session-key region), `receive_finished` (verifies the client's
//!    Finished using the session key, records `finished_state`; returns only
//!    a boolean) and `send_finished` (produces the sealed server Finished
//!    from `finished_state`; takes no attacker-influenced input).
//! 2. **`client_handler` sthread** — started by the master only after the
//!    handshake sthread exits successfully. It has *no* network access and
//!    *no* session-key access; it sees plaintext requests through the
//!    `ssl_read` callgate and sends responses through `ssl_write` (which is
//!    the only compartment pair able to use the session key on application
//!    data, Figure 5).
//!
//! The [`ApacheConfig::recycled`] flag switches every callgate invocation to
//! the recycled fast path — the Table 2 "Recycled" column. As in the paper,
//! recycled callgates are long-lived and serve successive connections, so
//! they trade some isolation (a compromised recycled gate could mix state
//! across principals) for throughput; this reproduction consequently serves
//! connections sequentially per server instance.
//!
//! The same flag recycles the two *sthreads*: both phase bodies are
//! registered entries, and a recycled server runs them on two
//! [`RecycledSthread`]s — long-lived compartments created on the first
//! connection under exactly the two policies above, so a connection spawns
//! no thread and registers no compartment. Between connections each is
//! scrubbed under the lock that ran it: every segment and descriptor the
//! body created is wiped, its copy-on-write views are dropped and its
//! policy (so its warm permission cache) is reset to the spawn-time
//! baseline; a body that kept nothing — the normal case here, the bodies
//! hold their state in locals — pays one table lookup and the connection
//! mutates no policy. What recycling does *not* restore is in
//! `crates/wedge-core/README.md`: the compartment id and its baseline
//! grants outlive the principal, so a context smuggled out during
//! connection N still names a live compartment during N+1 — holding the
//! handshake policy's four gate grants and nothing of either connection.
//! Why this is worth ~7× its hot microcost end to end (table in the same
//! README): an open loop at 400 conn/s puts a 2.5 ms idle gap before every
//! connection, and the first `thread::spawn` after such a gap costs ~6× a
//! back-to-back one, where waking a parked thread costs under 2×. With
//! `recycled: false` each phase runs on a fresh sthread, the paper's
//! standard column.
//!
//! The two sthread policies (eight `SecurityPolicy` values, six trusted
//! arguments) depend only on state fixed at construction, so the constructor
//! builds them once; a connection binds them by reference and the kernel
//! shares each callgate grant's policy with its instance by refcount.

use std::sync::Arc;

use parking_lot::Mutex;

use wedge_core::callgate::typed_entry;
use wedge_core::{
    CgEntryId, CgInput, MemProt, RecycledSthread, SBuf, SecurityPolicy, SthreadCtx, TrustedArg,
    Wedge, WedgeError,
};
use wedge_crypto::{RsaKeyPair, WedgeRng};
use wedge_net::{Duplex, RecvTimeout};
use wedge_tls::handshake::{
    finished_verify_data, fresh_random, fresh_session_id, transcript_hash, CLIENT_FINISHED_LABEL,
    HANDSHAKE_TIMEOUT, SERVER_FINISHED_LABEL,
};
use wedge_tls::messages::{ClientHello, ClientKeyExchange, Finished, ServerHello};
use wedge_tls::record::RecordLayer;
use wedge_tls::{SessionId, SessionKeys, SessionStore, SharedSessionCache};

use crate::http::{HttpRequest, PageStore};
use crate::state::{FinishedState, SessionState, FINISHED_STATE_SIZE, SESSION_STATE_SIZE};
use crate::vanilla::serialize_private_key;

/// Configuration of the partitioned server.
#[derive(Debug, Clone, Copy, Default)]
pub struct ApacheConfig {
    /// Use recycled callgates and recycled sthreads (the throughput
    /// optimisation of §3.3/Table 2).
    pub recycled: bool,
}

/// Report returned for each served connection.
#[derive(Debug, Clone, Default)]
pub struct ConnectionReport {
    /// Did the handshake phase complete?
    pub handshake_ok: bool,
    /// Was the session resumed from the cache?
    pub resumed: bool,
    /// Number of requests served by the client handler.
    pub requests: u32,
    /// Number of records the `ssl_read` callgate rejected (failed MAC) —
    /// injected traffic never reaches the client handler.
    pub rejected_records: u32,
    /// The shard that served the connection (0 outside a sharded
    /// front-end), so callers can attribute outcomes and failures.
    pub shard: usize,
    /// Fingerprint of the derived session keys (all zeros until the
    /// handshake establishes them) — lets tests assert that a resumed
    /// connection on a *different* shard derived the same keys the client
    /// did, without exposing the keys.
    pub key_fingerprint: [u8; 32],
}

// ---------------------------------------------------------------------
// Callgate argument / reply types
// ---------------------------------------------------------------------

/// The master-controlled slot naming the connection currently being served
/// (the `ssl_read`/`ssl_write` callgates fetch the live network endpoint
/// from here — callers never hold it).
type LinkSlot = Arc<Mutex<Option<Arc<Duplex>>>>;

/// Trusted argument shared by `begin_handshake` and `setup_session_key`.
struct KeyGateTrusted {
    key_buf: SBuf,
    session_state: SBuf,
    cache: Arc<dyn SessionStore>,
}

/// Trusted argument shared by `receive_finished` and `send_finished`.
struct FinishedGateTrusted {
    session_state: SBuf,
    finished_state: SBuf,
}

/// Trusted argument shared by `ssl_read` and `ssl_write`.
struct IoGateTrusted {
    session_state: SBuf,
    link: LinkSlot,
}

/// Input of `begin_handshake`.
#[derive(Debug, Clone)]
struct BeginRequest {
    session_offer: Option<SessionId>,
    client_random: [u8; 32],
}

/// Output of `begin_handshake`.
#[derive(Debug, Clone)]
struct BeginReply {
    server_random: [u8; 32],
    session_id: SessionId,
    resumed: bool,
}

/// Input of `setup_session_key`.
#[derive(Debug, Clone)]
struct SetupKeyRequest {
    client_random: [u8; 32],
    encrypted_premaster: Vec<u8>,
    session_id: SessionId,
}

/// Input of `receive_finished`.
#[derive(Debug, Clone)]
struct ReceiveFinishedRequest {
    /// The cleartext handshake messages so far (hello, server hello, and —
    /// unless resumed — the key exchange).
    transcript: Vec<Vec<u8>>,
    /// The sealed client Finished record.
    sealed_client_finished: Vec<u8>,
}

/// Output of `ssl_read`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SslReadReply {
    /// A verified plaintext record.
    Data(Vec<u8>),
    /// A record arrived but failed MAC verification (dropped).
    Rejected,
    /// The connection closed or timed out.
    Closed,
}

/// The registered callgate entry points.
#[derive(Clone, Copy)]
struct Gates {
    begin_handshake: CgEntryId,
    setup_session_key: CgEntryId,
    receive_finished: CgEntryId,
    send_finished: CgEntryId,
    ssl_read: CgEntryId,
    ssl_write: CgEntryId,
}

/// The §5.1.2-partitioned HTTPS server.
pub struct WedgeApache {
    wedge: Wedge,
    pages: PageStore,
    config: ApacheConfig,
    cache: Arc<dyn SessionStore>,
    key_buf: SBuf,
    session_state: SBuf,
    finished_state: SBuf,
    current_link: LinkSlot,
    public_key: wedge_crypto::RsaPublicKey,
    gates: Gates,
    /// The two per-connection sthread policies, built once (module docs).
    handshake_policy: SecurityPolicy,
    client_handler_policy: SecurityPolicy,
    /// The two phases as recycled sthreads under those policies, serving
    /// every connection of a `recycled` server (spawned by the first).
    handshake_sthread: RecycledSthread,
    client_handler_sthread: RecycledSthread,
}

impl WedgeApache {
    /// Build the server with its own private session cache.
    pub fn new(
        wedge: Wedge,
        keypair: RsaKeyPair,
        pages: PageStore,
        config: ApacheConfig,
    ) -> Result<WedgeApache, WedgeError> {
        WedgeApache::with_session_store(
            wedge,
            keypair,
            pages,
            config,
            Arc::new(SharedSessionCache::new()),
        )
    }

    /// Build the server: allocate the private-key, session-key and
    /// finished-state regions, and register all six callgate entry points.
    /// `cache` is the session-lookup *service* the key callgates consult —
    /// pass one shared [`SharedSessionCache`] to every shard of a sharded
    /// front-end so resumption survives landing on a different shard, or
    /// a `wedge_cachenet::CacheRing` so it survives landing on a different
    /// *machine*; the compartments only ever reach it through the narrow
    /// [`SessionStore`] insert/lookup API, never through tagged memory.
    pub fn with_session_store(
        wedge: Wedge,
        keypair: RsaKeyPair,
        pages: PageStore,
        config: ApacheConfig,
        cache: Arc<dyn SessionStore>,
    ) -> Result<WedgeApache, WedgeError> {
        let root = wedge.root();
        let key_tag = root.tag_new()?;
        let key_buf = root.smalloc_init(key_tag, &serialize_private_key(&keypair))?;
        let session_tag = root.tag_new()?;
        let finished_tag = root.tag_new()?;
        let session_state = root.smalloc(SESSION_STATE_SIZE, session_tag)?;
        let finished_state = root.smalloc(FINISHED_STATE_SIZE, finished_tag)?;

        let kernel = wedge.kernel();
        let gates = Gates {
            begin_handshake: kernel.cgate_register(
                "begin_handshake",
                typed_entry(|ctx: &SthreadCtx, trusted, req: BeginRequest| {
                    let _f = ctx.trace_fn("begin_handshake");
                    let t = trusted
                        .and_then(|t| t.downcast::<KeyGateTrusted>())
                        .ok_or(WedgeError::BadCallgateValue)?;
                    begin_handshake(ctx, t, req)
                }),
            ),
            setup_session_key: kernel.cgate_register(
                "setup_session_key",
                typed_entry(|ctx: &SthreadCtx, trusted, req: SetupKeyRequest| {
                    let _f = ctx.trace_fn("setup_session_key");
                    let t = trusted
                        .and_then(|t| t.downcast::<KeyGateTrusted>())
                        .ok_or(WedgeError::BadCallgateValue)?;
                    setup_session_key(ctx, t, req)
                }),
            ),
            receive_finished: kernel.cgate_register(
                "receive_finished",
                typed_entry(|ctx: &SthreadCtx, trusted, req: ReceiveFinishedRequest| {
                    let _f = ctx.trace_fn("receive_finished");
                    let t = trusted
                        .and_then(|t| t.downcast::<FinishedGateTrusted>())
                        .ok_or(WedgeError::BadCallgateValue)?;
                    receive_finished(ctx, t, req)
                }),
            ),
            send_finished: kernel.cgate_register(
                "send_finished",
                typed_entry(|ctx: &SthreadCtx, trusted, _req: ()| {
                    let _f = ctx.trace_fn("send_finished");
                    let t = trusted
                        .and_then(|t| t.downcast::<FinishedGateTrusted>())
                        .ok_or(WedgeError::BadCallgateValue)?;
                    send_finished(ctx, t)
                }),
            ),
            ssl_read: kernel.cgate_register(
                "ssl_read",
                typed_entry(|ctx: &SthreadCtx, trusted, _req: ()| {
                    let _f = ctx.trace_fn("ssl_read");
                    let t = trusted
                        .and_then(|t| t.downcast::<IoGateTrusted>())
                        .ok_or(WedgeError::BadCallgateValue)?;
                    ssl_read(ctx, t)
                }),
            ),
            ssl_write: kernel.cgate_register(
                "ssl_write",
                typed_entry(|ctx: &SthreadCtx, trusted, plaintext: Vec<u8>| {
                    let _f = ctx.trace_fn("ssl_write");
                    let t = trusted
                        .and_then(|t| t.downcast::<IoGateTrusted>())
                        .ok_or(WedgeError::BadCallgateValue)?;
                    ssl_write(ctx, t, &plaintext)
                }),
            ),
        };

        let handshake_policy = {
            let mut key_gate = SecurityPolicy::deny_all();
            key_gate.sc_mem_add(key_tag, MemProt::Read);
            key_gate.sc_mem_add(session_tag, MemProt::ReadWrite);

            let mut finished_gate = SecurityPolicy::deny_all();
            finished_gate.sc_mem_add(session_tag, MemProt::ReadWrite);
            finished_gate.sc_mem_add(finished_tag, MemProt::ReadWrite);

            let key_trusted = || {
                TrustedArg::new(KeyGateTrusted {
                    key_buf,
                    session_state,
                    cache: cache.clone(),
                })
            };
            let finished_trusted = || {
                TrustedArg::new(FinishedGateTrusted {
                    session_state,
                    finished_state,
                })
            };

            let mut policy = SecurityPolicy::deny_all();
            policy.sc_cgate_add(gates.begin_handshake, key_gate.clone(), Some(key_trusted()));
            policy.sc_cgate_add(gates.setup_session_key, key_gate, Some(key_trusted()));
            policy.sc_cgate_add(
                gates.receive_finished,
                finished_gate.clone(),
                Some(finished_trusted()),
            );
            policy.sc_cgate_add(gates.send_finished, finished_gate, Some(finished_trusted()));
            policy
        };
        let current_link: LinkSlot = Arc::new(Mutex::new(None));
        let client_handler_policy = {
            let mut io_gate = SecurityPolicy::deny_all();
            io_gate.sc_mem_add(session_tag, MemProt::ReadWrite);
            let io_trusted = || {
                TrustedArg::new(IoGateTrusted {
                    session_state,
                    link: current_link.clone(),
                })
            };
            let mut policy = SecurityPolicy::deny_all();
            policy.sc_cgate_add(gates.ssl_read, io_gate.clone(), Some(io_trusted()));
            policy.sc_cgate_add(gates.ssl_write, io_gate, Some(io_trusted()));
            policy
        };

        // The phase bodies as registered entries: what a recycled sthread
        // runs. Each takes a typed job and a kernel-held trusted argument;
        // neither closes over anything of the server's.
        let ssl_handshake = kernel.cgate_register(
            "ssl-handshake",
            typed_entry(|ctx: &SthreadCtx, trusted, link: Arc<Duplex>| {
                let gates = trusted
                    .and_then(|t| t.downcast::<Gates>())
                    .ok_or(WedgeError::BadCallgateValue)?;
                Ok(handshake_main(ctx, &link, *gates, true))
            }),
        );
        let client_handler = kernel.cgate_register(
            "client-handler",
            typed_entry(|ctx: &SthreadCtx, trusted, _job: ()| {
                let (gates, pages) = trusted
                    .and_then(|t| t.downcast::<(Gates, PageStore)>())
                    .ok_or(WedgeError::BadCallgateValue)?;
                Ok(client_handler_main(ctx, *gates, true, pages))
            }),
        );
        let handshake_sthread = RecycledSthread::new(
            &root,
            ssl_handshake,
            &handshake_policy,
            Some(TrustedArg::new(gates)),
        );
        let client_handler_sthread = RecycledSthread::new(
            &root,
            client_handler,
            &client_handler_policy,
            Some(TrustedArg::new((gates, pages.clone()))),
        );

        Ok(WedgeApache {
            wedge,
            pages,
            config,
            cache,
            key_buf,
            session_state,
            finished_state,
            current_link,
            public_key: keypair.public,
            gates,
            handshake_policy,
            client_handler_policy,
            handshake_sthread,
            client_handler_sthread,
        })
    }

    /// The server's public key.
    pub fn public_key(&self) -> wedge_crypto::RsaPublicKey {
        self.public_key
    }

    /// The private-key region (for attack tests).
    pub fn key_buf(&self) -> SBuf {
        self.key_buf
    }

    /// The session-key region (for attack tests).
    pub fn session_state_buf(&self) -> SBuf {
        self.session_state
    }

    /// The finished-state region (for attack tests).
    pub fn finished_state_buf(&self) -> SBuf {
        self.finished_state
    }

    /// The Wedge runtime backing the server.
    pub fn wedge(&self) -> &Wedge {
        &self.wedge
    }

    /// The session-lookup service this instance consults (shared across
    /// shards — and, when it is a cache ring, across machines).
    pub fn session_cache(&self) -> &Arc<dyn SessionStore> {
        &self.cache
    }

    /// Whether this instance uses recycled callgates and sthreads.
    pub fn config(&self) -> ApacheConfig {
        self.config
    }

    /// Scrub the per-connection regions before a new connection.
    fn reset_regions(&self) -> Result<(), WedgeError> {
        let root = self.wedge.root();
        root.write(&self.session_state, 0, &SessionState::default().to_bytes())?;
        root.write(
            &self.finished_state,
            0,
            &FinishedState::default().to_bytes(),
        )?;
        Ok(())
    }

    /// The `ssl_handshake` sthread policy (attack tests build exploited
    /// sthreads with exactly this policy).
    pub fn handshake_policy(&self) -> SecurityPolicy {
        self.handshake_policy.clone()
    }

    /// The `client_handler` sthread policy.
    pub fn client_handler_policy(&self) -> SecurityPolicy {
        self.client_handler_policy.clone()
    }

    /// Serve one connection end to end (master logic, Figure 3): run the
    /// handshake sthread, and only if it exits successfully start the client
    /// handler sthread. On a recycled server "run" is a job handed to the
    /// phase's long-lived compartment, and "exit" its scrub.
    pub fn serve_connection(&self, link: Duplex) -> Result<ConnectionReport, WedgeError> {
        let link = Arc::new(link);
        self.reset_regions()?;
        *self.current_link.lock() = Some(link.clone());
        let mut report = ConnectionReport::default();

        // Phase 1: the SSL handshake sthread. The span covers spawn
        // through join — the full network-facing handshake phase — and
        // costs one relaxed load when the serving thread is untraced.
        let mut span = wedge_telemetry::trace::span(wedge_telemetry::SpanKind::Handshake, 0);
        let gates = self.gates;
        let recycled = self.config.recycled;
        let handshake_link = link.clone();
        let outcome = if recycled {
            self.handshake_sthread.run_expect(Box::new(handshake_link))
        } else {
            self.wedge
                .root()
                .sthread_create("ssl-handshake", &self.handshake_policy, move |ctx| {
                    handshake_main(ctx, &handshake_link, gates, false)
                })?
                .join()
        };
        // A handshake compartment that crashed is a handshake that failed.
        let outcome = outcome.unwrap_or_else(|crash| Err(crash.to_string()));
        if let Some(span) = span.as_mut() {
            span.set_ok(outcome.is_ok());
        }
        let Ok(outcome) = outcome else {
            *self.current_link.lock() = None;
            return Ok(report);
        };
        report.handshake_ok = true;
        report.resumed = outcome.resumed;
        if let Some(span) = span.as_mut() {
            span.set_detail(outcome.resumed as u32);
        }
        drop(span);

        // Phase 2: the client handler sthread (no network, no session key).
        let (served, rejected) = if recycled {
            self.client_handler_sthread.run_expect(Box::new(()))?
        } else {
            let pages = self.pages.clone();
            self.wedge
                .root()
                .sthread_create("client-handler", &self.client_handler_policy, move |ctx| {
                    client_handler_main(ctx, gates, false, &pages)
                })?
                .join()?
        };
        report.requests = served;
        report.rejected_records = rejected;
        // The master (root) records the derived-key fingerprint so callers
        // can compare both sides of a (possibly cross-shard-resumed)
        // handshake without touching the keys themselves.
        let state_bytes = self.wedge.root().read_all(&self.session_state)?;
        if let Some(state) = SessionState::from_bytes(&state_bytes) {
            if state.established {
                report.key_fingerprint = state.keys().fingerprint();
            }
        }
        *self.current_link.lock() = None;
        Ok(report)
    }
}

impl Drop for WedgeApache {
    /// Recycled-callgate workers hold the kernel and the kernel holds the
    /// workers; a dropped server takes them with it (their loops end on the
    /// closed channel and they retire themselves), so a shard restart leaks
    /// neither threads nor the kernel. The two recycled sthreads are fields:
    /// they go the same way when the struct's drop glue runs.
    fn drop(&mut self) {
        self.wedge.kernel().shutdown_recycled_workers();
    }
}

/// Outcome of the handshake sthread.
#[derive(Debug, Clone)]
struct HandshakeOutcome {
    resumed: bool,
}

/// No gate here takes argument-reading grants: one empty policy, built
/// once, instead of one per invocation.
static NO_EXTRA: std::sync::LazyLock<SecurityPolicy> =
    std::sync::LazyLock::new(SecurityPolicy::deny_all);

fn call<T: std::any::Any>(
    ctx: &SthreadCtx,
    recycled: bool,
    entry: CgEntryId,
    input: CgInput,
) -> Result<T, WedgeError> {
    if recycled {
        ctx.cgate_recycled_expect::<T>(entry, &NO_EXTRA, input)
    } else {
        ctx.cgate_expect::<T>(entry, &NO_EXTRA, input)
    }
}

/// The network-facing handshake sthread (phase 1).
fn handshake_main(
    ctx: &SthreadCtx,
    link: &Duplex,
    gates: Gates,
    recycled: bool,
) -> Result<HandshakeOutcome, String> {
    let _frame = ctx.trace_fn("ssl_handshake");
    let recv = |_what: &str| -> Result<Vec<u8>, String> {
        link.recv(RecvTimeout::After(HANDSHAKE_TIMEOUT))
            .map_err(|e| e.to_string())
    };

    let hello_bytes = recv("client hello")?;
    let hello = ClientHello::decode(&hello_bytes).map_err(|e| e.to_string())?;

    let begin: BeginReply = call(
        ctx,
        recycled,
        gates.begin_handshake,
        Box::new(BeginRequest {
            session_offer: hello.session_id,
            client_random: hello.client_random,
        }),
    )
    .map_err(|e| e.to_string())?;

    let server_hello = ServerHello {
        server_random: begin.server_random,
        session_id: begin.session_id,
        resumed: begin.resumed,
    };
    let server_hello_bytes = server_hello.encode();
    link.send(&server_hello_bytes).map_err(|e| e.to_string())?;
    let mut transcript = vec![hello_bytes, server_hello_bytes];

    if !begin.resumed {
        let kx_bytes = recv("client key exchange")?;
        let kx = ClientKeyExchange::decode(&kx_bytes).map_err(|e| e.to_string())?;
        transcript.push(kx_bytes);
        let ok: bool = call(
            ctx,
            recycled,
            gates.setup_session_key,
            Box::new(SetupKeyRequest {
                client_random: hello.client_random,
                encrypted_premaster: kx.encrypted_premaster,
                session_id: begin.session_id,
            }),
        )
        .map_err(|e| e.to_string())?;
        if !ok {
            return Err("setup_session_key rejected the premaster".to_string());
        }
    }

    let sealed_client_finished = recv("client finished")?;
    let verified: bool = call(
        ctx,
        recycled,
        gates.receive_finished,
        Box::new(ReceiveFinishedRequest {
            transcript: transcript.clone(),
            sealed_client_finished,
        }),
    )
    .map_err(|e| e.to_string())?;
    if !verified {
        return Err("client Finished did not verify".to_string());
    }

    let sealed_server_finished: Vec<u8> =
        call(ctx, recycled, gates.send_finished, Box::new(())).map_err(|e| e.to_string())?;
    link.send(&sealed_server_finished)
        .map_err(|e| e.to_string())?;

    Ok(HandshakeOutcome {
        resumed: begin.resumed,
    })
}

/// The client handler sthread (phase 2). It reads verified plaintext
/// through `ssl_read` until the connection closes; records that fail MAC
/// verification (e.g. attacker-injected data) are counted and dropped and
/// never reach the request-handling code.
fn client_handler_main(
    ctx: &SthreadCtx,
    gates: Gates,
    recycled: bool,
    pages: &PageStore,
) -> (u32, u32) {
    let _frame = ctx.trace_fn("client_handler");
    let mut served = 0u32;
    let mut rejected = 0u32;
    loop {
        match call::<SslReadReply>(ctx, recycled, gates.ssl_read, Box::new(())) {
            Ok(SslReadReply::Data(plaintext)) => {
                if let Some(request) = HttpRequest::parse(&plaintext) {
                    let response = pages.respond(&request);
                    if call::<bool>(ctx, recycled, gates.ssl_write, Box::new(response))
                        .unwrap_or(false)
                    {
                        served += 1;
                    }
                } else {
                    break;
                }
            }
            Ok(SslReadReply::Rejected) => rejected += 1,
            Ok(SslReadReply::Closed) | Err(_) => break,
        }
    }
    (served, rejected)
}

// ---------------------------------------------------------------------
// Callgate bodies
// ---------------------------------------------------------------------

fn load_session(ctx: &SthreadCtx, buf: &SBuf) -> Result<SessionState, WedgeError> {
    let bytes = ctx.read_all(buf)?;
    SessionState::from_bytes(&bytes).ok_or(WedgeError::BadCallgateValue)
}

fn store_session(ctx: &SthreadCtx, buf: &SBuf, state: &SessionState) -> Result<(), WedgeError> {
    ctx.write(buf, 0, &state.to_bytes())
}

fn begin_handshake(
    ctx: &SthreadCtx,
    trusted: &KeyGateTrusted,
    request: BeginRequest,
) -> Result<BeginReply, WedgeError> {
    let mut rng = WedgeRng::from_entropy();
    // The callgate — not the caller — generates the server's random
    // contribution (the §5.1.1 defence against session-key influence).
    let server_random = fresh_random(&mut rng);
    let mut state = SessionState {
        server_random,
        ..SessionState::default()
    };

    let resumed_premaster = request
        .session_offer
        .and_then(|id| trusted.cache.lookup(&id));
    let resumed = resumed_premaster.is_some();
    let session_id = request
        .session_offer
        .filter(|_| resumed)
        .unwrap_or_else(|| fresh_session_id(&mut rng));
    if let Some(premaster) = resumed_premaster {
        let keys = SessionKeys::derive(&premaster, &request.client_random, &server_random);
        state.install_keys(&premaster, &keys);
    }
    store_session(ctx, &trusted.session_state, &state)?;
    Ok(BeginReply {
        server_random,
        session_id,
        resumed,
    })
}

fn parse_private_key(bytes: &[u8]) -> Option<wedge_crypto::RsaPrivateKey> {
    let rest = bytes.strip_prefix(b"RSA-PRIVATE-KEY:")?;
    if rest.len() < 16 {
        return None;
    }
    Some(wedge_crypto::RsaPrivateKey {
        n: u64::from_le_bytes(rest[0..8].try_into().ok()?),
        d: u64::from_le_bytes(rest[8..16].try_into().ok()?),
    })
}

fn setup_session_key(
    ctx: &SthreadCtx,
    trusted: &KeyGateTrusted,
    request: SetupKeyRequest,
) -> Result<bool, WedgeError> {
    let mut state = load_session(ctx, &trusted.session_state)?;
    // Only this callgate's policy includes the private-key tag.
    let key_bytes = ctx.read_all(&trusted.key_buf)?;
    let Some(private) = parse_private_key(&key_bytes) else {
        return Ok(false);
    };
    let Ok(premaster) = private.decrypt(&request.encrypted_premaster) else {
        return Ok(false);
    };
    let keys = SessionKeys::derive(&premaster, &request.client_random, &state.server_random);
    state.install_keys(&premaster, &keys);
    store_session(ctx, &trusted.session_state, &state)?;
    trusted.cache.insert(request.session_id, premaster);
    Ok(true)
}

fn receive_finished(
    ctx: &SthreadCtx,
    trusted: &FinishedGateTrusted,
    request: ReceiveFinishedRequest,
) -> Result<bool, WedgeError> {
    let mut state = load_session(ctx, &trusted.session_state)?;
    if !state.established {
        return Ok(false);
    }
    let keys = state.keys();
    let mut from_client = RecordLayer::resume(
        &keys.material.client_write_key,
        &keys.material.client_mac_key,
        0,
        state.recv_seq,
    );
    let Ok(plaintext) = from_client.open(&request.sealed_client_finished) else {
        // An exploited handshake sthread passing arbitrary ciphertext (e.g.
        // traffic captured from the legitimate client) learns nothing: the
        // cleartext is never returned.
        return Ok(false);
    };
    let Ok(finished) = Finished::decode(&plaintext) else {
        return Ok(false);
    };
    let th = transcript_hash(&request.transcript);
    let expected = finished_verify_data(&keys.master_secret, CLIENT_FINISHED_LABEL, &th);
    if finished.verify_data != expected {
        return Ok(false);
    }
    // Record the post-client-Finished transcript hash for send_finished.
    let mut full_transcript = request.transcript.clone();
    full_transcript.push(plaintext);
    let final_hash = transcript_hash(&full_transcript);
    state.recv_seq = from_client.received();
    store_session(ctx, &trusted.session_state, &state)?;
    ctx.write(
        &trusted.finished_state,
        0,
        &FinishedState {
            transcript_hash: final_hash,
            client_verified: true,
        }
        .to_bytes(),
    )?;
    Ok(true)
}

fn send_finished(ctx: &SthreadCtx, trusted: &FinishedGateTrusted) -> Result<Vec<u8>, WedgeError> {
    let mut state = load_session(ctx, &trusted.session_state)?;
    let finished_bytes = ctx.read_all(&trusted.finished_state)?;
    let finished_state =
        FinishedState::from_bytes(&finished_bytes).ok_or(WedgeError::BadCallgateValue)?;
    if !state.established || !finished_state.client_verified {
        return Err(WedgeError::InvalidOperation(
            "send_finished before receive_finished".to_string(),
        ));
    }
    let keys = state.keys();
    let verify_data = finished_verify_data(
        &keys.master_secret,
        SERVER_FINISHED_LABEL,
        &finished_state.transcript_hash,
    );
    let mut to_client = RecordLayer::resume(
        &keys.material.server_write_key,
        &keys.material.server_mac_key,
        state.send_seq,
        0,
    );
    let sealed = to_client.seal(&Finished { verify_data }.encode());
    state.send_seq = to_client.sent();
    store_session(ctx, &trusted.session_state, &state)?;
    Ok(sealed)
}

fn ssl_read(ctx: &SthreadCtx, trusted: &IoGateTrusted) -> Result<SslReadReply, WedgeError> {
    let mut state = load_session(ctx, &trusted.session_state)?;
    if !state.established {
        return Ok(SslReadReply::Closed);
    }
    let Some(link) = trusted.link.lock().clone() else {
        return Ok(SslReadReply::Closed);
    };
    let keys = state.keys();
    let Ok(record) = link.recv(RecvTimeout::After(HANDSHAKE_TIMEOUT)) else {
        return Ok(SslReadReply::Closed);
    };
    let mut from_client = RecordLayer::resume(
        &keys.material.client_write_key,
        &keys.material.client_mac_key,
        0,
        state.recv_seq,
    );
    match from_client.open(&record) {
        Ok(plaintext) => {
            state.recv_seq = from_client.received();
            store_session(ctx, &trusted.session_state, &state)?;
            Ok(SslReadReply::Data(plaintext))
        }
        Err(_) => Ok(SslReadReply::Rejected),
    }
}

fn ssl_write(
    ctx: &SthreadCtx,
    trusted: &IoGateTrusted,
    plaintext: &[u8],
) -> Result<bool, WedgeError> {
    let mut state = load_session(ctx, &trusted.session_state)?;
    if !state.established {
        return Ok(false);
    }
    let Some(link) = trusted.link.lock().clone() else {
        return Ok(false);
    };
    let keys = state.keys();
    let mut to_client = RecordLayer::resume(
        &keys.material.server_write_key,
        &keys.material.server_mac_key,
        state.send_seq,
        0,
    );
    let sealed = to_client.seal(plaintext);
    state.send_seq = to_client.sent();
    store_session(ctx, &trusted.session_state, &state)?;
    Ok(link.send(&sealed).is_ok())
}

#[cfg(test)]
mod tests {
    use super::*;
    use wedge_core::Exploit;
    use wedge_net::duplex_pair;
    use wedge_tls::TlsClient;

    fn keypair(seed: u64) -> RsaKeyPair {
        RsaKeyPair::generate(&mut WedgeRng::from_seed(seed))
    }

    fn run_one_request(
        server: &WedgeApache,
        client: &mut TlsClient,
        path: &str,
    ) -> (ConnectionReport, Vec<u8>) {
        let (client_link, server_link) = duplex_pair("client", "server");
        std::thread::scope(|scope| {
            let handle = scope.spawn(|| server.serve_connection(server_link).unwrap());
            let mut conn = client.connect(&client_link).unwrap();
            conn.send(
                &client_link,
                format!("GET {path} HTTP/1.0\r\n\r\n").as_bytes(),
            )
            .unwrap();
            let response = conn.recv(&client_link).unwrap();
            drop(conn);
            drop(client_link);
            (handle.join().unwrap(), response)
        })
    }

    #[test]
    fn full_connection_with_standard_callgates() {
        let server = WedgeApache::new(
            Wedge::init(),
            keypair(1),
            PageStore::sample(),
            ApacheConfig { recycled: false },
        )
        .unwrap();
        let mut client = TlsClient::new(server.public_key(), WedgeRng::from_seed(2));
        let (report, response) = run_one_request(&server, &mut client, "/index.html");
        assert!(report.handshake_ok);
        assert!(!report.resumed);
        assert_eq!(report.requests, 1);
        assert!(response.starts_with(b"HTTP/1.0 200 OK"));
        // Each request creates two sthreads and invokes several callgates.
        let stats = server.wedge().kernel().stats();
        assert_eq!(stats.sthreads_created, 2);
        assert!(stats.callgate_invocations >= 5);
    }

    #[test]
    fn full_connection_with_recycled_callgates_and_resumption() {
        let server = WedgeApache::new(
            Wedge::init(),
            keypair(3),
            PageStore::sample(),
            ApacheConfig { recycled: true },
        )
        .unwrap();
        let mut client = TlsClient::new(server.public_key(), WedgeRng::from_seed(4));
        let (first, response) = run_one_request(&server, &mut client, "/");
        assert!(first.handshake_ok, "first recycled connection must work");
        assert!(!first.resumed);
        assert!(response.starts_with(b"HTTP/1.0 200 OK"));
        let (second, response2) = run_one_request(&server, &mut client, "/account");
        assert!(second.handshake_ok);
        assert!(
            second.resumed,
            "second connection must hit the session cache"
        );
        assert!(response2.windows(7).any(|w| w == b"balance"));
        assert!(server.wedge().kernel().stats().recycled_invocations > 0);
    }

    #[test]
    fn exploited_handshake_sthread_cannot_reach_key_or_session_state() {
        let server = WedgeApache::new(
            Wedge::init(),
            keypair(5),
            PageStore::sample(),
            ApacheConfig::default(),
        )
        .unwrap();
        let policy = server.handshake_policy();
        let key_buf = server.key_buf();
        let session_state = server.session_state_buf();
        let finished_state = server.finished_state_buf();
        let handle = server
            .wedge()
            .root()
            .sthread_create("exploited-handshake", &policy, move |ctx| {
                let mut exploit = Exploit::seize(ctx);
                (
                    exploit.try_read(&key_buf).is_err(),
                    exploit.try_read(&session_state).is_err(),
                    exploit.try_read(&finished_state).is_err(),
                )
            })
            .unwrap();
        let (key_denied, session_denied, finished_denied) = handle.join().unwrap();
        assert!(key_denied, "private key must be unreachable");
        assert!(session_denied, "session key region must be unreachable");
        assert!(finished_denied, "finished_state must be unreachable");
    }

    #[test]
    fn client_handler_has_no_network_and_no_session_key() {
        let server = WedgeApache::new(
            Wedge::init(),
            keypair(6),
            PageStore::sample(),
            ApacheConfig::default(),
        )
        .unwrap();
        let policy = server.client_handler_policy();
        // The policy grants no memory at all; only the two IO callgates.
        assert!(policy.mem_grants().is_empty());
        assert_eq!(policy.callgate_grants().len(), 2);
        assert!(policy.mem_grant(server.session_state_buf().tag).is_none());
    }
}
