//! The §5.1.1 partitioning: protect the private key, and keep the worker
//! from influencing session-key generation.
//!
//! One unprivileged worker sthread is created per connection and terminates
//! after serving a single request. The RSA private key lives in tagged
//! memory only the `setup_session_key` callgate can read; that callgate also
//! generates the server's random contribution itself, so an exploited
//! worker "cannot usefully influence the generated session key". The
//! callgate *returns the established session key* to the worker — which is
//! exactly why this partitioning, while sufficient against a passive
//! eavesdropper, falls to the man-in-the-middle + exploit combination that
//! §5.1.2 addresses (see [`crate::attacks`]).

use std::sync::Arc;

use parking_lot::Mutex;

use wedge_core::callgate::typed_entry;
use wedge_core::{
    CgEntryId, MemProt, SBuf, SecurityPolicy, SthreadCtx, SthreadHandle, Tag, TrustedArg, Wedge,
    WedgeError,
};
use wedge_crypto::{RsaKeyPair, RsaPrivateKey, WedgeRng};
use wedge_net::{Duplex, RecvTimeout};
use wedge_tls::handshake::{
    finished_verify_data, fresh_random, fresh_session_id, transcript_hash, CLIENT_FINISHED_LABEL,
    HANDSHAKE_TIMEOUT, SERVER_FINISHED_LABEL,
};
use wedge_tls::messages::{ClientHello, ClientKeyExchange, Finished, ServerHello};
use wedge_tls::{RecordLayer, SessionId, SessionKeys, SharedSessionCache, TlsError};

use crate::http::{HttpRequest, PageStore};
use crate::vanilla::serialize_private_key;

/// Parse the serialized private key stored in tagged memory.
fn parse_private_key(bytes: &[u8]) -> Option<RsaPrivateKey> {
    let rest = bytes.strip_prefix(b"RSA-PRIVATE-KEY:")?;
    if rest.len() < 16 {
        return None;
    }
    Some(RsaPrivateKey {
        n: u64::from_le_bytes(rest[0..8].try_into().ok()?),
        d: u64::from_le_bytes(rest[8..16].try_into().ok()?),
    })
}

/// Trusted argument of the `setup_session_key` callgate.
struct SetupTrusted {
    key_buf: SBuf,
    cache: Arc<SharedSessionCache>,
    /// Per-connection scratch holding the server random between the two
    /// phases (only the callgate can read or write it).
    scratch: Arc<Mutex<SetupScratch>>,
}

#[derive(Default)]
struct SetupScratch {
    server_random: Option<[u8; 32]>,
    resumed_premaster: Option<Vec<u8>>,
    session_id: Option<SessionId>,
}

/// Input to the `setup_session_key` callgate.
#[derive(Debug, Clone)]
pub enum SetupRequest {
    /// Phase 1: the worker forwards the client's hello; the callgate
    /// chooses the server random and the session id.
    Begin {
        /// The session id the client offered for resumption, if any.
        session_offer: Option<SessionId>,
    },
    /// Phase 2: the worker forwards the encrypted premaster (empty for a
    /// resumed session) and the client random; the callgate derives and
    /// returns the session keys.
    Complete {
        /// The client's random contribution (public, from ClientHello).
        client_random: [u8; 32],
        /// The RSA-encrypted premaster secret (empty when resuming).
        encrypted_premaster: Vec<u8>,
    },
}

/// Output of the `setup_session_key` callgate.
#[derive(Debug, Clone)]
pub enum SetupReply {
    /// Phase 1 result.
    Begun {
        /// The server's random contribution (generated by the callgate).
        server_random: [u8; 32],
        /// The session id for this connection.
        session_id: SessionId,
        /// Whether the offered session was found in the cache.
        resumed: bool,
    },
    /// Phase 2 result: the derived session keys, handed to the worker.
    Keys(SessionKeys),
    /// The request was malformed or out of order.
    Failed(String),
}

/// Report from a worker after serving its single request.
#[derive(Debug, Clone, Default)]
pub struct WorkerReport {
    /// Did the handshake complete?
    pub handshake_ok: bool,
    /// Was the session resumed?
    pub resumed: bool,
    /// Was a request served?
    pub served: bool,
}

/// The §5.1.1-partitioned HTTPS server.
pub struct SimpleApache {
    wedge: Wedge,
    pages: PageStore,
    cache: Arc<SharedSessionCache>,
    key_tag: Tag,
    key_buf: SBuf,
    setup_entry: CgEntryId,
    public_key: wedge_crypto::RsaPublicKey,
}

impl SimpleApache {
    /// Build the server: place the private key in its own tagged region and
    /// register the `setup_session_key` callgate.
    pub fn new(
        wedge: Wedge,
        keypair: RsaKeyPair,
        pages: PageStore,
    ) -> Result<SimpleApache, WedgeError> {
        let root = wedge.root();
        let key_tag = root.tag_new()?;
        let key_buf = root.smalloc_init(key_tag, &serialize_private_key(&keypair))?;
        let setup_entry = wedge.kernel().cgate_register(
            "setup_session_key",
            typed_entry(|ctx: &SthreadCtx, trusted, request: SetupRequest| {
                let _frame = ctx.trace_fn("setup_session_key");
                let trusted = trusted
                    .and_then(|t| t.downcast::<SetupTrusted>())
                    .ok_or(WedgeError::BadCallgateValue)?;
                Ok(setup_session_key(ctx, trusted, request))
            }),
        );
        Ok(SimpleApache {
            wedge,
            pages,
            cache: Arc::new(SharedSessionCache::new()),
            key_tag,
            key_buf,
            setup_entry,
            public_key: keypair.public,
        })
    }

    /// The server's public key.
    pub fn public_key(&self) -> wedge_crypto::RsaPublicKey {
        self.public_key
    }

    /// The private-key region (attack tests probe it).
    pub fn key_buf(&self) -> SBuf {
        self.key_buf
    }

    /// The Wedge runtime backing the server.
    pub fn wedge(&self) -> &Wedge {
        &self.wedge
    }

    /// The worker's security policy: no memory grants at all, just the
    /// callgate (whose own policy reads the key tag).
    pub fn worker_policy(&self) -> SecurityPolicy {
        let mut gate_policy = SecurityPolicy::deny_all();
        gate_policy.sc_mem_add(self.key_tag, MemProt::Read);
        let mut worker = SecurityPolicy::deny_all();
        worker.sc_cgate_add(
            self.setup_entry,
            gate_policy,
            Some(TrustedArg::new(SetupTrusted {
                key_buf: self.key_buf,
                cache: self.cache.clone(),
                scratch: Arc::new(Mutex::new(SetupScratch::default())),
            })),
        );
        worker
    }

    /// Serve one connection on a fresh per-connection worker sthread.
    /// Returns the worker's handle; its result also carries the session
    /// keys so the attack harness can model "the exploited worker leaks the
    /// session key".
    pub fn serve_connection(
        &self,
        link: Duplex,
    ) -> Result<SthreadHandle<(WorkerReport, Option<SessionKeys>)>, WedgeError> {
        let policy = self.worker_policy();
        let pages = self.pages.clone();
        let setup_entry = self.setup_entry;
        self.wedge
            .root()
            .sthread_create("apache-worker", &policy, move |ctx| {
                worker_main(ctx, &link, setup_entry, &pages)
            })
    }
}

/// The privileged callgate body.
fn setup_session_key(
    ctx: &SthreadCtx,
    trusted: &SetupTrusted,
    request: SetupRequest,
) -> SetupReply {
    match request {
        SetupRequest::Begin { session_offer } => {
            let mut rng = WedgeRng::from_entropy();
            // The callgate, not the worker, chooses the server random.
            let server_random = fresh_random(&mut rng);
            let resumed_premaster = session_offer.and_then(|id| trusted.cache.lookup(&id));
            let resumed = resumed_premaster.is_some();
            let session_id = session_offer
                .filter(|_| resumed)
                .unwrap_or_else(|| fresh_session_id(&mut rng));
            let mut scratch = trusted.scratch.lock();
            scratch.server_random = Some(server_random);
            scratch.resumed_premaster = resumed_premaster;
            scratch.session_id = Some(session_id);
            SetupReply::Begun {
                server_random,
                session_id,
                resumed,
            }
        }
        SetupRequest::Complete {
            client_random,
            encrypted_premaster,
        } => {
            let scratch = trusted.scratch.lock();
            let Some(server_random) = scratch.server_random else {
                return SetupReply::Failed("Complete before Begin".to_string());
            };
            let premaster = if let Some(premaster) = &scratch.resumed_premaster {
                premaster.clone()
            } else {
                // Only this callgate can read the private key region.
                let key_bytes = match ctx.read_all(&trusted.key_buf) {
                    Ok(bytes) => bytes,
                    Err(e) => return SetupReply::Failed(format!("key unreadable: {e}")),
                };
                let Some(private) = parse_private_key(&key_bytes) else {
                    return SetupReply::Failed("corrupt key region".to_string());
                };
                match private.decrypt(&encrypted_premaster) {
                    Ok(premaster) => premaster,
                    Err(e) => return SetupReply::Failed(format!("bad premaster: {e}")),
                }
            };
            if let Some(session_id) = scratch.session_id {
                trusted.cache.insert(session_id, premaster.clone());
            }
            let keys = SessionKeys::derive(&premaster, &client_random, &server_random);
            SetupReply::Keys(keys)
        }
    }
}

/// The unprivileged per-connection worker.
fn worker_main(
    ctx: &SthreadCtx,
    link: &Duplex,
    setup_entry: CgEntryId,
    pages: &PageStore,
) -> (WorkerReport, Option<SessionKeys>) {
    let _frame = ctx.trace_fn("apache_worker");
    let mut report = WorkerReport::default();
    let no_extra = SecurityPolicy::deny_all();

    let Ok(hello_bytes) = link.recv(RecvTimeout::After(HANDSHAKE_TIMEOUT)) else {
        return (report, None);
    };
    let Ok(hello) = ClientHello::decode(&hello_bytes) else {
        return (report, None);
    };
    let begin = match ctx.cgate_expect::<SetupReply>(
        setup_entry,
        &no_extra,
        Box::new(SetupRequest::Begin {
            session_offer: hello.session_id,
        }),
    ) {
        Ok(SetupReply::Begun {
            server_random,
            session_id,
            resumed,
        }) => (server_random, session_id, resumed),
        _ => return (report, None),
    };
    report.resumed = begin.2;
    let server_hello = ServerHello {
        server_random: begin.0,
        session_id: begin.1,
        resumed: begin.2,
    };
    let server_hello_bytes = server_hello.encode();
    if link.send(&server_hello_bytes).is_err() {
        return (report, None);
    }
    let mut transcript = vec![hello_bytes, server_hello_bytes];

    let encrypted_premaster = if begin.2 {
        Vec::new()
    } else {
        let Ok(kx_bytes) = link.recv(RecvTimeout::After(HANDSHAKE_TIMEOUT)) else {
            return (report, None);
        };
        let Ok(kx) = ClientKeyExchange::decode(&kx_bytes) else {
            return (report, None);
        };
        transcript.push(kx_bytes);
        kx.encrypted_premaster
    };

    let keys = match ctx.cgate_expect::<SetupReply>(
        setup_entry,
        &no_extra,
        Box::new(SetupRequest::Complete {
            client_random: hello.client_random,
            encrypted_premaster,
        }),
    ) {
        Ok(SetupReply::Keys(keys)) => keys,
        _ => return (report, None),
    };

    // From here on the worker holds the session key (the §5.1.1 design) and
    // completes the handshake and the request itself.
    let mut from_client = RecordLayer::new(
        &keys.material.client_write_key,
        &keys.material.client_mac_key,
    );
    let mut to_client = RecordLayer::new(
        &keys.material.server_write_key,
        &keys.material.server_mac_key,
    );

    let Ok(client_finished_record) = link.recv(RecvTimeout::After(HANDSHAKE_TIMEOUT)) else {
        return (report, Some(keys));
    };
    let Ok(client_finished_bytes) = from_client.open(&client_finished_record) else {
        return (report, Some(keys));
    };
    let Ok(client_finished) = Finished::decode(&client_finished_bytes) else {
        return (report, Some(keys));
    };
    let th = transcript_hash(&transcript);
    if client_finished.verify_data
        != finished_verify_data(&keys.master_secret, CLIENT_FINISHED_LABEL, &th)
    {
        return (report, Some(keys));
    }
    transcript.push(client_finished_bytes);
    let th_final = transcript_hash(&transcript);
    let server_finished = Finished {
        verify_data: finished_verify_data(&keys.master_secret, SERVER_FINISHED_LABEL, &th_final),
    };
    if link
        .send_owned(to_client.seal(&server_finished.encode()))
        .is_err()
    {
        return (report, Some(keys));
    }
    report.handshake_ok = true;

    // Serve a single request (the worker terminates after one request to
    // isolate successive requests from one another).
    let next = || Ok::<_, TlsError>(link.recv(RecvTimeout::After(HANDSHAKE_TIMEOUT))?);
    if let Ok(plaintext) = from_client.open_message(next) {
        if let Some(request) = HttpRequest::parse(&plaintext) {
            let response = pages.respond(&request);
            let sent = to_client.seal_message(&response, |record| link.send_owned(record));
            report.served = sent.is_ok();
        }
    }
    (report, Some(keys))
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

    #[test]
    fn client_completes_handshake_and_gets_a_page() {
        let server = SimpleApache::new(Wedge::init(), keypair(1), PageStore::sample()).unwrap();
        let (client_link, server_link) = duplex_pair("client", "server");
        let handle = server.serve_connection(server_link).unwrap();
        let mut client = TlsClient::new(server.public_key(), WedgeRng::from_seed(2));
        let mut conn = client.connect(&client_link).unwrap();
        conn.send(&client_link, b"GET /account HTTP/1.0\r\n\r\n")
            .unwrap();
        let response = conn.recv(&client_link).unwrap();
        assert!(response.starts_with(b"HTTP/1.0 200 OK"));
        assert!(response.windows(7).any(|w| w == b"balance"));
        let (report, keys) = handle.join().unwrap();
        assert!(report.handshake_ok);
        assert!(report.served);
        assert_eq!(keys.unwrap().fingerprint(), conn.keys.fingerprint());
    }

    #[test]
    fn session_resumption_works() {
        let server = SimpleApache::new(Wedge::init(), keypair(3), PageStore::sample()).unwrap();
        let mut client = TlsClient::new(server.public_key(), WedgeRng::from_seed(4));
        for round in 0..2 {
            let (client_link, server_link) = duplex_pair("client", "server");
            let handle = server.serve_connection(server_link).unwrap();
            let mut conn = client.connect(&client_link).unwrap();
            conn.send(&client_link, b"GET / HTTP/1.0\r\n\r\n").unwrap();
            conn.recv(&client_link).unwrap();
            let (report, _) = handle.join().unwrap();
            assert_eq!(report.resumed, round == 1);
            assert_eq!(conn.resumed, round == 1);
        }
    }

    #[test]
    fn exploited_worker_cannot_read_the_private_key() {
        let server = SimpleApache::new(Wedge::init(), keypair(5), PageStore::sample()).unwrap();
        let key_buf = server.key_buf();
        let policy = server.worker_policy();
        let handle = server
            .wedge()
            .root()
            .sthread_create("exploited-worker", &policy, move |ctx| {
                let mut exploit = Exploit::seize(ctx);
                let direct = exploit.try_read(&key_buf);
                (direct.is_err(), exploit.loot_contains(b"RSA-PRIVATE-KEY"))
            })
            .unwrap();
        let (denied, leaked) = handle.join().unwrap();
        assert!(denied);
        assert!(!leaked);
    }

    #[test]
    fn callgate_rejects_out_of_order_and_garbage_input() {
        let server = SimpleApache::new(Wedge::init(), keypair(6), PageStore::sample()).unwrap();
        let policy = server.worker_policy();
        let entry = server.setup_entry;
        let handle = server
            .wedge()
            .root()
            .sthread_create("worker", &policy, move |ctx| {
                // Complete before Begin.
                let premature = ctx
                    .cgate_expect::<SetupReply>(
                        entry,
                        &SecurityPolicy::deny_all(),
                        Box::new(SetupRequest::Complete {
                            client_random: [0u8; 32],
                            encrypted_premaster: vec![1, 2, 3],
                        }),
                    )
                    .unwrap();
                // Begin, then Complete with garbage ciphertext.
                let _ = ctx
                    .cgate_expect::<SetupReply>(
                        entry,
                        &SecurityPolicy::deny_all(),
                        Box::new(SetupRequest::Begin {
                            session_offer: None,
                        }),
                    )
                    .unwrap();
                let garbage = ctx
                    .cgate_expect::<SetupReply>(
                        entry,
                        &SecurityPolicy::deny_all(),
                        Box::new(SetupRequest::Complete {
                            client_random: [0u8; 32],
                            encrypted_premaster: vec![1, 2, 3],
                        }),
                    )
                    .unwrap();
                (premature, garbage)
            })
            .unwrap();
        let (premature, garbage) = handle.join().unwrap();
        assert!(matches!(premature, SetupReply::Failed(_)));
        assert!(matches!(garbage, SetupReply::Failed(_)));
    }
}
