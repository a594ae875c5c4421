//! Handshake computations, a complete client, and a monolithic server.
//!
//! The individual steps are free functions so the Wedge-partitioned server
//! can wrap each one in a callgate with exactly the privileges the paper
//! prescribes (`setup_session_key`, `receive_finished`, `send_finished`,
//! `ssl_read`, `ssl_write`), while the vanilla baseline simply calls
//! [`server_handshake`] in one compartment.

use std::time::Duration;

use wedge_crypto::{hmac_sha256, sha256::Sha256, RsaKeyPair, RsaPublicKey, WedgeRng};
use wedge_net::{Duplex, NetError, RecvTimeout};

use crate::messages::{
    ClientHello, ClientKeyExchange, DecodeError, Finished, ServerHello, PREMASTER_LEN, RANDOM_LEN,
};
use crate::record::{RecordError, RecordLayer};
use crate::session::{SessionId, SessionKeys, SessionStore};

/// Label mixed into the client's Finished verify data.
pub const CLIENT_FINISHED_LABEL: &[u8] = b"client finished";
/// Label mixed into the server's Finished verify data.
pub const SERVER_FINISHED_LABEL: &[u8] = b"server finished";

/// How long handshake steps wait for the peer before giving up.
pub const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(5);

/// Errors from the handshake or the record channel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TlsError {
    /// A handshake message failed to decode.
    Decode(DecodeError),
    /// A record failed MAC verification or was malformed.
    Record(RecordError),
    /// The transport failed (peer gone, timeout).
    Transport(String),
    /// The peer's Finished message did not verify, or the handshake was
    /// otherwise inconsistent.
    HandshakeFailed(String),
    /// An RSA operation failed (bad ciphertext from the peer).
    Crypto(String),
}

impl std::fmt::Display for TlsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TlsError::Decode(e) => write!(f, "decode error: {e}"),
            TlsError::Record(e) => write!(f, "record error: {e}"),
            TlsError::Transport(e) => write!(f, "transport error: {e}"),
            TlsError::HandshakeFailed(e) => write!(f, "handshake failed: {e}"),
            TlsError::Crypto(e) => write!(f, "crypto error: {e}"),
        }
    }
}

impl std::error::Error for TlsError {}

impl From<DecodeError> for TlsError {
    fn from(e: DecodeError) -> Self {
        TlsError::Decode(e)
    }
}

impl From<RecordError> for TlsError {
    fn from(e: RecordError) -> Self {
        TlsError::Record(e)
    }
}

impl From<NetError> for TlsError {
    fn from(e: NetError) -> Self {
        TlsError::Transport(e.to_string())
    }
}

/// Hash the handshake transcript: the concatenation of all handshake
/// messages exchanged so far, each length-prefixed.
pub fn transcript_hash(messages: &[Vec<u8>]) -> [u8; 32] {
    let mut hasher = Sha256::new();
    for message in messages {
        hasher.update(&(message.len() as u64).to_be_bytes());
        hasher.update(message);
    }
    hasher.finalize()
}

/// Compute a Finished payload: `HMAC(master_secret, label ‖ transcript)`.
/// Because this is a (keyed) hash, an attacker who controls the transcript
/// inputs still "cannot choose the input that send_finished encrypts, by the
/// hash function's non-invertibility" (§5.1.2).
pub fn finished_verify_data(master_secret: &[u8], label: &[u8], transcript: &[u8; 32]) -> Vec<u8> {
    let mut message = label.to_vec();
    message.extend_from_slice(transcript);
    hmac_sha256(master_secret, &message).to_vec()
}

/// Generate a fresh random contribution.
pub fn fresh_random(rng: &mut WedgeRng) -> [u8; RANDOM_LEN] {
    let mut random = [0u8; RANDOM_LEN];
    rng.fill_bytes(&mut random);
    random
}

/// Generate a fresh premaster secret.
pub(crate) fn fresh_premaster(rng: &mut WedgeRng) -> Vec<u8> {
    rng.bytes(PREMASTER_LEN)
}

/// Generate a fresh session id.
pub fn fresh_session_id(rng: &mut WedgeRng) -> SessionId {
    SessionId::from_bytes(&rng.bytes(16)).expect("16 bytes")
}

fn recv(link: &Duplex) -> Result<Vec<u8>, TlsError> {
    Ok(link.recv(RecvTimeout::After(HANDSHAKE_TIMEOUT))?)
}

// ---------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------

/// A (legitimate) SSL client. It trusts `server_public_key` out of band —
/// certificate handling is outside the paper's scope.
#[derive(Debug, Clone)]
pub struct TlsClient {
    /// The server's public key.
    pub server_public_key: RsaPublicKey,
    /// Client-side randomness.
    pub rng: WedgeRng,
    /// A cached session (id + premaster) from a previous connection, used
    /// to request resumption.
    pub cached_session: Option<(SessionId, Vec<u8>)>,
}

/// An established client-side connection.
#[derive(Debug, Clone)]
pub struct TlsClientConnection {
    send_layer: RecordLayer,
    recv_layer: RecordLayer,
    /// The session id the server assigned.
    pub session_id: SessionId,
    /// The keys derived for this connection (kept so tests can assert what
    /// an attacker would need to know).
    pub keys: SessionKeys,
    /// The premaster secret (kept for caching / resumption).
    pub premaster: Vec<u8>,
    /// Whether the handshake used session resumption.
    pub resumed: bool,
}

impl TlsClient {
    /// A client with no cached session.
    pub fn new(server_public_key: RsaPublicKey, rng: WedgeRng) -> TlsClient {
        TlsClient {
            server_public_key,
            rng,
            cached_session: None,
        }
    }

    /// Perform the handshake over `link`.
    pub fn connect(&mut self, link: &Duplex) -> Result<TlsClientConnection, TlsError> {
        let client_random = fresh_random(&mut self.rng);
        let hello = ClientHello {
            client_random,
            session_id: self.cached_session.as_ref().map(|(id, _)| *id),
        };
        let hello_bytes = hello.encode();
        link.send(&hello_bytes)?;
        let mut transcript = vec![hello_bytes];

        let server_hello_bytes = recv(link)?;
        let server_hello = ServerHello::decode(&server_hello_bytes)?;
        transcript.push(server_hello_bytes);

        let premaster = if server_hello.resumed {
            match &self.cached_session {
                Some((cached_id, premaster)) if *cached_id == server_hello.session_id => {
                    premaster.clone()
                }
                _ => {
                    return Err(TlsError::HandshakeFailed(
                        "server resumed a session we do not hold".to_string(),
                    ))
                }
            }
        } else {
            let premaster = fresh_premaster(&mut self.rng);
            let kx = ClientKeyExchange {
                encrypted_premaster: self.server_public_key.encrypt(&premaster),
            };
            let kx_bytes = kx.encode();
            link.send(&kx_bytes)?;
            transcript.push(kx_bytes);
            premaster
        };

        let keys = SessionKeys::derive(&premaster, &client_random, &server_hello.server_random);
        let mut send_layer = RecordLayer::new(
            &keys.material.client_write_key,
            &keys.material.client_mac_key,
        );
        let mut recv_layer = RecordLayer::new(
            &keys.material.server_write_key,
            &keys.material.server_mac_key,
        );

        // Client Finished.
        let th = transcript_hash(&transcript);
        let client_finished = Finished {
            verify_data: finished_verify_data(&keys.master_secret, CLIENT_FINISHED_LABEL, &th),
        };
        let client_finished_bytes = client_finished.encode();
        link.send_owned(send_layer.seal(&client_finished_bytes))?;
        transcript.push(client_finished_bytes);

        // Server Finished.
        let server_finished_record = recv(link)?;
        let server_finished = Finished::decode(&recv_layer.open(&server_finished_record)?)?;
        let th_final = transcript_hash(&transcript);
        let expected = finished_verify_data(&keys.master_secret, SERVER_FINISHED_LABEL, &th_final);
        if server_finished.verify_data != expected {
            return Err(TlsError::HandshakeFailed(
                "server Finished did not verify".to_string(),
            ));
        }

        // Remember the session for future resumption.
        self.cached_session = Some((server_hello.session_id, premaster.clone()));

        Ok(TlsClientConnection {
            send_layer,
            recv_layer,
            session_id: server_hello.session_id,
            keys,
            premaster,
            resumed: server_hello.resumed,
        })
    }
}

impl TlsClientConnection {
    /// Send one application message, a record per 16 KiB of it.
    pub fn send(&mut self, link: &Duplex, data: &[u8]) -> Result<(), TlsError> {
        Ok(self
            .send_layer
            .seal_message(data, |record| link.send_owned(record))?)
    }

    /// Receive one whole application message.
    pub fn recv(&mut self, link: &Duplex) -> Result<Vec<u8>, TlsError> {
        self.recv_layer.open_message(|| recv(link))
    }
}

// ---------------------------------------------------------------------
// Monolithic server (the vanilla baseline)
// ---------------------------------------------------------------------

/// An established server-side connection (monolithic server only; the
/// partitioned server keeps these pieces in separate compartments).
#[derive(Debug, Clone)]
pub struct ServerConnection {
    /// Layer that opens client→server records.
    pub from_client: RecordLayer,
    /// Layer that seals server→client records.
    pub to_client: RecordLayer,
    /// The session id assigned to this connection.
    pub session_id: SessionId,
    /// The derived keys (in a monolithic server these sit in the same
    /// address space as all request-parsing code — the vulnerability Wedge
    /// removes).
    pub keys: SessionKeys,
    /// Whether the connection resumed a cached session.
    pub resumed: bool,
}

impl ServerConnection {
    /// Receive one whole application message from the client.
    pub fn recv(&mut self, link: &Duplex) -> Result<Vec<u8>, TlsError> {
        self.from_client.open_message(|| recv(link))
    }

    /// Send one application message to the client, a record per 16 KiB of
    /// it.
    pub fn send(&mut self, link: &Duplex, data: &[u8]) -> Result<(), TlsError> {
        Ok(self
            .to_client
            .seal_message(data, |record| link.send_owned(record))?)
    }
}

/// Run the complete server side of the handshake in one compartment — the
/// monolithic OpenSSL behaviour the vanilla Apache baseline uses. The
/// private key, premaster, and session keys all live together here.
///
/// When the serving thread carries an ambient request trace, the whole
/// exchange lands as one `handshake` span (detail `1` when resumed,
/// `0` for a full key exchange; failures mark the span not-ok).
pub fn server_handshake(
    link: &Duplex,
    keypair: &RsaKeyPair,
    session_cache: &dyn SessionStore,
    rng: &mut WedgeRng,
) -> Result<ServerConnection, TlsError> {
    let mut span = wedge_telemetry::trace::span(wedge_telemetry::SpanKind::Handshake, 0);
    let result = server_handshake_steps(link, keypair, session_cache, rng);
    if let Some(span) = span.as_mut() {
        span.set_ok(result.is_ok());
        if let Ok(conn) = &result {
            span.set_detail(conn.resumed as u32);
        }
    }
    result
}

fn server_handshake_steps(
    link: &Duplex,
    keypair: &RsaKeyPair,
    session_cache: &dyn SessionStore,
    rng: &mut WedgeRng,
) -> Result<ServerConnection, TlsError> {
    let client_hello_bytes = recv(link)?;
    let client_hello = ClientHello::decode(&client_hello_bytes)?;
    let mut transcript = vec![client_hello_bytes];

    // Resumption decision.
    let cached_premaster = client_hello
        .session_id
        .and_then(|id| session_cache.lookup(&id).map(|pm| (id, pm)));
    let resumed = cached_premaster.is_some();
    let session_id = cached_premaster
        .as_ref()
        .map(|(id, _)| *id)
        .unwrap_or_else(|| fresh_session_id(rng));

    let server_random = fresh_random(rng);
    let server_hello = ServerHello {
        server_random,
        session_id,
        resumed,
    };
    let server_hello_bytes = server_hello.encode();
    link.send(&server_hello_bytes)?;
    transcript.push(server_hello_bytes);

    let premaster = match cached_premaster {
        Some((_, premaster)) => premaster,
        None => {
            let kx_bytes = recv(link)?;
            let kx = ClientKeyExchange::decode(&kx_bytes)?;
            transcript.push(kx_bytes);
            keypair
                .private
                .decrypt(&kx.encrypted_premaster)
                .map_err(|e| TlsError::Crypto(e.to_string()))?
        }
    };
    session_cache.insert(session_id, premaster.clone());

    let keys = SessionKeys::derive(&premaster, &client_hello.client_random, &server_random);
    let mut from_client = RecordLayer::new(
        &keys.material.client_write_key,
        &keys.material.client_mac_key,
    );
    let mut to_client = RecordLayer::new(
        &keys.material.server_write_key,
        &keys.material.server_mac_key,
    );

    // Client Finished.
    let client_finished_record = recv(link)?;
    let client_finished = Finished::decode(&from_client.open(&client_finished_record)?)?;
    let th = transcript_hash(&transcript);
    let expected = finished_verify_data(&keys.master_secret, CLIENT_FINISHED_LABEL, &th);
    if client_finished.verify_data != expected {
        return Err(TlsError::HandshakeFailed(
            "client Finished did not verify".to_string(),
        ));
    }
    transcript.push(client_finished.encode());

    // Server Finished.
    let th_final = transcript_hash(&transcript);
    let server_finished = Finished {
        verify_data: finished_verify_data(&keys.master_secret, SERVER_FINISHED_LABEL, &th_final),
    };
    link.send_owned(to_client.seal(&server_finished.encode()))?;

    Ok(ServerConnection {
        from_client,
        to_client,
        session_id,
        keys,
        resumed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SharedSessionCache;
    use wedge_net::duplex_pair;

    fn run_client_server(
        client: &mut TlsClient,
        keypair: RsaKeyPair,
        cache: &SharedSessionCache,
    ) -> (TlsClientConnection, ServerConnection) {
        let (client_link, server_link) = duplex_pair("client", "server");
        let mut server_rng = WedgeRng::from_seed(99);
        // Drive the server on another thread; the client runs inline.
        std::thread::scope(|scope| {
            let server = scope.spawn(|| {
                server_handshake(&server_link, &keypair, cache, &mut server_rng)
                    .expect("server handshake")
            });
            let client_conn = client.connect(&client_link).expect("client handshake");
            (client_conn, server.join().unwrap())
        })
    }

    #[test]
    fn full_handshake_derives_matching_keys() {
        let keypair = RsaKeyPair::generate(&mut WedgeRng::from_seed(1));
        let mut client = TlsClient::new(keypair.public, WedgeRng::from_seed(2));
        let cache = SharedSessionCache::new();
        let (client_conn, server_conn) = run_client_server(&mut client, keypair, &cache);
        assert_eq!(
            client_conn.keys.fingerprint(),
            server_conn.keys.fingerprint()
        );
        assert!(!client_conn.resumed);
        assert_eq!(client_conn.session_id, server_conn.session_id);
    }

    #[test]
    fn application_data_flows_both_ways() {
        let keypair = RsaKeyPair::generate(&mut WedgeRng::from_seed(3));
        let (client_link, server_link) = duplex_pair("client", "server");
        let server = std::thread::spawn(move || {
            let cache = SharedSessionCache::new();
            let mut rng = WedgeRng::from_seed(4);
            let mut conn = server_handshake(&server_link, &keypair, &cache, &mut rng).unwrap();
            let request = conn.recv(&server_link).unwrap();
            assert_eq!(request, b"GET / HTTP/1.0");
            conn.send(&server_link, b"HTTP/1.0 200 OK\r\n\r\nhello")
                .unwrap();
        });
        let mut client = TlsClient::new(keypair.public, WedgeRng::from_seed(5));
        let mut conn = client.connect(&client_link).unwrap();
        conn.send(&client_link, b"GET / HTTP/1.0").unwrap();
        let response = conn.recv(&client_link).unwrap();
        assert!(response.starts_with(b"HTTP/1.0 200 OK"));
        server.join().unwrap();
    }

    #[test]
    fn session_resumption_skips_key_exchange_and_reuses_premaster() {
        let keypair = RsaKeyPair::generate(&mut WedgeRng::from_seed(6));
        let mut client = TlsClient::new(keypair.public, WedgeRng::from_seed(7));
        let cache = SharedSessionCache::new();
        let (first, _server_first) = run_client_server(&mut client, keypair, &cache);
        assert!(!first.resumed);
        // Second connection with the same client (which cached the session).
        let (second, server_second) = run_client_server(&mut client, keypair, &cache);
        assert!(second.resumed);
        assert!(server_second.resumed);
        assert_eq!(second.premaster, first.premaster);
        // Keys still differ because the randoms differ per connection.
        assert_ne!(first.keys.fingerprint(), second.keys.fingerprint());
        assert_eq!(cache.stats().0, 1, "exactly one cache hit");
    }

    #[test]
    fn transcript_hash_is_order_sensitive() {
        let a = transcript_hash(&[b"one".to_vec(), b"two".to_vec()]);
        let b = transcript_hash(&[b"two".to_vec(), b"one".to_vec()]);
        let c = transcript_hash(&[b"onetwo".to_vec()]);
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn finished_data_depends_on_master_label_and_transcript() {
        let th1 = transcript_hash(&[b"m1".to_vec()]);
        let th2 = transcript_hash(&[b"m2".to_vec()]);
        let base = finished_verify_data(b"master", CLIENT_FINISHED_LABEL, &th1);
        assert_ne!(
            base,
            finished_verify_data(b"other", CLIENT_FINISHED_LABEL, &th1)
        );
        assert_ne!(
            base,
            finished_verify_data(b"master", SERVER_FINISHED_LABEL, &th1)
        );
        assert_ne!(
            base,
            finished_verify_data(b"master", CLIENT_FINISHED_LABEL, &th2)
        );
    }

    #[test]
    fn tampered_client_finished_aborts_the_server() {
        let keypair = RsaKeyPair::generate(&mut WedgeRng::from_seed(8));
        let (client_link, server_link) = duplex_pair("client", "server");
        let server = std::thread::spawn(move || {
            let cache = SharedSessionCache::new();
            let mut rng = WedgeRng::from_seed(9);
            server_handshake(&server_link, &keypair, &cache, &mut rng)
        });
        // A hand-rolled "client" that sends garbage instead of a proper
        // Finished record.
        let mut rng = WedgeRng::from_seed(10);
        let hello = ClientHello {
            client_random: fresh_random(&mut rng),
            session_id: None,
        };
        client_link.send(&hello.encode()).unwrap();
        let _server_hello = client_link
            .recv(RecvTimeout::After(HANDSHAKE_TIMEOUT))
            .unwrap();
        let premaster = fresh_premaster(&mut rng);
        let kx = ClientKeyExchange {
            encrypted_premaster: keypair.public.encrypt(&premaster),
        };
        client_link.send(&kx.encode()).unwrap();
        client_link.send(b"not a real record at all").unwrap();
        let result = server.join().unwrap();
        assert!(result.is_err(), "server must reject a bogus Finished");
    }
}
