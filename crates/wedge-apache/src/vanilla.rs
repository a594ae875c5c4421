//! The monolithic Apache/OpenSSL baseline ("Vanilla" in Table 2).
//!
//! Everything — the RSA private key, the session cache, key derivation and
//! request parsing — lives in a single compartment, exactly like unmodified
//! Apache with mod_ssl. The baseline exists for two purposes: the Table 2
//! throughput comparison, and the §5.1 attack demonstration that an exploit
//! of the network-facing code discloses the private key.

use wedge_core::{MemProt, SBuf, SecurityPolicy, Tag, Wedge, WedgeError};
use wedge_crypto::{RsaKeyPair, WedgeRng};
use wedge_net::Duplex;
use wedge_tls::handshake::server_handshake;
use wedge_tls::SharedSessionCache;

use crate::http::{HttpRequest, PageStore};

/// Serialise a private key into the bytes placed in the key's memory region
/// (what an exploit would exfiltrate).
pub fn serialize_private_key(keypair: &RsaKeyPair) -> Vec<u8> {
    let mut out = b"RSA-PRIVATE-KEY:".to_vec();
    out.extend_from_slice(&keypair.private.n.to_le_bytes());
    out.extend_from_slice(&keypair.private.d.to_le_bytes());
    out
}

/// Outcome of serving one connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeReport {
    /// Did the handshake resume a cached session?
    pub resumed: bool,
    /// Number of requests served on the connection.
    pub requests: u32,
}

/// The monolithic HTTPS server.
pub struct VanillaApache {
    wedge: Wedge,
    keypair: RsaKeyPair,
    pages: PageStore,
    cache: SharedSessionCache,
    key_tag: Tag,
    key_buf: SBuf,
}

impl VanillaApache {
    /// Build the server. The private key is written into ordinary server
    /// memory (a tagged region the whole server can read) — the monolithic
    /// arrangement Wedge is designed to replace.
    pub fn new(
        wedge: Wedge,
        keypair: RsaKeyPair,
        pages: PageStore,
    ) -> Result<VanillaApache, WedgeError> {
        let root = wedge.root();
        let key_tag = root.tag_new()?;
        let key_buf = root.smalloc_init(key_tag, &serialize_private_key(&keypair))?;
        Ok(VanillaApache {
            wedge,
            keypair,
            pages,
            cache: SharedSessionCache::new(),
            key_tag,
            key_buf,
        })
    }

    /// The server's public key (what clients are configured with).
    pub fn public_key(&self) -> wedge_crypto::RsaPublicKey {
        self.keypair.public
    }

    /// The memory region holding the private key.
    pub fn key_buf(&self) -> SBuf {
        self.key_buf
    }

    /// The Wedge runtime backing the server.
    pub fn wedge(&self) -> &Wedge {
        &self.wedge
    }

    /// The policy the monolithic worker runs with: because the application
    /// is not partitioned, the network-facing worker holds read-write access
    /// to the private key region (and everything else it touches).
    pub fn worker_policy(&self) -> SecurityPolicy {
        let mut policy = SecurityPolicy::deny_all();
        policy.sc_mem_add(self.key_tag, MemProt::ReadWrite);
        policy
    }

    /// Serve one connection: SSL handshake, then serve requests until the
    /// client closes. No lock is held across the handshake's blocking
    /// receives (the cache locks one bucket per lookup or insert, and the
    /// connection has its own RNG), so a stalled client stalls only itself.
    pub fn serve_connection(&self, link: &Duplex) -> Result<ServeReport, String> {
        let mut rng = WedgeRng::from_entropy();
        let mut conn = server_handshake(link, &self.keypair, &self.cache, &mut rng)
            .map_err(|e| e.to_string())?;
        let mut requests = 0;
        while let Ok(raw) = conn.recv(link) {
            let Some(request) = HttpRequest::parse(&raw) else {
                break;
            };
            let response = self.pages.respond(&request);
            if conn.send(link, &response).is_err() {
                break;
            }
            requests += 1;
        }
        Ok(ServeReport {
            resumed: conn.resumed,
            requests,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wedge_net::{duplex_pair, RecvTimeout};
    use wedge_tls::TlsClient;

    #[test]
    fn serves_https_requests() {
        let keypair = RsaKeyPair::generate(&mut WedgeRng::from_seed(1));
        let server = VanillaApache::new(Wedge::init(), keypair, PageStore::sample()).unwrap();
        let (client_link, server_link) = duplex_pair("client", "server");
        let public = server.public_key();
        let handle = std::thread::spawn(move || {
            let mut client = TlsClient::new(public, WedgeRng::from_seed(2));
            let mut conn = client.connect(&client_link).unwrap();
            conn.send(&client_link, b"GET /index.html HTTP/1.0\r\n\r\n")
                .unwrap();
            let response = conn.recv(&client_link).unwrap();
            drop(client_link);
            response
        });
        let report = server.serve_connection(&server_link).unwrap();
        let response = handle.join().unwrap();
        assert!(response.starts_with(b"HTTP/1.0 200 OK"));
        assert!(!report.resumed);
        assert_eq!(report.requests, 1);
    }

    #[test]
    fn session_caching_works_across_connections() {
        let keypair = RsaKeyPair::generate(&mut WedgeRng::from_seed(3));
        let server = VanillaApache::new(Wedge::init(), keypair, PageStore::sample()).unwrap();
        let public = server.public_key();
        let mut client = TlsClient::new(public, WedgeRng::from_seed(4));

        for round in 0..2 {
            let (client_link, server_link) = duplex_pair("client", "server");
            let server_thread = std::thread::scope(|scope| {
                let server_ref = &server;
                let handle = scope.spawn(move || server_ref.serve_connection(&server_link));
                let mut conn = client.connect(&client_link).unwrap();
                conn.send(&client_link, b"GET / HTTP/1.0\r\n\r\n").unwrap();
                let response = conn.recv(&client_link).unwrap();
                assert!(response.starts_with(b"HTTP/1.0 200"));
                drop(client_link);
                (handle.join().unwrap().unwrap(), conn.resumed)
            });
            let (report, client_resumed) = server_thread;
            assert_eq!(report.resumed, round == 1, "second connection resumes");
            assert_eq!(client_resumed, round == 1);
        }
    }

    /// A client that sends its hello and then goes silent leaves the
    /// server waiting inside the handshake; another client on the same
    /// server is served meanwhile, not after the first one's timeout.
    #[test]
    fn a_silent_client_does_not_stall_other_connections() {
        let keypair = RsaKeyPair::generate(&mut WedgeRng::from_seed(8));
        let server = VanillaApache::new(Wedge::init(), keypair, PageStore::sample()).unwrap();
        let mut client = TlsClient::new(server.public_key(), WedgeRng::from_seed(9));
        let (silent_link, silent_server_link) = duplex_pair("silent", "server");
        let (client_link, server_link) = duplex_pair("client", "server");
        std::thread::scope(|scope| {
            let server = &server;
            let silent = scope.spawn(move || server.serve_connection(&silent_server_link));
            let hello = wedge_tls::ClientHello {
                client_random: [7; 32],
                session_id: None,
            };
            silent_link.send(&hello.encode()).unwrap();
            // The server hello is back: the server now waits for a key
            // exchange that never comes.
            silent_link
                .recv(RecvTimeout::After(std::time::Duration::from_secs(5)))
                .unwrap();

            let start = std::time::Instant::now();
            let served = scope.spawn(move || server.serve_connection(&server_link));
            let mut conn = client.connect(&client_link).unwrap();
            conn.send(&client_link, b"GET / HTTP/1.0\r\n\r\n").unwrap();
            assert!(conn
                .recv(&client_link)
                .unwrap()
                .starts_with(b"HTTP/1.0 200"));
            drop(client_link);
            assert_eq!(served.join().unwrap().unwrap().requests, 1);
            let elapsed = start.elapsed();
            assert!(
                elapsed < std::time::Duration::from_secs(1),
                "took {elapsed:?}"
            );
            drop(silent_link);
            assert!(silent.join().unwrap().is_err());
        });
    }

    #[test]
    fn key_region_contains_the_private_key_material() {
        let keypair = RsaKeyPair::generate(&mut WedgeRng::from_seed(5));
        let server = VanillaApache::new(Wedge::init(), keypair, PageStore::sample()).unwrap();
        let data = server.wedge().root().read_all(&server.key_buf()).unwrap();
        assert!(data.starts_with(b"RSA-PRIVATE-KEY:"));
        // The worker policy grants access to it — that is the vulnerability.
        assert!(server
            .worker_policy()
            .mem_grant(server.key_buf().tag)
            .is_some());
    }

    #[test]
    fn malformed_request_ends_the_connection_gracefully() {
        let keypair = RsaKeyPair::generate(&mut WedgeRng::from_seed(6));
        let server = VanillaApache::new(Wedge::init(), keypair, PageStore::sample()).unwrap();
        let (client_link, server_link) = duplex_pair("client", "server");
        let public = server.public_key();
        let handle = std::thread::spawn(move || {
            let mut client = TlsClient::new(public, WedgeRng::from_seed(7));
            let mut conn = client.connect(&client_link).unwrap();
            conn.send(&client_link, b"").unwrap();
            // Server closes without responding; recv eventually errors.
            let _ = client_link.recv(RecvTimeout::After(std::time::Duration::from_millis(200)));
        });
        let report = server.serve_connection(&server_link).unwrap();
        assert_eq!(report.requests, 0);
        handle.join().unwrap();
    }
}
