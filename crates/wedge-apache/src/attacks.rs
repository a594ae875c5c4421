//! Attack harness helpers shared by the security integration tests and the
//! `mitm_attack` example.
//!
//! The attacker model is the paper's: an exploit grants the attacker the
//! privileges of the compartment it lands in (modelled by
//! [`wedge_core::Exploit`]), and — in the §5.1.2 threat model — the attacker
//! additionally controls the network path as a man in the middle
//! ([`wedge_net::Mitm`]). These helpers answer the question the paper's
//! defences are judged by: *given what the attacker has observed and what
//! the exploited compartment can reach, can the attacker recover the
//! client's plaintext or keys?*

use wedge_crypto::KeyMaterial;
use wedge_net::{Direction, Mitm};
use wedge_tls::record::RecordError;
use wedge_tls::RecordLayer;

/// Outcome of an attack scenario, as asserted by the security tests.
#[derive(Debug, Clone, Default)]
pub struct AttackOutcome {
    /// Did the attacker obtain the server's RSA private key bytes?
    pub private_key_leaked: bool,
    /// Did the attacker obtain the connection's session/MAC keys?
    pub session_key_obtained: bool,
    /// Could the attacker decrypt the legitimate client's application data?
    pub client_plaintext_recovered: bool,
    /// Did attacker-injected records reach application code?
    pub injected_data_accepted: bool,
    /// Did the legitimate handshake complete despite the attack?
    pub handshake_completed: bool,
    /// Free-form notes for the example binaries.
    pub notes: Vec<String>,
}

/// Given key material the attacker somehow obtained and the traffic a
/// man-in-the-middle observed, try to decrypt every client→server message
/// and return the recovered plaintexts, a message longer than one record
/// whole. This is what an attacker does after an exploited compartment
/// leaks the session key (the §5.1.1 partitioning's residual weakness).
pub fn decrypt_observed_client_records(keys: &KeyMaterial, mitm: &Mitm) -> Vec<Vec<u8>> {
    let mut recovered = Vec::new();
    let records: Vec<Vec<u8>> = mitm
        .observed()
        .entries()
        .iter()
        .filter(|e| e.direction == Direction::ClientToServer)
        .map(|e| e.payload.clone())
        .collect();
    // The attacker does not know which observed message is which record, so
    // it tries a message starting at every one at every plausible sequence
    // number, and skips the records a recovered message spans.
    let mut start = 0;
    while start < records.len() {
        let opened = (0..records.len() as u64).find_map(|seq| {
            let mut layer =
                RecordLayer::resume(&keys.client_write_key, &keys.client_mac_key, 0, seq);
            let mut arriving = records[start..].iter().cloned();
            let plaintext = layer
                .open_message(|| arriving.next().ok_or(RecordError::Truncated))
                .ok()?;
            Some((plaintext, layer.received() - seq))
        });
        match opened {
            Some((plaintext, spanned)) => {
                recovered.push(plaintext);
                start += spanned as usize;
            }
            None => start += 1,
        }
    }
    recovered
}

/// Does any recovered plaintext contain `needle`?
pub fn plaintexts_contain(plaintexts: &[Vec<u8>], needle: &[u8]) -> bool {
    !needle.is_empty()
        && plaintexts
            .iter()
            .any(|p| p.windows(needle.len()).any(|w| w == needle))
}

#[cfg(test)]
mod tests {
    use super::*;
    use wedge_crypto::kdf::derive_key_block;

    #[test]
    fn decryption_with_correct_keys_recovers_plaintext() {
        let keys = derive_key_block(b"pm", b"cr", b"sr");
        let (client, mut mitm, server) = Mitm::interpose();
        let mut layer = RecordLayer::new(&keys.client_write_key, &keys.client_mac_key);
        client.send(&layer.seal(b"GET /secret HTTP/1.0")).unwrap();
        mitm.forward_all_pending();
        let _ = server.try_recv();

        let recovered = decrypt_observed_client_records(&keys, &mitm);
        assert!(plaintexts_contain(&recovered, b"GET /secret"));
    }

    #[test]
    fn decryption_recovers_a_message_longer_than_one_record() {
        let keys = derive_key_block(b"pm", b"cr", b"sr");
        let (client, mut mitm, _server) = Mitm::interpose();
        let mut layer = RecordLayer::new(&keys.client_write_key, &keys.client_mac_key);
        client.send(&layer.seal(b"GET /first HTTP/1.0")).unwrap();
        let mut long = vec![b'x'; 20_000];
        long.extend_from_slice(b"secret in the second record");
        layer
            .seal_message(&long, |record| client.send_owned(record))
            .unwrap();
        mitm.forward_all_pending();

        let recovered = decrypt_observed_client_records(&keys, &mitm);
        assert_eq!(recovered, [b"GET /first HTTP/1.0".to_vec(), long]);
    }

    #[test]
    fn decryption_with_wrong_keys_recovers_nothing() {
        let keys = derive_key_block(b"pm", b"cr", b"sr");
        let wrong = derive_key_block(b"other", b"cr", b"sr");
        let (client, mut mitm, _server) = Mitm::interpose();
        let mut layer = RecordLayer::new(&keys.client_write_key, &keys.client_mac_key);
        client.send(&layer.seal(b"GET /secret HTTP/1.0")).unwrap();
        mitm.forward_all_pending();

        let recovered = decrypt_observed_client_records(&wrong, &mitm);
        assert!(recovered.is_empty());
        assert!(!plaintexts_contain(&recovered, b"GET /secret"));
    }
}
