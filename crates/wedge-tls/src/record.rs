//! The encrypt-then-MAC record layer.
//!
//! After the handshake, application data flows in records encrypted with a
//! direction-specific write key and authenticated with a direction-specific
//! MAC key and a sequence number. The MAC is what makes the §5.1.2 argument
//! work: "Data injected by the attacker will be rejected by the client
//! handler sthread" because without the MAC key an attacker cannot produce
//! acceptable records.
//!
//! **Wire format.** A record is `be64(seq) ‖ ciphertext ‖ mac`, where
//! `ciphertext` is the plaintext XORed with the keystream of
//! `StreamCipher::new(cipher_key ‖ be64(seq))` from position 0 and `mac` is
//! `HMAC-SHA256(mac_key, be64(seq) ‖ ciphertext)`. The keystream definition
//! in `wedge_crypto::stream` is part of this format.
//!
//! **Cost model.** Per 64 payload bytes each side runs three SHA-256
//! compressions — two of keystream, one of MAC — so `seal` and `open` run at
//! a third of raw SHA-256 throughput at best. Per record each side adds two
//! compressions to finish the MAC (its key schedule is computed once, in
//! `new`/`resume`) and makes exactly one allocation, the returned `Vec`:
//! `seal` encrypts and MACs inside the record it returns, `open` MACs the
//! received record in place and decrypts inside the plaintext it returns.

use std::fmt;

use wedge_crypto::{HmacSha256, StreamCipher};

/// Errors from opening a record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecordError {
    /// The record was too short to contain a MAC.
    Truncated,
    /// MAC verification failed (corruption, injection, or wrong keys).
    BadMac,
}

impl std::fmt::Display for RecordError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecordError::Truncated => write!(f, "record truncated"),
            RecordError::BadMac => write!(f, "record MAC verification failed"),
        }
    }
}

impl std::error::Error for RecordError {}

const SEQ_LEN: usize = 8;
const MAC_LEN: usize = 32;

/// One direction of a record channel: encrypts and MACs outgoing plaintext,
/// or verifies and decrypts incoming records.
#[derive(Clone)]
pub struct RecordLayer {
    /// `cipher_key ‖ be64(seq)`: the trailing eight bytes are rewritten for
    /// each record, the rest never changes.
    record_key: Vec<u8>,
    /// The MAC key's pad states, cloned for each record.
    mac: HmacSha256,
    /// Sequence number of the next record to seal.
    send_seq: u64,
    /// Sequence number expected on the next opened record.
    recv_seq: u64,
}

/// Prints the key length and the sequence numbers only: `record_key` and the
/// MAC pad states are secrets.
impl fmt::Debug for RecordLayer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RecordLayer")
            .field("cipher_key_len", &(self.record_key.len() - SEQ_LEN))
            .field("send_seq", &self.send_seq)
            .field("recv_seq", &self.recv_seq)
            .finish_non_exhaustive()
    }
}

impl RecordLayer {
    /// Create a record layer from a write key and a MAC key. Both endpoints
    /// of one direction construct it with the same keys.
    pub fn new(cipher_key: &[u8], mac_key: &[u8]) -> RecordLayer {
        RecordLayer::resume(cipher_key, mac_key, 0, 0)
    }

    /// Seal a plaintext into `seq ‖ ciphertext ‖ mac`.
    pub fn seal(&mut self, plaintext: &[u8]) -> Vec<u8> {
        let seq = self.send_seq;
        self.send_seq += 1;
        let mut out = Vec::with_capacity(SEQ_LEN + plaintext.len() + MAC_LEN);
        out.extend_from_slice(&seq.to_be_bytes());
        out.extend_from_slice(plaintext);
        self.cipher(seq).apply(&mut out[SEQ_LEN..]);
        let mut mac = self.mac.clone();
        mac.update(&out);
        out.extend_from_slice(&mac.finalize());
        out
    }

    /// Verify and decrypt a record produced by the peer's `seal`.
    pub fn open(&mut self, record: &[u8]) -> Result<Vec<u8>, RecordError> {
        if record.len() < SEQ_LEN + MAC_LEN {
            return Err(RecordError::Truncated);
        }
        let (body, tag) = record.split_at(record.len() - MAC_LEN);
        let (seq, ciphertext) = body.split_at(SEQ_LEN);
        let seq = u64::from_be_bytes(seq.try_into().expect("8 bytes"));
        let mut mac = self.mac.clone();
        mac.update(body);
        if !wedge_crypto::ct_eq(&mac.finalize(), tag) || seq != self.recv_seq {
            return Err(RecordError::BadMac);
        }
        self.recv_seq += 1;
        let mut plaintext = ciphertext.to_vec();
        self.cipher(seq).apply(&mut plaintext);
        Ok(plaintext)
    }

    /// The cipher for record `seq`, keyed `cipher_key ‖ be64(seq)`.
    fn cipher(&mut self, seq: u64) -> StreamCipher {
        let key_len = self.record_key.len() - SEQ_LEN;
        self.record_key[key_len..].copy_from_slice(&seq.to_be_bytes());
        StreamCipher::new(&self.record_key)
    }

    /// Reconstruct a record layer at a given sequence position. Used by the
    /// partitioned server's `ssl_read`/`ssl_write` callgates, which persist
    /// the sequence numbers in tagged memory between invocations.
    pub fn resume(cipher_key: &[u8], mac_key: &[u8], send_seq: u64, recv_seq: u64) -> RecordLayer {
        let mut record_key = Vec::with_capacity(cipher_key.len() + SEQ_LEN);
        record_key.extend_from_slice(cipher_key);
        record_key.extend_from_slice(&[0u8; SEQ_LEN]);
        RecordLayer {
            record_key,
            mac: HmacSha256::new(mac_key),
            send_seq,
            recv_seq,
        }
    }

    /// Number of records sealed so far.
    pub fn sent(&self) -> u64 {
        self.send_seq
    }

    /// Number of records successfully opened so far.
    pub fn received(&self) -> u64 {
        self.recv_seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair() -> (RecordLayer, RecordLayer) {
        (
            RecordLayer::new(b"write-key", b"mac-key"),
            RecordLayer::new(b"write-key", b"mac-key"),
        )
    }

    #[test]
    fn seal_open_roundtrip_preserves_order() {
        let (mut tx, mut rx) = pair();
        for i in 0..10 {
            let msg = format!("record {i}");
            let sealed = tx.seal(msg.as_bytes());
            assert_eq!(rx.open(&sealed).unwrap(), msg.as_bytes());
        }
        assert_eq!(tx.sent(), 10);
        assert_eq!(rx.received(), 10);
    }

    #[test]
    fn ciphertext_differs_from_plaintext() {
        let (mut tx, _) = pair();
        let sealed = tx.seal(b"secret payload");
        assert!(!sealed.windows(14).any(|w| w == b"secret payload"));
    }

    #[test]
    fn any_corruption_is_rejected() {
        let (mut tx, mut rx) = pair();
        let sealed = tx.seal(b"important");
        for i in 0..sealed.len() {
            let mut corrupted = sealed.clone();
            corrupted[i] ^= 0x01;
            let mut rx_clone = rx.clone();
            assert!(
                rx_clone.open(&corrupted).is_err(),
                "byte {i} corruption accepted"
            );
        }
        // The untouched record still opens.
        assert_eq!(rx.open(&sealed).unwrap(), b"important");
    }

    #[test]
    fn wrong_keys_are_rejected() {
        let mut tx = RecordLayer::new(b"key-a", b"mac-a");
        let mut rx = RecordLayer::new(b"key-b", b"mac-b");
        assert_eq!(rx.open(&tx.seal(b"hello")), Err(RecordError::BadMac));
    }

    #[test]
    fn replayed_records_are_rejected() {
        let (mut tx, mut rx) = pair();
        let sealed = tx.seal(b"once");
        assert!(rx.open(&sealed).is_ok());
        assert_eq!(rx.open(&sealed), Err(RecordError::BadMac));
    }

    #[test]
    fn reordered_records_are_rejected() {
        let (mut tx, mut rx) = pair();
        let first = tx.seal(b"first");
        let second = tx.seal(b"second");
        assert_eq!(rx.open(&second), Err(RecordError::BadMac));
        assert!(rx.open(&first).is_ok());
    }

    #[test]
    fn truncated_records_are_rejected() {
        let (mut tx, mut rx) = pair();
        let sealed = tx.seal(b"data");
        assert_eq!(rx.open(&sealed[..10]), Err(RecordError::Truncated));
    }

    #[test]
    fn debug_shows_no_key_material() {
        let mut layer = RecordLayer::resume(&[0xC7u8; 32], &[0xD9u8; 32], 2, 5);
        layer.seal(b"payload");
        assert_eq!(
            format!("{layer:?}"),
            "RecordLayer { cipher_key_len: 32, send_seq: 3, recv_seq: 5, .. }"
        );
    }
}
