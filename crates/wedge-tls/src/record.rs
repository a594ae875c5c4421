//! The encrypt-then-MAC record layer.
//!
//! After the handshake, application data flows in records encrypted with a
//! direction-specific write key and authenticated with a direction-specific
//! MAC key and a sequence number. The MAC is what makes the §5.1.2 argument
//! work: "Data injected by the attacker will be rejected by the client
//! handler sthread" because without the MAC key an attacker cannot produce
//! acceptable records.
//!
//! **Wire format.** A message is a run of records, each carrying at most
//! [`MAX_PLAINTEXT`] (2^14, TLS's limit) bytes of it, so a receiver opens
//! one record while the sender seals the next. A record is
//! `be64(header) ‖ ciphertext ‖ mac`: `header` is the sequence number with
//! its top bit set when more records of the message follow, `ciphertext`
//! is the plaintext XORed with the keystream of
//! `StreamCipher::new(cipher_key ‖ be64(seq))` from position 0 (the bare
//! sequence number), and `mac` is `HMAC-SHA256(mac_key, be64(header) ‖
//! ciphertext)`. A message of at most 2^14 bytes is one record without the
//! bit. The keystream definition in `wedge_crypto::stream` is part of this
//! format.
//!
//! **Cost model.** Per 64 payload bytes each side runs one SHA-256
//! compression, the MAC's, and four AES-256 blocks of keystream, which are
//! independent and run four in flight on AES-NI where the CPU has it. A MAC
//! chain waits on itself, so one record alone runs at about three quarters
//! of raw SHA-256's one-chain throughput; the records of a message are
//! independent chains, and `wedge_crypto::etm` runs two in lockstep, so
//! within a multi-record message a pair's 64 bytes cost one compression at
//! two-lane throughput (about 1.3x one chain's) plus the four AES blocks.
//! `seal_message` seals and sends the first record alone, so the first byte
//! leaves as early as one record allows, then the rest two per pass, an
//! odd last one alone; `open_message` verifies the first record before it
//! reads another (a forged one costs one `next`), then opens the rest two
//! per pass. Per record each side adds two compressions to finish the MAC
//! (keyed once, in `new`/`resume`), one to hash the record's cipher key
//! and an AES key expansion. Each payload byte is copied once per side:
//! sealing copies the plaintext into the record, which is encrypted and
//! MACed where it lies and handed to `send` by value; opening MACs and
//! decrypts each record where it arrived, and copies the plaintexts into
//! the message once, at its exact size (`open` copies its one record and
//! moves the plaintext to the front of that copy instead).

use std::fmt;

use std::array::from_fn;

use wedge_crypto::etm::{self, Lane};
use wedge_crypto::{HmacSha256, StreamCipher};

/// Errors from opening a record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecordError {
    /// The record was too short to contain a MAC.
    Truncated,
    /// MAC verification failed (corruption, injection, or wrong keys), or
    /// the record is not the one expected next (replayed, reordered, or
    /// part of a longer message where `open` expects a whole one).
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

/// Most plaintext bytes one record carries: TLS's record limit.
pub const MAX_PLAINTEXT: usize = 1 << 14;

const SEQ_LEN: usize = 8;
const MAC_LEN: usize = 32;
/// Header bit: more records of this message follow.
const MORE: u64 = 1 << 63;

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

    /// Seal a plaintext into one record, `seq ‖ ciphertext ‖ mac`.
    pub fn seal(&mut self, plaintext: &[u8]) -> Vec<u8> {
        let [record] = self.seal_records([(plaintext, false)]);
        record
    }

    /// Seal `message` as records of at most [`MAX_PLAINTEXT`] bytes and hand
    /// each to `send`; stops at the first error. The first record leaves
    /// alone, as soon as it is sealed; the rest are sealed two at a time
    /// and leave in pairs, an odd last one alone.
    pub fn seal_message<E>(
        &mut self,
        message: &[u8],
        mut send: impl FnMut(Vec<u8>) -> Result<(), E>,
    ) -> Result<(), E> {
        let (first, mut rest) = message.split_at(message.len().min(MAX_PLAINTEXT));
        let [record] = self.seal_records([(first, !rest.is_empty())]);
        send(record)?;
        while !rest.is_empty() {
            let (a, tail) = rest.split_at(rest.len().min(MAX_PLAINTEXT));
            if tail.is_empty() {
                let [record] = self.seal_records([(a, false)]);
                return send(record);
            }
            let (b, tail) = tail.split_at(tail.len().min(MAX_PLAINTEXT));
            let [record_a, record_b] = self.seal_records([(a, true), (b, !tail.is_empty())]);
            send(record_a)?;
            send(record_b)?;
            rest = tail;
        }
        Ok(())
    }

    /// The next `N` records, each `(plaintext, more records follow)`: each
    /// plaintext copied once, into its record, and sealed there in one
    /// pass.
    fn seal_records<const N: usize>(&mut self, chunks: [(&[u8], bool); N]) -> [Vec<u8>; N] {
        let first = self.send_seq;
        self.send_seq += N as u64;
        let mut records = from_fn(|i| {
            let (plaintext, more) = chunks[i];
            let seq = first + i as u64;
            let header = if more { seq | MORE } else { seq };
            let mut record = Vec::with_capacity(SEQ_LEN + plaintext.len() + MAC_LEN);
            record.extend_from_slice(&header.to_be_bytes());
            record.extend_from_slice(plaintext);
            record.extend_from_slice(&[0; MAC_LEN]);
            record
        });
        let mut records_iter = records.iter_mut();
        let lanes: [Lane; N] = from_fn(|i| Lane {
            cipher: self.cipher(first + i as u64),
            record: records_iter.next().expect("one record per chunk"),
            prefix: SEQ_LEN,
        });
        etm::seal(&self.mac, lanes);
        records
    }

    /// Verify and decrypt a record produced by the peer's `seal`: a whole
    /// message in one record.
    pub fn open(&mut self, record: &[u8]) -> Result<Vec<u8>, RecordError> {
        let mut record = record.to_vec();
        if self.open_records([&mut record], self.recv_seq)? {
            return Err(RecordError::BadMac);
        }
        self.recv_seq += 1;
        Ok(plaintext(record))
    }

    /// Receive a message sealed by the peer's `seal_message`: verify and
    /// decrypt each record `next` yields where it arrived, and return the
    /// whole plaintext after the final one, never a part. The first record
    /// is verified before another is read, so a forged one costs one
    /// `next`; the rest are opened two at a time. The first error ends the
    /// message and leaves the layer as it was before it.
    pub fn open_message<E: From<RecordError>>(
        &mut self,
        mut next: impl FnMut() -> Result<Vec<u8>, E>,
    ) -> Result<Vec<u8>, E> {
        let mut seq = self.recv_seq;
        let mut records = vec![next()?];
        let mut more = self.open_records([&mut records[0]], seq)?;
        seq += 1;
        while more {
            let mut a = next()?;
            // The header is only a hint until the MAC checks it: a record
            // that claims to be the last is opened alone.
            let last = a
                .first_chunk()
                .is_none_or(|header| u64::from_be_bytes(*header) & MORE == 0);
            if last {
                more = self.open_records([&mut a], seq)?;
                records.push(a);
                seq += 1;
            } else {
                let mut b = next()?;
                more = self.open_records([&mut a, &mut b], seq)?;
                records.extend([a, b]);
                seq += 2;
            }
        }
        self.recv_seq = seq;
        // The message's one copy, out of the records decrypted where they
        // arrived. A fresh buffer, not a shrunk record: a record was
        // allocated by the sending thread, and keeping it as the message
        // kept its arena's memory (`https_conn` peak RSS +6 % on a 2-vCPU
        // Xeon).
        let len = records.iter().map(|r| r.len() - SEQ_LEN - MAC_LEN).sum();
        let mut message = Vec::with_capacity(len);
        for record in &records {
            message.extend_from_slice(&record[SEQ_LEN..record.len() - MAC_LEN]);
        }
        Ok(message)
    }

    /// Verify records `seq..seq + N` in one pass and decrypt them in
    /// place; return whether more records of their message follow. Every
    /// record but the last must say so.
    fn open_records<const N: usize>(
        &mut self,
        mut records: [&mut Vec<u8>; N],
        seq: u64,
    ) -> Result<bool, RecordError> {
        if records.iter().any(|r| r.len() < SEQ_LEN + MAC_LEN) {
            return Err(RecordError::Truncated);
        }
        let headers = records
            .each_ref()
            .map(|r| u64::from_be_bytes(*r.first_chunk().expect("8 bytes")));
        let mut records = records.iter_mut();
        let lanes: [Lane; N] = from_fn(|i| Lane {
            cipher: self.cipher(seq + i as u64),
            record: records.next().expect("N records"),
            prefix: SEQ_LEN,
        });
        let genuine = etm::open(&self.mac, lanes);
        let in_place = (0..N).all(|i| {
            let more = headers[i] & MORE != 0;
            genuine[i] && headers[i] & !MORE == seq + i as u64 && (more || i + 1 == N)
        });
        if !in_place {
            return Err(RecordError::BadMac);
        }
        Ok(headers[N - 1] & MORE != 0)
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

/// An opened record's plaintext, moved to the front of its own buffer.
fn plaintext(mut record: Vec<u8>) -> Vec<u8> {
    let end = record.len() - MAC_LEN;
    record.copy_within(SEQ_LEN..end, 0);
    record.truncate(end - SEQ_LEN);
    record.shrink_to_fit();
    record
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
