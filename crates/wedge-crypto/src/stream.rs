//! Counter-mode keystream cipher built from SHA-256.
//!
//! The SSL record layer in the reproduction encrypts application data with
//! this cipher plus an HMAC. As with the rest of this crate, the goal is a
//! faithful *structure* (symmetric key shared by both record endpoints,
//! keystream independent of plaintext, same key ⇒ same keystream), not real
//! confidentiality.
//!
//! **The keystream definition is the wire format:**
//! `ks[i] = SHA256(key ‖ le64(i / 32))[i % 32]`. Both record endpoints and
//! every pinned vector depend on it; an optimisation may change how the
//! bytes are produced, never which bytes.
//!
//! **Cost model.** One 32-byte keystream block is hashed once and XORed
//! across the slice, so `apply` costs one SHA-256 finalisation per 32 bytes
//! — two compressions per 64 payload bytes while `key ‖ counter` fits one
//! padded block (keys up to 47 bytes), half of [`sha256`](crate::sha256())'s
//! throughput at best. The key is absorbed once, in `new`; each block clones
//! that primed hasher. Nothing here allocates.

use std::fmt;

use crate::sha256::{Sha256, DIGEST_LEN};

/// A symmetric keystream cipher. Encryption and decryption are the same
/// operation (XOR with the keystream at the current offset).
#[derive(Clone)]
pub struct StreamCipher {
    /// A hasher that has absorbed the key and nothing else.
    keyed: Sha256,
    /// Absolute keystream position (bytes consumed so far).
    position: u64,
    /// The keystream block containing `position`, valid whenever `position`
    /// is not on a block boundary.
    block: [u8; DIGEST_LEN],
}

/// Prints the position only: the primed hasher and the cached block are
/// key-derived.
impl fmt::Debug for StreamCipher {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StreamCipher")
            .field("position", &self.position)
            .finish_non_exhaustive()
    }
}

impl StreamCipher {
    /// Create a cipher from a symmetric key.
    pub fn new(key: &[u8]) -> Self {
        let mut keyed = Sha256::new();
        keyed.update(key);
        StreamCipher {
            keyed,
            position: 0,
            block: [0u8; DIGEST_LEN],
        }
    }

    /// XOR `data` with the keystream in place, advancing the position.
    pub fn apply(&mut self, mut data: &mut [u8]) {
        while !data.is_empty() {
            let offset = (self.position % DIGEST_LEN as u64) as usize;
            if offset == 0 {
                let mut hasher = self.keyed.clone();
                hasher.update(&(self.position / DIGEST_LEN as u64).to_le_bytes());
                self.block = hasher.finalize();
            }
            let take = (DIGEST_LEN - offset).min(data.len());
            let (head, rest) = data.split_at_mut(take);
            for (byte, ks) in head.iter_mut().zip(&self.block[offset..]) {
                *byte ^= ks;
            }
            self.position += take as u64;
            data = rest;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::to_hex;

    /// The per-byte definition of the keystream, kept as the reference the
    /// block-wise `apply` is tested against.
    fn oracle_keystream(key: &[u8], len: usize) -> Vec<u8> {
        (0..len as u64)
            .map(|i| {
                let mut h = Sha256::new();
                h.update(key);
                h.update(&(i / DIGEST_LEN as u64).to_le_bytes());
                h.finalize()[(i % DIGEST_LEN as u64) as usize]
            })
            .collect()
    }

    fn process(cipher: &mut StreamCipher, data: &[u8]) -> Vec<u8> {
        let mut out = data.to_vec();
        cipher.apply(&mut out);
        out
    }

    #[test]
    fn roundtrip_with_matching_positions() {
        let mut enc = StreamCipher::new(b"session-key");
        let mut dec = StreamCipher::new(b"session-key");
        let msg = b"GET /index.html HTTP/1.0\r\n\r\n";
        let ct = process(&mut enc, msg);
        assert_ne!(&ct[..], &msg[..]);
        assert_eq!(process(&mut dec, &ct), msg);
    }

    #[test]
    fn multiple_records_stay_in_sync() {
        let mut enc = StreamCipher::new(b"k");
        let mut dec = StreamCipher::new(b"k");
        for i in 0..10 {
            let msg = format!("record number {i} with some payload");
            let ct = process(&mut enc, msg.as_bytes());
            assert_eq!(process(&mut dec, &ct), msg.as_bytes());
        }
        assert_eq!(enc.position, dec.position);
    }

    #[test]
    fn wrong_key_garbles() {
        let mut enc = StreamCipher::new(b"right-key");
        let mut dec = StreamCipher::new(b"wrong-key");
        let ct = process(&mut enc, b"confidential");
        assert_ne!(process(&mut dec, &ct), b"confidential");
    }

    #[test]
    fn keystream_differs_across_positions() {
        let mut c = StreamCipher::new(b"k");
        let a = process(&mut c, &[0u8; 64]);
        let b = process(&mut c, &[0u8; 64]);
        assert_ne!(a, b, "keystream must not repeat across positions");
    }

    #[test]
    fn a_fresh_cipher_restarts_the_keystream() {
        let a = process(&mut StreamCipher::new(b"k"), &[0u8; 16]);
        let b = process(&mut StreamCipher::new(b"k"), &[0u8; 16]);
        assert_eq!(a, b);
    }

    #[test]
    fn empty_input_is_noop() {
        let mut c = StreamCipher::new(b"k");
        assert!(process(&mut c, b"").is_empty());
        assert_eq!(c.position, 0);
    }

    /// Chunk sizes around the block size, from positions that start
    /// mid-block, against the per-byte definition.
    #[test]
    fn chunked_apply_matches_the_per_byte_oracle() {
        let key = b"oracle key";
        let chunks = [0usize, 1, 31, 32, 33, 65, 0, 7, 64, 1, 96, 5];
        let total: usize = chunks.iter().sum();
        let mut got = vec![0u8; total];
        let mut cipher = StreamCipher::new(key);
        let mut rest = &mut got[..];
        for len in chunks {
            let (head, tail) = rest.split_at_mut(len);
            cipher.apply(head);
            rest = tail;
        }
        assert_eq!(got, oracle_keystream(key, total));
        assert_eq!(cipher.position, total as u64);
    }

    /// 80 keystream bytes captured from the per-byte implementation this
    /// one replaced.
    #[test]
    fn pinned_keystream_vector() {
        let mut ks = [0u8; 80];
        StreamCipher::new(b"pinned keystream key").apply(&mut ks);
        assert_eq!(
            to_hex(&ks),
            "5d50a02feb5d22420dbe7aaa07a9481fd8b613de639f72d3204c16730cbd263b\
             a6a7b6b19d6e1a5b6d9b935039aeb7fe5ad5a58a9d15abb97fe91aa97ae60544\
             a7642c93b3f153a998d59a94316bafc4"
        );
        assert_eq!(ks.to_vec(), oracle_keystream(b"pinned keystream key", 80));
    }

    #[test]
    fn debug_shows_no_key_material() {
        let key = [0xC7u8; 24];
        let mut cipher = StreamCipher::new(&key);
        cipher.apply(&mut [0u8; 40]);
        // Neither the primed hasher nor the cached keystream block is shown.
        assert_eq!(format!("{cipher:?}"), "StreamCipher { position: 40, .. }");
    }
}
