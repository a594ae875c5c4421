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
//! **Cost model.** `new` absorbs the key's whole 64-byte blocks once and
//! keeps the rest of `key ‖ counter ‖ padding` as a tail template: one block
//! while the key's remainder is at most 47 bytes, else two. A keystream block
//! compresses the template, counter written in, from the keyed state: two
//! compressions per 64 payload bytes for short keys, half of
//! [`sha256`](crate::sha256())'s throughput. The wire format fixes that
//! count; each compression costs the hardware's where the CPU has the SHA
//! extensions, and `apply` interleaves blocks in pairs. Nothing allocates.

use std::fmt;

use crate::sha256::{compress_lanes, digest, DIGEST_LEN, H0};

/// A symmetric keystream cipher. Encryption and decryption are the same
/// operation (XOR with the keystream at the current offset).
#[derive(Clone)]
pub struct StreamCipher {
    /// The state after the key's whole blocks.
    keyed: [u32; 8],
    /// The rest of the key, the counter slot, then SHA-256's padding for a
    /// `key ‖ le64` message: `tail_blocks` blocks.
    tail: [[u8; 64]; 2],
    tail_blocks: usize,
    /// Where the counter goes in `tail`, as a byte offset.
    counter_at: usize,
    /// Absolute keystream position (bytes consumed so far).
    position: u64,
    /// The keystream block containing `position`, valid whenever `position`
    /// is not on a block boundary.
    block: [u8; DIGEST_LEN],
}

/// Prints the position only: everything else is key-derived.
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
        let (whole, rest) = key.as_chunks::<64>();
        let [keyed] = compress_lanes([H0], [whole]);
        let mut tail = [[0u8; 64]; 2];
        let flat = tail.as_flattened_mut();
        flat[..rest.len()].copy_from_slice(rest);
        let counter_at = rest.len();
        flat[counter_at + 8] = 0x80;
        let tail_blocks = if counter_at + 8 < 56 { 1 } else { 2 };
        let bit_len = (key.len() as u64 + 8).wrapping_mul(8);
        flat[64 * tail_blocks - 8..64 * tail_blocks].copy_from_slice(&bit_len.to_be_bytes());
        StreamCipher {
            keyed,
            tail,
            tail_blocks,
            counter_at,
            position: 0,
            block: [0u8; DIGEST_LEN],
        }
    }

    /// XOR `data` with the keystream in place, advancing the position.
    pub fn apply(&mut self, mut data: &mut [u8]) {
        let offset = (self.position % DIGEST_LEN as u64) as usize;
        if offset > 0 {
            let take = (DIGEST_LEN - offset).min(data.len());
            let (head, rest) = data.split_at_mut(take);
            xor(head, &self.block[offset..]);
            self.position += take as u64;
            data = rest;
        }
        let (pairs, rest) = data.as_chunks_mut::<64>();
        let mut tails = [self.tail; 2];
        for pair in pairs {
            xor(pair, self.next_pair(&mut tails).as_flattened());
            self.position += 64;
        }
        if !rest.is_empty() {
            let keystream = self.next_pair(&mut tails);
            xor(rest, keystream.as_flattened());
            self.block = keystream[rest.len() / DIGEST_LEN];
            self.position += rest.len() as u64;
        }
    }

    /// The two keystream blocks from `position` (a block boundary) on, one
    /// per lane; a tail of at most 32 bytes leaves the second unused.
    fn next_pair(&self, tails: &mut [[[u8; 64]; 2]; 2]) -> [[u8; 32]; 2] {
        let counter = self.position / DIGEST_LEN as u64;
        for (lane, tail) in (0..).zip(tails.iter_mut()) {
            tail.as_flattened_mut()[self.counter_at..self.counter_at + 8]
                .copy_from_slice(&(counter + lane).to_le_bytes());
        }
        let lanes = tails.each_ref().map(|tail| &tail[..self.tail_blocks]);
        compress_lanes([self.keyed; 2], lanes).map(|state| digest(&state))
    }
}

fn xor(data: &mut [u8], keystream: &[u8]) {
    for (byte, ks) in data.iter_mut().zip(keystream) {
        *byte ^= ks;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::{to_hex, Sha256};

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
    /// mid-block or mid-pair, against the per-byte definition, for keys of
    /// every tail shape: empty, one block, two, and whole blocks.
    #[test]
    fn chunked_apply_matches_the_per_byte_oracle() {
        for key_len in [0usize, 10, 47, 48, 55, 56, 63, 64, 65, 111, 112, 128, 199] {
            let key: Vec<u8> = (0..key_len).map(|i| (i * 31 + 7) as u8).collect();
            let chunks = [0usize, 1, 31, 32, 33, 65, 0, 7, 64, 1, 96, 5, 63, 100];
            let total: usize = chunks.iter().sum();
            let mut got = vec![0u8; total];
            let mut cipher = StreamCipher::new(&key);
            let mut rest = &mut got[..];
            for len in chunks {
                let (head, tail) = rest.split_at_mut(len);
                cipher.apply(head);
                rest = tail;
            }
            assert_eq!(got, oracle_keystream(&key, total), "key length {key_len}");
            assert_eq!(cipher.position, total as u64);
        }
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
        // Neither the keyed state, the tail nor the cached block is shown.
        assert_eq!(format!("{cipher:?}"), "StreamCipher { position: 40, .. }");
    }
}
