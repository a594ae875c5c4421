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
//! keeps the rest of `key ‖ counter ‖ padding` as a tail template of
//! big-endian message words: one block while the key's remainder is at most
//! 47 bytes, else two. A keystream block compresses the template, counter
//! inserted, from the keyed state: two compressions per 64 payload bytes for
//! short keys. The wire format fixes that count. The blocks are independent,
//! so where the CPU has the SHA extensions one kernel call runs every block
//! an `apply` reaches as lanes in lockstep, at the SHA unit's throughput
//! rather than one chain's latency, and the keystream reads above half of
//! [`sha256`](crate::sha256())'s one-chain throughput; on the scalar rounds
//! half is the ceiling. `apply` computes exactly the blocks it consumes, and
//! nothing allocates.

use std::fmt;

#[cfg(target_arch = "x86_64")]
use crate::sha256::x86;
use crate::sha256::{compress, digest, rounds, words, DIGEST_LEN, H0};

/// A symmetric keystream cipher. Encryption and decryption are the same
/// operation (XOR with the keystream at the current offset).
#[derive(Clone)]
pub struct StreamCipher {
    /// The state after the key's whole blocks.
    keyed: [u32; 8],
    /// The rest of the key, a zeroed counter slot, then SHA-256's padding
    /// for a `key ‖ le64` message, as big-endian message words:
    /// `tail_blocks` blocks.
    tail: [[u32; 16]; 2],
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
        let mut tail = [[0u8; 64]; 2];
        let flat = tail.as_flattened_mut();
        flat[..rest.len()].copy_from_slice(rest);
        let counter_at = rest.len();
        flat[counter_at + 8] = 0x80;
        let tail_blocks = if counter_at + 8 < 56 { 1 } else { 2 };
        let bit_len = (key.len() as u64 + 8).wrapping_mul(8);
        flat[64 * tail_blocks - 8..64 * tail_blocks].copy_from_slice(&bit_len.to_be_bytes());
        StreamCipher {
            keyed: compress(H0, whole),
            tail: tail.map(|block| words(&block)),
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
        if !data.is_empty() {
            self.keystream(self.position / DIGEST_LEN as u64, data);
            self.position += data.len() as u64;
        }
    }

    /// XORs `data` with the keystream from block `counter` on and keeps the
    /// last block's in `block`: one dispatch for the whole run.
    fn keystream(&mut self, counter: u64, data: &mut [u8]) {
        #[cfg(target_arch = "x86_64")]
        if x86::run(x86::Job::Keystream {
            keyed: self.keyed,
            tail: &self.tail[..self.tail_blocks],
            counter_at: self.counter_at,
            counter,
            data: &mut *data,
            last: &mut self.block,
        }) {
            return;
        }
        self.scalar_keystream(counter, data);
    }

    /// [`keystream`](Self::keystream) on the scalar rounds, a block at a
    /// time: the fallback, and the kernel's reference.
    fn scalar_keystream(&mut self, counter: u64, data: &mut [u8]) {
        for (counter, chunk) in (counter..).zip(data.chunks_mut(DIGEST_LEN)) {
            let mut tail = self.tail;
            let flat = tail.as_flattened_mut();
            for (at, byte) in (self.counter_at..).zip(counter.to_le_bytes()) {
                flat[at / 4] |= u32::from(byte) << (24 - 8 * (at % 4));
            }
            let mut state = self.keyed;
            for words in &tail[..self.tail_blocks] {
                rounds(&mut state, *words);
            }
            self.block = digest(&state);
            xor(chunk, &self.block);
        }
    }
}

fn xor(data: &mut [u8], keystream: &[u8]) {
    for (byte, ks) in data.iter_mut().zip(keystream) {
        *byte ^= ks;
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;
    use crate::sha256::{to_hex, Sha256};

    /// The per-byte definition of the keystream, kept as the reference the
    /// block-wise `apply` is tested against.
    fn oracle_keystream(key: &[u8], len: usize) -> Vec<u8> {
        oracle_from(key, 0, len)
    }

    /// Keystream bytes `start..start + len` by the definition, hashing each
    /// block once for all its bytes.
    fn oracle_from(key: &[u8], start: u64, len: usize) -> Vec<u8> {
        let mut block = (u64::MAX, [0u8; DIGEST_LEN]);
        (start..start + len as u64)
            .map(|i| {
                let counter = i / DIGEST_LEN as u64;
                if block.0 != counter {
                    let mut h = Sha256::new();
                    h.update(key);
                    h.update(&counter.to_le_bytes());
                    block = (counter, h.finalize());
                }
                block.1[(i % DIGEST_LEN as u64) as usize]
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

    fn chunk() -> impl Strategy<Value = usize> {
        let edges = [31usize, 32, 33, 63, 64, 65, 100].map(Just);
        let [a, b, c, d, e, f, g] = edges;
        prop_oneof![a, b, c, d, e, f, g, 0usize..130]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10_000))]

        /// Every counter offset and both tail shapes (keys of 0..200 bytes),
        /// from a start mid-block or mid-pair, in chunks around the block
        /// and pair sizes: `apply` against the definition, and the scalar
        /// rounds (the kernel's lanes' reference) over the same blocks.
        fn apply_matches_the_oracle(
            key_len in 0usize..200,
            seed in any::<u8>(),
            start in 0usize..200,
            chunks in prop::collection::vec(chunk(), 0..6),
        ) {
            let key: Vec<u8> = (0..key_len).map(|i| (i * 29) as u8 ^ seed).collect();
            let mut cipher = StreamCipher::new(&key);
            cipher.apply(&mut vec![0u8; start]);
            let total: usize = chunks.iter().sum();
            let mut got = vec![0u8; total];
            let mut rest = &mut got[..];
            for len in chunks {
                let (head, tail) = rest.split_at_mut(len);
                cipher.apply(head);
                rest = tail;
            }
            let expected = oracle_from(&key, start as u64, total);
            prop_assert_eq!(&got, &expected);
            let first = start / DIGEST_LEN * DIGEST_LEN;
            let mut scalar = vec![0u8; start + total - first];
            StreamCipher::new(&key).scalar_keystream((start / DIGEST_LEN) as u64, &mut scalar);
            prop_assert_eq!(&scalar[start - first..], &expected[..]);
        }
    }

    #[test]
    fn apply_matches_the_oracle_for_every_key_shape() {
        #[cfg(target_arch = "x86_64")]
        let path = if is_x86_feature_detected!("sha") && is_x86_feature_detected!("sse4.1") {
            "the SHA-extension kernel"
        } else {
            "the scalar rounds"
        };
        #[cfg(not(target_arch = "x86_64"))]
        let path = "the scalar rounds";
        println!("keystream path: {path}");
        apply_matches_the_oracle();
    }

    /// The counter is a `u64`: the keystream runs on across the carries into
    /// its high word (block 2^32) and into its top byte (block 2^56), for
    /// keys whose counter sits word-aligned, unaligned, across two vectors
    /// and across the tail's two blocks.
    #[test]
    fn keystream_runs_on_across_the_counters_carries() {
        for key_len in [0usize, 13, 15, 40, 61, 127] {
            let key: Vec<u8> = (0..key_len).map(|i| (i * 7 + 1) as u8).collect();
            for carry in [32, 56] {
                let mut cipher = StreamCipher::new(&key);
                let start = ((1u64 << carry) - 3) * DIGEST_LEN as u64;
                cipher.position = start;
                let mut got = vec![0u8; 200];
                cipher.apply(&mut got);
                let expected = oracle_from(&key, start, 200);
                assert_eq!(got, expected, "key length {key_len}, block 2^{carry}");
            }
        }
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
