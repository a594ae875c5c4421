//! Counter-mode keystream cipher: AES-256-CTR under the SHA-256 of the key.
//!
//! The SSL record layer in the reproduction encrypts application data with
//! this cipher plus an HMAC. As with the rest of this crate, the goal is a
//! faithful *structure* (symmetric key shared by both record endpoints,
//! keystream independent of plaintext, same key ⇒ same keystream), not real
//! confidentiality.
//!
//! **The keystream definition is the wire format:**
//! `ks[i] = AES-256_K(be128(i / 16))[i % 16]` with `K = SHA-256(key)`: AES-256
//! (FIPS-197) in counter mode (NIST SP 800-38A §6.5) from the initial
//! counter block 0. Both record endpoints and every pinned vector depend on
//! it; an optimisation may change how the bytes are produced, never which
//! bytes.
//!
//! **Cost model.** `new` hashes the key (one SHA-256 compression for a key
//! of at most 55 bytes) and expands AES-256's fifteen round keys once. A
//! keystream block is one AES block, fourteen rounds per 16 bytes, four
//! blocks per 64 payload bytes, and no hash compression at all. The blocks
//! are independent, so where the CPU has AES-NI one kernel call runs every
//! block an `apply` reaches, four in flight, at the AES unit's throughput:
//! 3.7x [`sha256`](crate::sha256())'s one-chain throughput on an AES-NI and
//! SHA-extension Xeon. The scalar fallback, a table-driven AES, reads 0.8x
//! the scalar SHA rounds. `apply` computes the blocks it consumes, rounded
//! up to a group of four, and nothing allocates.

use std::fmt;

use crate::aes::{self, xor, RoundKeys, BLOCK};
use crate::sha256::sha256;

/// A symmetric keystream cipher. Encryption and decryption are the same
/// operation (XOR with the keystream at the current offset).
#[derive(Clone)]
pub struct StreamCipher {
    /// AES-256's round keys for `SHA-256(key)`.
    pub(crate) keys: RoundKeys,
    /// Absolute keystream position (bytes consumed so far).
    pub(crate) position: u64,
    /// The keystream block containing `position`, valid whenever `position`
    /// is not on a block boundary.
    block: [u8; BLOCK],
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
        StreamCipher {
            keys: aes::expand(&sha256(key)),
            position: 0,
            block: [0u8; BLOCK],
        }
    }

    /// XOR `data` with the keystream in place, advancing the position.
    pub fn apply(&mut self, mut data: &mut [u8]) {
        let offset = (self.position % BLOCK as u64) as usize;
        if offset > 0 {
            let take = (BLOCK - offset).min(data.len());
            let (head, rest) = data.split_at_mut(take);
            xor(head, &self.block[offset..]);
            self.position += take as u64;
            data = rest;
        }
        if !data.is_empty() {
            let counter = u128::from(self.position / BLOCK as u64);
            self.block = aes::ctr(&self.keys, counter, data);
            self.position += data.len() as u64;
        }
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;
    use crate::aes::{encrypt, scalar_ctr, schedule};
    use crate::sha256::to_hex;

    /// The per-byte definition of the keystream on the scalar key schedule
    /// and block function, kept as the reference the block-wise `apply` is
    /// tested against.
    fn oracle_keystream(key: &[u8], len: usize) -> Vec<u8> {
        oracle_from(key, 0, len)
    }

    /// Keystream bytes `start..start + len` by the definition, encrypting
    /// each counter block once for all its bytes.
    fn oracle_from(key: &[u8], start: u64, len: usize) -> Vec<u8> {
        let keys = schedule(&sha256(key));
        let mut block = (u64::MAX, [0u8; BLOCK]);
        (start..start + len as u64)
            .map(|i| {
                let counter = i / BLOCK as u64;
                if block.0 != counter {
                    block = (counter, encrypt(&keys, u128::from(counter).to_be_bytes()));
                }
                block.1[(i % BLOCK as u64) as usize]
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

    /// Chunk sizes around the block size and the kernel's four-block group,
    /// from positions that start mid-block, against the per-byte definition,
    /// for keys hashed in one compression, two, and more.
    #[test]
    fn chunked_apply_matches_the_per_byte_oracle() {
        for key_len in [0usize, 10, 40, 55, 56, 63, 64, 65, 119, 120, 128, 199] {
            let key: Vec<u8> = (0..key_len).map(|i| (i * 31 + 7) as u8).collect();
            let chunks = [0usize, 1, 15, 16, 17, 63, 0, 7, 64, 1, 65, 5, 100, 31];
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

    /// 80 keystream bytes of AES-256-CTR under `SHA-256(key)`, taken from
    /// the test-local AES oracle in `tests/prop_crypto.rs` and matched by
    /// OpenSSL's AES-256-CTR.
    #[test]
    fn pinned_keystream_vector() {
        let mut ks = [0u8; 80];
        StreamCipher::new(b"pinned keystream key").apply(&mut ks);
        assert_eq!(
            to_hex(&ks),
            "e6056840a755e1a977f5f9a9a4bed66814e251446c6cb25b8298b3b90198dc4d\
             cb2f0a211f18f5f670d70c6c547d5914d0413942a604d1d5fb9b53b1bf1789d9\
             722468f0e5bb3c6976d460f045623934"
        );
        assert_eq!(ks.to_vec(), oracle_keystream(b"pinned keystream key", 80));
    }

    fn chunk() -> impl Strategy<Value = usize> {
        let edges = [0usize, 1, 15, 16, 17, 63, 64, 65, 100].map(Just);
        let [a, b, c, d, e, f, g, h, i] = edges;
        prop_oneof![a, b, c, d, e, f, g, h, i, 0usize..130]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10_000))]

        /// Keys of 0..200 bytes, from a start mid-block, in chunks around the
        /// block and four-block sizes with tails that are not a multiple of
        /// 64: `apply` (the kernel where detected) against the per-byte
        /// definition, the scalar block function over the same blocks, and
        /// the round keys `new` expanded against the scalar key schedule.
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
            let first = start / BLOCK * BLOCK;
            let mut scalar = vec![0u8; start + total - first];
            let keys = schedule(&sha256(&key));
            prop_assert_eq!(keys, cipher.keys);
            scalar_ctr(&keys, (start / BLOCK) as u128, &mut scalar);
            prop_assert_eq!(&scalar[start - first..], &expected[..]);
        }
    }

    #[test]
    fn apply_matches_the_oracle_for_every_key_shape() {
        #[cfg(target_arch = "x86_64")]
        let path = if is_x86_feature_detected!("aes") && is_x86_feature_detected!("sse4.1") {
            "the AES-NI kernel"
        } else {
            "the scalar AES"
        };
        #[cfg(not(target_arch = "x86_64"))]
        let path = "the scalar AES";
        println!("keystream path: {path}");
        apply_matches_the_oracle();
    }

    /// The counter block is a `be128` of the block index: the keystream runs
    /// on across the carries into the index's second 32-bit word (block
    /// 2^32) and into its top byte (block 2^56).
    #[test]
    fn keystream_runs_on_across_the_counters_carries() {
        for key_len in [0usize, 13, 40, 127] {
            let key: Vec<u8> = (0..key_len).map(|i| (i * 7 + 1) as u8).collect();
            for carry in [32, 56] {
                let mut cipher = StreamCipher::new(&key);
                let start = ((1u64 << carry) - 3) * BLOCK as u64;
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
        // Neither the round keys nor the cached block is shown.
        assert_eq!(format!("{cipher:?}"), "StreamCipher { position: 40, .. }");
    }
}
