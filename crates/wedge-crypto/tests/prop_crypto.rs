//! Property-based tests for the crypto substrate.

use proptest::prelude::*;
use wedge_crypto::sha256::to_hex;
use wedge_crypto::{hmac_sha256, sha256, RsaKeyPair, Sha256, StreamCipher, WedgeRng};

/// A test-local AES-256 encryption (FIPS-197), byte by byte as the standard
/// writes it and sharing no code with the crate, so the keystream's oracle
/// is independent of what it checks.
mod aes256 {
    use std::sync::OnceLock;

    /// Multiplication in GF(2^8) modulo `x^8 + x^4 + x^3 + x + 1`.
    fn mul(mut a: u8, mut b: u8) -> u8 {
        let mut product = 0;
        while b != 0 {
            if b & 1 != 0 {
                product ^= a;
            }
            a = (a << 1) ^ if a & 0x80 != 0 { 0x1b } else { 0 };
            b >>= 1;
        }
        product
    }

    /// The S-box: each byte's inverse, found by search (0 for 0), through
    /// the affine map.
    fn sbox() -> &'static [u8; 256] {
        static SBOX: OnceLock<[u8; 256]> = OnceLock::new();
        SBOX.get_or_init(|| {
            std::array::from_fn(|x| {
                let inverse = (1..=255).find(|&y| mul(x as u8, y) == 1).unwrap_or(0);
                (1..5).fold(0x63 ^ inverse, |b, i| b ^ inverse.rotate_left(i))
            })
        })
    }

    pub fn encrypt(key: &[u8; 32], block: [u8; 16]) -> [u8; 16] {
        let sub = |byte: u8| sbox()[usize::from(byte)];
        // Key expansion (§5.2): sixty words, four per round key.
        let mut w: Vec<[u8; 4]> = key.chunks(4).map(|word| word.try_into().unwrap()).collect();
        let mut rcon = 1;
        for i in 8..60 {
            let mut t = w[i - 1];
            if i % 8 == 0 {
                t = [sub(t[1]) ^ rcon, sub(t[2]), sub(t[3]), sub(t[0])];
                rcon = mul(rcon, 2);
            } else if i % 8 == 4 {
                t = t.map(sub);
            }
            let word = std::array::from_fn(|j| w[i - 8][j] ^ t[j]);
            w.push(word);
        }
        // Byte `4c + r` of the state is row `r` of column `c`.
        let add_round_key = |state: &mut [u8; 16], round: usize| {
            for (i, byte) in state.iter_mut().enumerate() {
                *byte ^= w[4 * round + i / 4][i % 4];
            }
        };
        let mut state = block;
        add_round_key(&mut state, 0);
        for round in 1..=14 {
            state = state.map(sub);
            state = std::array::from_fn(|i| state[4 * ((i / 4 + i % 4) % 4) + i % 4]);
            if round < 14 {
                state = std::array::from_fn(|i| {
                    let column = &state[4 * (i / 4)..4 * (i / 4) + 4];
                    let r = i % 4;
                    mul(2, column[r])
                        ^ mul(3, column[(r + 1) % 4])
                        ^ column[(r + 2) % 4]
                        ^ column[(r + 3) % 4]
                });
            }
            add_round_key(&mut state, round);
        }
        state
    }
}

/// `ks[i] = AES-256_K(be128(i / 16))[i % 16]` with `K = SHA-256(key)`: the
/// wire format, written the slow way on the test-local AES.
fn keystream_definition(key: &[u8], len: usize) -> Vec<u8> {
    let k = sha256(key);
    (0..len.div_ceil(16) as u128)
        .flat_map(|block| aes256::encrypt(&k, block.to_be_bytes()))
        .take(len)
        .collect()
}

/// The test-local AES against FIPS-197 Appendix C.3, so the oracle above
/// is AES-256 itself.
#[test]
fn the_test_local_aes_matches_fips_197_c3() {
    let key: [u8; 32] = std::array::from_fn(|i| i as u8);
    let plaintext = 0x00112233_44556677_8899aabb_ccddeeff_u128.to_be_bytes();
    let ciphertext = 0x8ea2b7ca_516745bf_eafc4990_4b496089_u128.to_be_bytes();
    assert_eq!(aes256::encrypt(&key, plaintext), ciphertext);
}

/// The keystream vector `stream.rs` pins is the test-local oracle's.
#[test]
fn the_pinned_keystream_vector_is_the_oracles() {
    assert_eq!(
        to_hex(&keystream_definition(b"pinned keystream key", 80)),
        "e6056840a755e1a977f5f9a9a4bed66814e251446c6cb25b8298b3b90198dc4d\
         cb2f0a211f18f5f670d70c6c547d5914d0413942a604d1d5fb9b53b1bf1789d9\
         722468f0e5bb3c6976d460f045623934"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn sha256_is_deterministic_and_length_32(data in prop::collection::vec(any::<u8>(), 0..2048)) {
        let a = sha256(&data);
        let b = sha256(&data);
        prop_assert_eq!(a, b);
        prop_assert_eq!(a.len(), 32);
    }

    #[test]
    fn sha256_streaming_equals_oneshot(data in prop::collection::vec(any::<u8>(), 0..4096), split in 0usize..4096) {
        let split = split.min(data.len());
        let mut h = Sha256::new();
        h.update(&data[..split]);
        h.update(&data[split..]);
        prop_assert_eq!(h.finalize(), sha256(&data));
    }

    #[test]
    fn hmac_detects_any_single_bit_flip(
        key in prop::collection::vec(any::<u8>(), 1..64),
        msg in prop::collection::vec(any::<u8>(), 1..256),
        byte_idx in 0usize..256,
        bit in 0u8..8,
    ) {
        let tag = hmac_sha256(&key, &msg);
        let mut tampered = msg.clone();
        let idx = byte_idx % tampered.len();
        tampered[idx] ^= 1 << bit;
        if tampered != msg {
            prop_assert_ne!(hmac_sha256(&key, &tampered), tag);
        }
    }

    #[test]
    fn rsa_roundtrips_arbitrary_messages(seed in 1u64..500, msg in prop::collection::vec(any::<u8>(), 0..256)) {
        let kp = RsaKeyPair::generate(&mut WedgeRng::from_seed(seed));
        let ct = kp.public.encrypt(&msg);
        let pt = kp.private.decrypt(&ct).unwrap();
        prop_assert_eq!(pt, msg);
    }

    #[test]
    fn rsa_signatures_verify_and_tampered_ones_do_not(
        seed in 1u64..200,
        msg in prop::collection::vec(any::<u8>(), 1..128),
        flip in 0usize..1024,
    ) {
        let kp = RsaKeyPair::generate(&mut WedgeRng::from_seed(seed));
        let digest = sha256(&msg);
        let sig = kp.private.sign_digest(&digest);
        prop_assert!(kp.public.verify_digest(&digest, &sig).is_ok());
        let mut bad = sig.clone();
        let idx = flip % bad.len();
        bad[idx] ^= 0x55;
        if bad != sig {
            prop_assert!(kp.public.verify_digest(&digest, &bad).is_err());
        }
    }

    #[test]
    fn stream_cipher_roundtrips(key in prop::collection::vec(any::<u8>(), 1..64), msgs in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..128), 1..8)) {
        let mut enc = StreamCipher::new(&key);
        let mut dec = StreamCipher::new(&key);
        for msg in &msgs {
            let mut buf = msg.clone();
            enc.apply(&mut buf);
            dec.apply(&mut buf);
            prop_assert_eq!(&buf, msg);
        }
    }

    /// However a buffer is cut into `apply` calls, the cipher produces the
    /// bytes of the per-byte keystream definition. A round-trip cannot see a
    /// bug that is the same in both directions; this can. Keys cover the
    /// empty key and keys hashed in one compression, two and more; chunks
    /// of 15, 17 and 63 start the kernel's blocks and groups of four
    /// mid-block.
    #[test]
    fn stream_cipher_matches_the_per_byte_definition_under_any_chunking(
        key in prop::collection::vec(any::<u8>(), 0..200),
        len in 0usize..4096,
        chunks in prop::collection::vec(
            prop_oneof![
                Just(0usize), Just(1), Just(15), Just(16), Just(17), Just(63), Just(64), Just(65), 0usize..200
            ],
            1..16,
        ),
    ) {
        // The chunk sizes repeat until the buffer is used up.
        prop_assume!(chunks.iter().any(|chunk| *chunk > 0));
        let mut got = vec![0u8; len];
        let mut cipher = StreamCipher::new(&key);
        let mut rest = &mut got[..];
        for chunk in chunks.iter().cycle() {
            let (head, tail) = rest.split_at_mut((*chunk).min(rest.len()));
            cipher.apply(head);
            rest = tail;
            if rest.is_empty() {
                break;
            }
        }
        prop_assert_eq!(got, keystream_definition(&key, len));
    }

    #[test]
    fn kdf_collision_free_over_premaster(pm1 in prop::collection::vec(any::<u8>(), 1..64), pm2 in prop::collection::vec(any::<u8>(), 1..64)) {
        prop_assume!(pm1 != pm2);
        let a = wedge_crypto::derive_key_block(&pm1, b"cr", b"sr");
        let b = wedge_crypto::derive_key_block(&pm2, b"cr", b"sr");
        prop_assert_ne!(a.fingerprint(), b.fingerprint());
    }
}
