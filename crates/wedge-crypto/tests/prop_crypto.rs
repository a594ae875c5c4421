//! Property-based tests for the crypto substrate.

use proptest::prelude::*;
use wedge_crypto::{hmac_sha256, sha256, RsaKeyPair, Sha256, StreamCipher, WedgeRng};

/// `ks[i] = SHA256(key ‖ le64(i / 32))[i % 32]`, one hash per byte: the wire
/// format, written the slow way.
fn keystream_definition(key: &[u8], len: usize) -> Vec<u8> {
    (0..len as u64)
        .map(|i| {
            let mut h = Sha256::new();
            h.update(key).update(&(i / 32).to_le_bytes());
            h.finalize()[(i % 32) as usize]
        })
        .collect()
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
    /// bug that is the same in both directions; this can.
    #[test]
    fn stream_cipher_matches_the_per_byte_definition_under_any_chunking(
        key in prop::collection::vec(any::<u8>(), 1..64),
        len in 0usize..4096,
        chunks in prop::collection::vec(
            prop_oneof![Just(0usize), Just(1), Just(31), Just(32), Just(33), Just(65), 0usize..200],
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
