//! Encrypt-then-MAC over whole records, in place: a record's counter mode
//! and its HMAC-SHA256, two records at a time.
//!
//! A record the TLS layer seals is `prefix ‖ ciphertext ‖ tag`, where the
//! ciphertext is the plaintext XORed with a [`StreamCipher`]'s keystream
//! and the tag is the HMAC of `prefix ‖ ciphertext`. [`seal`] turns
//! `prefix ‖ plaintext ‖ (room for the tag)` into that record where it
//! lies, and [`open`] checks a record's tag and decrypts it where it lies.
//! Both compute exactly what `StreamCipher::apply` and `HmacSha256::update`
//! would: an optimisation of how the bytes are produced, never of which.
//!
//! **Cost model.** Per 64 bytes of a record: one compression of the MAC's
//! inner chain and four AES-256 blocks, over bytes already in the record,
//! so the caller's one copy (the plaintext into the record, or the opened
//! text out of it) is the only one. A record of at most 16 KiB stays in
//! L1 between its counter mode and its MAC. A compression waits on the
//! one before it in its chain, so one chain leaves the SHA unit idle
//! between rounds; the records of a message are independent chains, and
//! two of them in lockstep fill that latency: on a CPU with the SHA
//! extensions one kernel call runs a pair's MAC chains with their rounds
//! interleaved, 1.3x one chain's throughput on a 2-vCPU Xeon with the
//! SHA extensions. Each record then
//! finishes its own tail and outer hash: two compressions, as for any
//! HMAC. Where the CPU lacks the extensions, each chain runs alone on the
//! scalar rounds, to the same bytes.

use std::array::from_fn;

use crate::aes::{self, BLOCK};
use crate::sha256::{self, DIGEST_LEN};
use crate::{ct_eq, HmacSha256, StreamCipher};

/// One record for [`seal`] or [`open`]: `record` is `prefix ‖ text ‖ tag`,
/// with the tag its last 32 bytes and the prefix its first `prefix` bytes
/// (a sequence header, say), which the MAC covers and the cipher leaves
/// alone. The keystream is `cipher`'s from its position on, which must be
/// a multiple of 16 (a fresh cipher's is 0).
pub struct Lane<'a> {
    /// The keystream the text is XORed with.
    pub cipher: StreamCipher,
    /// The whole record, crypted in place.
    pub record: &'a mut [u8],
    /// How many bytes precede the text.
    pub prefix: usize,
}

impl Lane<'_> {
    /// What the MAC covers: the record without its tag.
    fn body(&self) -> &[u8] {
        &self.record[..self.record.len() - DIGEST_LEN]
    }

    /// XORs the text with the keystream, in place.
    fn crypt(&mut self) {
        let counter = u128::from(self.cipher.position / BLOCK as u64);
        let end = self.record.len() - DIGEST_LEN;
        aes::ctr(
            &self.cipher.keys,
            counter,
            &mut self.record[self.prefix..end],
        );
    }

    /// The tag of the body, from `state`: the inner chain after `absorbed`
    /// bytes and then the body's whole blocks.
    fn tag(&self, mac: &HmacSha256, state: [u32; 8], absorbed: u64) -> [u8; DIGEST_LEN] {
        let body = self.body();
        let whole = body.len() / 64 * 64;
        mac.finish(state, absorbed + whole as u64, &body[whole..])
    }
}

/// Encrypts each lane's text in place and writes the tag of
/// `prefix ‖ ciphertext` into its last 32 bytes: what
/// `mac.clone().update(prefix ‖ ciphertext).finalize()` returns.
///
/// # Panics
///
/// As [`open`].
pub fn seal<const N: usize>(mac: &HmacSha256, mut lanes: [Lane<'_>; N]) {
    for lane in &mut lanes {
        lane.crypt();
    }
    let (states, absorbed) = chains(mac, &lanes);
    for (lane, state) in lanes.iter_mut().zip(states) {
        let tag = lane.tag(mac, state, absorbed);
        let at = lane.record.len() - DIGEST_LEN;
        lane.record[at..].copy_from_slice(&tag);
    }
}

/// Checks each lane's tag against `prefix ‖ ciphertext` and decrypts the
/// text of each genuine one in place; returns which were genuine. A lane
/// whose tag is wrong is left as it came: nothing forged is decrypted.
///
/// # Panics
///
/// If a record is shorter than its prefix plus the tag, a cipher's
/// position is not a multiple of 16, or `mac` holds a partial block of
/// message (`HmacSha256::new` leaves none).
pub fn open<const N: usize>(mac: &HmacSha256, mut lanes: [Lane<'_>; N]) -> [bool; N] {
    let (states, absorbed) = chains(mac, &lanes);
    from_fn(|i| {
        let lane = &mut lanes[i];
        let tag = lane.tag(mac, states[i], absorbed);
        let genuine = ct_eq(&tag, &lane.record[lane.record.len() - DIGEST_LEN..]);
        if genuine {
            lane.crypt();
        }
        genuine
    })
}

/// Each lane's MAC inner chain over its body's whole blocks from `mac`'s
/// keyed state, two lanes per pass; and the bytes that state had absorbed.
fn chains<const N: usize>(mac: &HmacSha256, lanes: &[Lane<'_>; N]) -> ([[u32; 8]; N], u64) {
    let (state, absorbed) = mac
        .inner_boundary()
        .expect("a MAC that has absorbed whole blocks only");
    for lane in lanes {
        assert!(
            lane.record.len() >= lane.prefix + DIGEST_LEN,
            "record too short"
        );
        assert_eq!(lane.cipher.position % BLOCK as u64, 0, "cipher mid-block");
    }
    let mut states = [state; N];
    for (lanes, states) in lanes.chunks(2).zip(states.chunks_mut(2)) {
        let blocks = |l: usize| lanes[l].body().as_chunks::<64>().0;
        match states {
            [a, b] => [*a, *b] = sha256::compress_pair([*a, *b], [blocks(0), blocks(1)]),
            [a] => *a = sha256::compress(*a, blocks(0)),
            _ => unreachable!("chunks of at most two"),
        }
    }
    (states, absorbed)
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;
    use crate::aes::{scalar_ctr, schedule};
    use crate::sha256::{rounds, sha256, words};

    /// One record by its definition on the scalar reference: the
    /// ciphertext from the scalar AES and the tag from the scalar SHA
    /// rounds.
    fn reference(key: &[u8], mac_key: &[u8], prefix: &[u8], plaintext: &[u8]) -> Vec<u8> {
        let mut record = [prefix, plaintext].concat();
        scalar_ctr(&schedule(&sha256(key)), 0, &mut record[prefix.len()..]);
        let scalar_sha = |message: &[u8]| {
            let mut padded = message.to_vec();
            padded.push(0x80);
            while padded.len() % 64 != 56 {
                padded.push(0);
            }
            padded.extend_from_slice(&(message.len() as u64 * 8).to_be_bytes());
            let mut state = sha256::H0;
            for block in padded.as_chunks::<64>().0 {
                rounds(&mut state, words(block));
            }
            sha256::digest(&state)
        };
        let mut key_block = [0u8; 64];
        key_block[..mac_key.len()].copy_from_slice(mac_key);
        let inner = scalar_sha(&[&key_block.map(|b| b ^ 0x36)[..], &record].concat());
        let tag = scalar_sha(&[&key_block.map(|b| b ^ 0x5c)[..], &inner].concat());
        record.extend_from_slice(&tag);
        record
    }

    fn lanes<'a, const N: usize>(
        keys: [&[u8]; N],
        records: &'a mut [Vec<u8>; N],
        prefix: usize,
    ) -> [Lane<'a>; N] {
        let mut records = records.iter_mut();
        from_fn(|i| Lane {
            cipher: StreamCipher::new(keys[i]),
            record: records.next().expect("N records"),
            prefix,
        })
    }

    fn sealed<const N: usize>(
        mac_key: &[u8],
        keys: [&[u8]; N],
        prefix: &[u8],
        plaintexts: [&[u8]; N],
    ) -> [Vec<u8>; N] {
        let mut records =
            plaintexts.map(|plaintext| [prefix, plaintext, &[0; DIGEST_LEN]].concat());
        let mac = HmacSha256::new(mac_key);
        seal(&mac, lanes(keys, &mut records, prefix.len()));
        records
    }

    fn opened<const N: usize>(
        mac_key: &[u8],
        keys: [&[u8]; N],
        mut records: [Vec<u8>; N],
        prefix: usize,
    ) -> ([bool; N], [Vec<u8>; N]) {
        let mac = HmacSha256::new(mac_key);
        let genuine = open(&mac, lanes(keys, &mut records, prefix));
        let texts = records.map(|record| record[prefix..record.len() - DIGEST_LEN].to_vec());
        (genuine, texts)
    }

    fn text(len: usize, seed: u8) -> Vec<u8> {
        (0..len).map(|i| (i * 31) as u8 ^ seed).collect()
    }

    fn length() -> impl Strategy<Value = usize> {
        let edges = [0usize, 1, 55, 56, 63, 64, 1016, 1024, 1080, 2_100].map(Just);
        let [a, b, c, d, e, f, g, h, i, j] = edges;
        prop_oneof![a, b, c, d, e, f, g, h, i, j, 0usize..1_200]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10_000))]

        /// Two lanes in one pass, each lane alone, and the scalar reference
        /// agree byte for byte, for lanes of unequal lengths around the
        /// block size and prefixes of 0..80 bytes; each record opens to its
        /// plaintext through a pair and alone.
        fn two_lanes_match_one_lane_and_the_scalar_reference(
            first in length(),
            second in length(),
            prefix in 0usize..80,
            seed in any::<u8>(),
            key_len in 0usize..70,
        ) {
            let (a, b) = (text(first, seed), text(second, !seed));
            let prefix = text(prefix, seed.rotate_left(3));
            let key_a = text(key_len, seed ^ 0x5A);
            let key_b = text(key_len + 3, seed ^ 0xA5);
            let mac_key = text(key_len % 64, seed);
            let [pair_a, pair_b] = sealed(&mac_key, [&key_a, &key_b], &prefix, [&a, &b]);
            let [alone_a] = sealed(&mac_key, [&key_a], &prefix, [&a]);
            let [alone_b] = sealed(&mac_key, [&key_b], &prefix, [&b]);
            prop_assert_eq!(&pair_a, &alone_a);
            prop_assert_eq!(&pair_b, &alone_b);
            prop_assert_eq!(&pair_a, &reference(&key_a, &mac_key, &prefix, &a));
            prop_assert_eq!(&pair_b, &reference(&key_b, &mac_key, &prefix, &b));
            let records = [pair_a, pair_b.clone()];
            let (genuine, [open_a, open_b]) =
                opened(&mac_key, [&key_a, &key_b], records, prefix.len());
            prop_assert_eq!(genuine, [true, true]);
            prop_assert_eq!(&open_a, &a);
            prop_assert_eq!(&open_b, &b);
            let (genuine, [alone]) = opened(&mac_key, [&key_b], [pair_b], prefix.len());
            prop_assert_eq!(genuine, [true]);
            prop_assert_eq!(&alone, &b);
        }
    }

    #[test]
    fn lanes_match_the_scalar_reference() {
        #[cfg(target_arch = "x86_64")]
        let path = if is_x86_feature_detected!("sha") && is_x86_feature_detected!("sse4.1") {
            "two chains in lockstep"
        } else {
            "one chain at a time"
        };
        #[cfg(not(target_arch = "x86_64"))]
        let path = "one chain at a time";
        println!("MAC path: {path}");
        two_lanes_match_one_lane_and_the_scalar_reference();
    }

    /// A flipped bit anywhere in one record of a pair fails that lane only,
    /// which stays as it came; the other lane still opens.
    #[test]
    fn a_tampered_lane_is_rejected_and_left_undecrypted() {
        let (a, b) = (text(3_000, 1), text(100, 2));
        let [record_a, record_b] = sealed(b"mac", [b"k0", b"k1"], b"hdr", [&a, &b]);
        for at in [0, 2, 3, 1_000, 3_002, record_a.len() - 1] {
            let mut forged = record_a.clone();
            forged[at] ^= 0x10;
            let records = [forged.clone(), record_b.clone()];
            let (genuine, [open_a, open_b]) = opened(b"mac", [b"k0", b"k1"], records, 3);
            assert_eq!(genuine, [false, true], "byte {at}");
            assert_eq!(open_a, forged[3..forged.len() - DIGEST_LEN], "byte {at}");
            assert_eq!(open_b, b);
        }
        let (genuine, _) = opened(b"other", [b"k0"], [record_a], 3);
        assert_eq!(genuine, [false]);
    }

    /// A cipher that has already run keeps its place: the lane's keystream
    /// starts at its position, as `apply` would continue it.
    #[test]
    fn a_lane_continues_its_ciphers_keystream() {
        let plaintext = text(200, 9);
        let mut cipher = StreamCipher::new(b"key");
        cipher.apply(&mut [0; 48]);
        let mut expected = plaintext.clone();
        cipher.clone().apply(&mut expected);
        let mut record = [&plaintext[..], &[0; DIGEST_LEN]].concat();
        let lane = Lane {
            cipher,
            record: &mut record,
            prefix: 0,
        };
        seal(&HmacSha256::new(b"mac"), [lane]);
        assert_eq!(record[..200], expected[..]);
    }
}
