//! Release gate for the bulk TLS path: the keystream cipher, the HMAC and the
//! record layer must run at the fraction of raw SHA-256 throughput their
//! construction implies (`cargo test --release -p wedge-bench -q bulk_path`).
//!
//! Every bound is a ratio against `sha256` measured in the same run, so the
//! gate reads the same on a slow or loaded runner. The cost model, per 64
//! payload bytes: `sha256` and `hmac_sha256` run one SHA-256 compression;
//! `StreamCipher::apply` runs four AES-256 blocks and no compression; a
//! record (`RecordLayer::seal`/`open`) is one MAC-chain compression plus
//! four AES blocks. Those counts are the wire format's. The MAC is one hash
//! chain, each compression waiting on the last, while the keystream's
//! blocks are independent and run four in flight on AES-NI, a unit the
//! chain does not use. So the keystream reads several times `sha256`, and a
//! record, whose MAC chain is about 80 % of its time, a little under it.
//! The keystream has two columns, the record layer's 40-byte key
//! (`cipher_key ‖ be64(seq)`) and a 15-byte one; `new` hashes either once,
//! outside the timed `apply`. A message's records are independent MAC
//! chains, and where the CPU has the SHA extensions `etm` runs two in
//! lockstep at about 1.3x one chain's throughput. A 128 KiB message through
//! `seal_message`/`open_message` is eight records: the first and the last
//! alone, the six between them in pairs, plus one copy per side and
//! per-record keying; its column is the per-side rate, the message's bytes
//! over the mean of its seal and open times. The paired column is the same
//! 128 KiB as four pairs through `etm::seal`/`etm::open` with the copy in
//! and out, without the framing. The floors are set per keystream path,
//! about 80 % of what each path read when they were set: AES-NI, and the
//! scalar AES (where the SHA rounds are scalar too). Every reading and both
//! paths are printed (`-- --nocapture`); `wedge-crypto`'s own release
//! tests pin the SHA-extension chain at >= 3x the scalar rounds and two
//! chains in lockstep at >= 1.2x one.

#![cfg(not(debug_assertions))]

use std::hint::black_box;
use std::time::Instant;

use wedge_crypto::etm::{self, Lane};
use wedge_crypto::{hmac_sha256, sha256, HmacSha256, StreamCipher};
use wedge_tls::record::RecordError;
use wedge_tls::RecordLayer;

const ROUNDS: usize = 21;
const CHUNK: usize = 64 * 1024;
const RECORD: usize = 16 * 1024;
const MESSAGE: usize = 128 * 1024;

/// Median MB/s of each column over `ROUNDS` interleaved rounds, so a load
/// spike on the runner lands on every column of the round it hits.
fn median_mb_s<const N: usize>(mut round: impl FnMut() -> [f64; N]) -> [f64; N] {
    round();
    let rounds: Vec<[f64; N]> = (0..ROUNDS).map(|_| round()).collect();
    std::array::from_fn(|column| {
        let mut samples: Vec<f64> = rounds.iter().map(|r| r[column]).collect();
        samples.sort_by(f64::total_cmp);
        samples[ROUNDS / 2]
    })
}

fn mb_s(bytes: usize, work: impl FnOnce()) -> f64 {
    let start = Instant::now();
    work();
    bytes as f64 / start.elapsed().as_secs_f64().max(f64::EPSILON) / 1e6
}

#[cfg(target_arch = "x86_64")]
fn aes_ni() -> bool {
    is_x86_feature_detected!("aes") && is_x86_feature_detected!("sse4.1")
}

#[cfg(not(target_arch = "x86_64"))]
fn aes_ni() -> bool {
    false
}

/// Whether `etm` runs a pair's MAC chains in lockstep here.
#[cfg(target_arch = "x86_64")]
fn two_lanes() -> bool {
    is_x86_feature_detected!("sha") && is_x86_feature_detected!("sse4.1")
}

#[cfg(not(target_arch = "x86_64"))]
fn two_lanes() -> bool {
    false
}

fn lane(record: &mut [u8]) -> Lane<'_> {
    Lane {
        cipher: StreamCipher::new(&[0x5Au8; 40]),
        record,
        prefix: 8,
    }
}

/// Copies each of `pieces` into its record and seals the records two per
/// `etm::seal` pass, then opens them two per `etm::open` pass and copies
/// each text out: the record layer's work on a message without its
/// framing.
fn paired(mac: &HmacSha256, pieces: &[Vec<u8>], records: &mut [Vec<u8>], opened: &mut [u8]) {
    for (piece, record) in pieces.iter().zip(records.iter_mut()) {
        record[8..8 + piece.len()].copy_from_slice(piece);
    }
    for pair in records.chunks_mut(2) {
        let [a, b] = pair else {
            unreachable!("whole pairs")
        };
        etm::seal(mac, [lane(a), lane(b)]);
    }
    for pair in records.chunks_mut(2) {
        let [a, b] = pair else {
            unreachable!("whole pairs")
        };
        assert_eq!(etm::open(mac, [lane(a), lane(b)]), [true, true]);
    }
    for (record, out) in records.iter().zip(opened.chunks_mut(RECORD)) {
        out.copy_from_slice(&record[8..8 + RECORD]);
    }
}

#[test]
fn bulk_path_runs_at_hash_speed() {
    let mut data = vec![0xA5u8; CHUNK];
    let plaintext = vec![0x3Cu8; RECORD];
    let mut cipher = StreamCipher::new(b"gate stream key");
    let mut record_cipher = StreamCipher::new(&[0x5Au8; 40]);
    let mut sealer = RecordLayer::new(b"gate write key", b"gate mac key");
    let mut opener = RecordLayer::new(b"gate write key", b"gate mac key");
    let message = vec![0x3Cu8; MESSAGE];
    let mut records: Vec<Vec<u8>> = Vec::new();
    let mac = HmacSha256::new(b"gate mac key");
    let count = MESSAGE / RECORD;
    let pieces = vec![vec![0x3Cu8; RECORD]; count];
    let mut sealed = vec![vec![0u8; 8 + RECORD + 32]; count];
    let mut opened = vec![0u8; MESSAGE];

    let [hash, hmac, stream, record_stream, seal, open, streamed, pairs] = median_mb_s(|| {
        let hash = mb_s(CHUNK, || {
            black_box(sha256(black_box(&data)));
        });
        let hmac = mb_s(CHUNK, || {
            black_box(hmac_sha256(b"gate mac key", black_box(&data)));
        });
        let stream = mb_s(CHUNK, || cipher.apply(black_box(&mut data)));
        let record_stream = mb_s(CHUNK, || record_cipher.apply(black_box(&mut data)));
        let mut record = Vec::new();
        let seal = mb_s(RECORD, || record = sealer.seal(black_box(&plaintext)));
        let open = mb_s(RECORD, || {
            black_box(opener.open(black_box(&record)).expect("genuine record"));
        });
        let streamed = mb_s(2 * MESSAGE, || {
            records.clear();
            let send = |record| {
                records.push(record);
                Ok::<_, RecordError>(())
            };
            sealer
                .seal_message(black_box(&message), send)
                .expect("sent");
            let mut arriving = records.drain(..);
            let next = || arriving.next().ok_or(RecordError::Truncated);
            black_box(opener.open_message(next).expect("genuine message"));
        });
        let pairs = mb_s(2 * MESSAGE, || {
            paired(&mac, black_box(&pieces), &mut sealed, &mut opened);
        });
        [
            hash,
            hmac,
            stream,
            record_stream,
            seal,
            open,
            streamed,
            pairs,
        ]
    });

    // `(keystream, seal, open, 128 KiB per side, pairs)` floors per path.
    let (path, [keystream_floor, seal_floor, open_floor, streamed_floor, pairs_floor]) = if aes_ni()
    {
        ("AES-NI kernel", [2.9, 0.57, 0.58, 0.65, 0.70])
    } else {
        ("scalar AES", [0.64, 0.35, 0.35, 0.35, 0.35])
    };
    let record_path = if two_lanes() {
        "two-lane kernel"
    } else {
        "one lane at a time"
    };
    println!(
        "sha256: {hash:.1} MB/s (median of {ROUNDS} rounds); keystream path: {path}; \
         record path: {record_path}"
    );
    for (name, mb_s, floor) in [
        ("hmac_sha256", hmac, 0.85),
        ("StreamCipher::apply, 15-byte key", stream, keystream_floor),
        (
            "StreamCipher::apply, 40-byte key",
            record_stream,
            keystream_floor,
        ),
        ("RecordLayer::seal", seal, seal_floor),
        ("RecordLayer::open", open, open_floor),
        (
            "RecordLayer::seal_message+open_message, 128 KiB",
            streamed,
            streamed_floor,
        ),
        ("etm::seal+open in pairs, 128 KiB", pairs, pairs_floor),
    ] {
        let ratio = mb_s / hash;
        println!("{name}: {mb_s:.1} MB/s, {ratio:.2}x of sha256 (floor {floor}x)");
        assert!(
            ratio >= floor,
            "{name} runs at {mb_s:.1} MB/s, {ratio:.2}x of sha256's {hash:.1} MB/s \
             (median of {ROUNDS} rounds); the floor is {floor}x"
        );
    }
}
