//! Release gate for the bulk TLS path: the keystream cipher, the HMAC and the
//! record layer must run at the fraction of raw SHA-256 throughput their
//! construction implies (`cargo test --release -p wedge-bench -q bulk_path`).
//!
//! Every bound is a ratio against `sha256` measured in the same run, so the
//! gate reads the same on a slow or loaded runner. Per 64 payload bytes
//! `sha256` and `hmac_sha256` run one compression, `StreamCipher::apply`
//! two (ceiling 0.50) and `RecordLayer::seal`/`open` three (ceiling 0.33).

#![cfg(not(debug_assertions))]

use std::hint::black_box;
use std::time::Instant;

use wedge_crypto::{hmac_sha256, sha256, StreamCipher};
use wedge_tls::RecordLayer;

const ROUNDS: usize = 21;
const CHUNK: usize = 64 * 1024;
const RECORD: usize = 16 * 1024;

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

#[test]
fn bulk_path_runs_at_hash_speed() {
    let mut data = vec![0xA5u8; CHUNK];
    let plaintext = vec![0x3Cu8; RECORD];
    let mut cipher = StreamCipher::new(b"gate stream key");
    let mut sealer = RecordLayer::new(b"gate write key", b"gate mac key");
    let mut opener = RecordLayer::new(b"gate write key", b"gate mac key");

    let [hash, hmac, stream, seal, open] = median_mb_s(|| {
        let hash = mb_s(CHUNK, || {
            black_box(sha256(black_box(&data)));
        });
        let hmac = mb_s(CHUNK, || {
            black_box(hmac_sha256(b"gate mac key", black_box(&data)));
        });
        let stream = mb_s(CHUNK, || cipher.apply(black_box(&mut data)));
        let mut record = Vec::new();
        let seal = mb_s(RECORD, || record = sealer.seal(black_box(&plaintext)));
        let open = mb_s(RECORD, || {
            black_box(opener.open(black_box(&record)).expect("genuine record"));
        });
        [hash, hmac, stream, seal, open]
    });

    for (name, mb_s, floor) in [
        ("hmac_sha256", hmac, 0.85),
        ("StreamCipher::apply", stream, 0.35),
        ("RecordLayer::seal", seal, 0.22),
        ("RecordLayer::open", open, 0.22),
    ] {
        let ratio = mb_s / hash;
        assert!(
            ratio >= floor,
            "{name} runs at {mb_s:.1} MB/s, {ratio:.2}x of sha256's {hash:.1} MB/s \
             (median of {ROUNDS} rounds); the floor is {floor}x"
        );
    }
}
