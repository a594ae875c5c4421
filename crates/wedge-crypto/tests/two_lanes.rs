//! Release gate for `etm::apply`'s reason to run records in pairs: two MAC
//! chains in lockstep against the same two chains one after the other
//! (`cargo test --release -p wedge-crypto --test two_lanes -- --nocapture`
//! prints the reading). It has a test binary of its own so that no other
//! test shares the SHA unit while it times.

#![cfg(all(not(debug_assertions), target_arch = "x86_64"))]

use std::cell::RefCell;
use std::hint::black_box;
use std::time::Instant;

use wedge_crypto::etm::{self, Lane};
use wedge_crypto::{HmacSha256, StreamCipher};

/// A lane that only MACs: no text, the whole record but its tag the prefix.
fn lane(record: &mut [u8]) -> Lane<'_> {
    Lane {
        cipher: StreamCipher::new(b"gate key"),
        prefix: record.len() - 32,
        record,
    }
}

/// Two 16 KiB records, MAC only (opened lanes with no text, so the whole
/// record but its tag is the MAC's prefix): at least 1.2x the one-lane rate,
/// as the median of 21 interleaved rounds, where the CPU has the SHA
/// extensions and AES-NI.
#[test]
fn two_lanes_run_at_least_1_2x_one_chain() {
    if !(is_x86_feature_detected!("sha")
        && is_x86_feature_detected!("aes")
        && is_x86_feature_detected!("sse4.1"))
    {
        eprintln!("skipped: this CPU lacks the SHA extensions, AES-NI or SSE4.1");
        return;
    }
    let records = RefCell::new([vec![0x5Au8; 16_384 + 40], vec![0xA5u8; 16_384 + 40]]);
    let mac = HmacSha256::new(b"gate mac key");
    let time = |work: &dyn Fn()| {
        let start = Instant::now();
        work();
        start.elapsed().as_secs_f64()
    };
    let pair = || {
        let [a, b] = &mut *records.borrow_mut();
        black_box(etm::open(&mac, [lane(a), lane(b)]));
    };
    let one_by_one = || {
        for record in records.borrow_mut().iter_mut() {
            black_box(etm::open(&mac, [lane(record)]));
        }
    };
    time(&pair);
    time(&one_by_one);
    let mut speedups: Vec<f64> = (0..21).map(|_| time(&one_by_one) / time(&pair)).collect();
    speedups.sort_by(f64::total_cmp);
    let median = speedups[speedups.len() / 2];
    println!("two MAC chains in lockstep: {median:.2}x one chain (median of 21 rounds)");
    assert!(median >= 1.2, "two lanes are only {median:.2}x one chain");
}
