//! SHA-256 on the x86 SHA extensions, lanes interleaved round by round: the
//! crate's one `unsafe` module. The kernel is a safe `#[target_feature]` fn
//! reading no raw pointer; calling it is `unsafe` only because the CPU must
//! have the features, so the one call sits right after their detection.

use std::arch::x86_64::*;

use super::K;

/// [`run_lanes`] when this CPU has the SHA extensions and SSE4.1 (std caches
/// the check), else `None`.
pub(super) fn compress_lanes<const N: usize>(
    states: [[u32; 8]; N],
    lanes: [&[[u8; 64]]; N],
) -> Option<[[u32; 8]; N]> {
    if !(is_x86_feature_detected!("sha") && is_x86_feature_detected!("sse4.1")) {
        return None;
    }
    // SAFETY: both features `run_lanes` enables were just detected.
    Some(unsafe { run_lanes(states, lanes) })
}

/// Runs lane `l`'s blocks through `states[l]`, all lanes in lockstep so each
/// lane's `sha256rnds2` hides the others' latency; the lanes hold the same
/// number of blocks.
#[target_feature(enable = "sha,sse4.1")]
fn run_lanes<const N: usize>(states: [[u32; 8]; N], blocks: [&[[u8; 64]]; N]) -> [[u32; 8]; N] {
    debug_assert!(blocks.iter().all(|lane| lane.len() == blocks[0].len()));
    let vector =
        |[w0, w1, w2, w3]: [u32; 4]| _mm_set_epi32(w3 as i32, w2 as i32, w1 as i32, w0 as i32);
    // Each lane's state as the instructions hold it: `ABEF` and `CDGH`.
    let mut abef = states.map(|[a, b, _, _, e, f, _, _]| vector([f, e, b, a]));
    let mut cdgh = states.map(|[_, _, c, d, _, _, g, h]| vector([h, g, d, c]));
    for block in 0..blocks[0].len() {
        let (abef0, cdgh0) = (abef, cdgh);
        // Each lane's next four schedule vectors, oldest first.
        let mut w = [[_mm_setzero_si128(); 4]; N];
        for (w, lane) in w.iter_mut().zip(blocks) {
            let bytes = lane[block].as_chunks::<4>().0;
            for (j, v) in w.iter_mut().enumerate() {
                *v = vector([0, 1, 2, 3].map(|i| u32::from_be_bytes(bytes[4 * j + i])));
            }
        }
        // Unrolled, so every lane's registers stay registers.
        macro_rules! quads {
            ($($quad:literal)*) => {$(
                for l in 0..N {
                    quad(&mut abef[l], &mut cdgh[l], &mut w[l], $quad);
                }
            )*};
        }
        quads!(0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15);
        for l in 0..N {
            abef[l] = _mm_add_epi32(abef[l], abef0[l]);
            cdgh[l] = _mm_add_epi32(cdgh[l], cdgh0[l]);
        }
    }
    let words = |v| {
        let [low, high] = [_mm_extract_epi64::<0>(v), _mm_extract_epi64::<1>(v)];
        [low, low >> 32, high, high >> 32].map(|word| word as u32)
    };
    let mut out = [[0; 8]; N];
    for l in 0..N {
        let ([f, e, b, a], [h, g, d, c]) = (words(abef[l]), words(cdgh[l]));
        out[l] = [a, b, c, d, e, f, g, h];
    }
    out
}

/// Rounds `4 * quad .. 4 * quad + 4` from `w[0]`, two per `sha256rnds2`
/// (the registers trade the `ABEF` and `CDGH` roles after each), then the
/// schedule moves on by four words.
#[inline]
#[target_feature(enable = "sha,sse4.1")]
fn quad(abef: &mut __m128i, cdgh: &mut __m128i, w: &mut [__m128i; 4], quad: usize) {
    let [w0, w1, w2, w3] = *w;
    let [k0, k1, k2, k3] = K.as_chunks::<4>().0[quad].map(|k| k as i32);
    let wk = _mm_add_epi32(w0, _mm_set_epi32(k3, k2, k1, k0));
    *cdgh = _mm_sha256rnds2_epu32(*cdgh, *abef, wk);
    *abef = _mm_sha256rnds2_epu32(*abef, *cdgh, _mm_shuffle_epi32::<0x0E>(wk));
    // The last four quads only consume what is scheduled.
    let next = if quad < 12 {
        let sigma0 = _mm_sha256msg1_epu32(w0, w1);
        _mm_sha256msg2_epu32(_mm_add_epi32(sigma0, _mm_alignr_epi8::<4>(w3, w2)), w3)
    } else {
        w0
    };
    *w = [w1, w2, w3, next];
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;
    use crate::sha256::compress;

    fn detected() -> bool {
        let detected = is_x86_feature_detected!("sha") && is_x86_feature_detected!("sse4.1");
        if !detected {
            eprintln!("skipped: this CPU lacks the SHA extensions or SSE4.1");
        }
        detected
    }

    fn block() -> impl Strategy<Value = [u8; 64]> {
        prop_oneof![Just([0u8; 64]), Just([0xffu8; 64]), any::<[u8; 64]>()]
    }

    fn scalar(mut state: [u32; 8], blocks: &[[u8; 64]]) -> [u32; 8] {
        blocks.iter().for_each(|block| compress(&mut state, block));
        state
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10_000))]

        /// One block, two in a row, and two lanes, each against the scalar
        /// rounds.
        fn hardware_matches_scalar(state in any::<[u32; 8]>(), first in block(), second in block()) {
            let one = compress_lanes([state], [&[first]]).expect("detected");
            prop_assert_eq!(one, [scalar(state, &[first])]);
            let both = [first, second];
            let two = compress_lanes([state], [&both]).expect("detected");
            prop_assert_eq!(two, [scalar(state, &both)]);
            let pair = compress_lanes([state; 2], [&[first], &[second]]).expect("detected");
            prop_assert_eq!(pair, [one[0], scalar(state, &[second])]);
        }
    }

    #[test]
    fn hardware_compression_matches_the_scalar_reference() {
        if detected() {
            hardware_matches_scalar();
        }
    }

    /// The kernel's reason to exist, pinned in-run: at least 3x the scalar
    /// rounds, as the median of 21 interleaved rounds of 1,024 blocks each.
    #[cfg(not(debug_assertions))]
    #[test]
    fn hardware_compression_is_at_least_3x_scalar() {
        use std::hint::black_box;
        use std::time::Instant;

        use crate::sha256::H0;

        if !detected() {
            return;
        }
        let blocks: Vec<[u8; 64]> = (0..1024).map(|i| [i as u8; 64]).collect();
        let time = |run: &dyn Fn() -> [u32; 8]| {
            let start = Instant::now();
            black_box(run());
            start.elapsed().as_secs_f64()
        };
        let hardware =
            || compress_lanes([black_box(H0)], [black_box(&blocks)]).expect("detected")[0];
        let reference = || scalar(black_box(H0), black_box(&blocks));
        time(&hardware);
        time(&reference);
        let mut speedups: Vec<f64> = (0..21)
            .map(|_| time(&reference) / time(&hardware))
            .collect();
        speedups.sort_by(f64::total_cmp);
        let median = speedups[speedups.len() / 2];
        println!("hardware compression: {median:.1}x the scalar rounds (median of 21 rounds)");
        assert!(
            median >= 3.0,
            "hardware compression is only {median:.2}x the scalar rounds"
        );
    }
}
