//! SHA-256 on the x86 SHA extensions: the crate's one `unsafe` module. It
//! holds two kernels, each a safe `#[target_feature]` fn reading no raw
//! pointer: one hash chain, and the counter-mode keystream, whose blocks run
//! as lanes in lockstep. Running either is `unsafe` only because the CPU must
//! have the features, so the one call sits right after their detection.

use std::arch::x86_64::*;
use std::array::from_fn;

use super::K;

/// What a kernel computes.
pub(crate) enum Job<'a> {
    /// Runs `blocks` through `state`, one after another.
    Chain {
        state: &'a mut [u32; 8],
        blocks: &'a [[u8; 64]],
    },
    /// XORs `data` with the keystream from block `counter` on, and puts the
    /// keystream of the block `data` ends in into `last`. Block `c` is the
    /// digest of compressing `tail` (big-endian message words, one or two
    /// blocks) from `keyed`, with `le64(c)` in the zeroed bytes
    /// `counter_at..counter_at + 8`.
    Keystream {
        keyed: [u32; 8],
        tail: &'a [[u32; 16]],
        counter_at: usize,
        counter: u64,
        data: &'a mut [u8],
        last: &'a mut [u8; 32],
    },
}

/// Runs `job` when this CPU has the SHA extensions and SSE4.1 (std caches
/// the check); `false`, with nothing done, when it lacks them.
pub(crate) fn run(job: Job) -> bool {
    if !(is_x86_feature_detected!("sha") && is_x86_feature_detected!("sse4.1")) {
        return false;
    }
    // SAFETY: both features `kernels` enables were just detected.
    unsafe { kernels(job) };
    true
}

#[target_feature(enable = "sha,sse4.1")]
fn kernels(job: Job) {
    match job {
        Job::Chain { state, blocks } => *state = chain(*state, blocks),
        Job::Keystream {
            keyed,
            tail,
            counter_at,
            counter,
            data,
            last,
        } => *last = keystream(keyed, tail, counter_at, counter, data),
    }
}

#[target_feature(enable = "sha,sse4.1")]
fn chain(state: [u32; 8], blocks: &[[u8; 64]]) -> [u32; 8] {
    let (abef, cdgh) = split(state);
    let (mut abef, mut cdgh) = ([abef], [cdgh]);
    for block in blocks {
        let half = |at: usize| i64::from_le_bytes(block[at..at + 8].try_into().expect("8 bytes"));
        let w = from_fn(|j| {
            _mm_shuffle_epi8(_mm_set_epi64x(half(16 * j + 8), half(16 * j)), word_swap())
        });
        compress(&mut abef, &mut cdgh, [w]);
    }
    let words = |v| {
        let [low, high] = [_mm_extract_epi64::<0>(v), _mm_extract_epi64::<1>(v)];
        [low, low >> 32, high, high >> 32].map(|word| word as u32)
    };
    let ([f, e, b, a], [h, g, d, c]) = (words(abef[0]), words(cdgh[0]));
    [a, b, c, d, e, f, g, h]
}

/// The whole run of keystream blocks `data` reaches, two at a time, then a
/// last one alone: exactly the blocks it consumes. Returns the last's bytes.
#[target_feature(enable = "sha,sse4.1")]
fn keystream(
    keyed: [u32; 8],
    tail: &[[u32; 16]],
    counter_at: usize,
    counter: u64,
    data: &mut [u8],
) -> [u8; 32] {
    let keyed = split(keyed);
    // Per tail vector: its template words, and the shuffle that moves the
    // counter's bytes (`le64`, a vector's low half) to where they sit among
    // those big-endian words; the other bytes come out zero.
    let mut template = [[(_mm_setzero_si128(), _mm_setzero_si128()); 4]; 2];
    for (t, (vectors, block)) in template.iter_mut().zip(tail).enumerate() {
        for (v, (vector, words)) in vectors.iter_mut().zip(block.as_chunks::<4>().0).enumerate() {
            let [w0, w1, w2, w3] = words.map(|word| word as i32);
            // Byte `i` of a vector of big-endian words is message byte
            // `i ^ 3` of the vector; `at` is where that is in the counter.
            let at = _mm_add_epi8(
                word_swap(),
                _mm_set1_epi8((16 * (4 * t + v)) as i8 - counter_at as i8),
            );
            let outside = _mm_cmpeq_epi8(_mm_max_epu8(at, _mm_set1_epi8(8)), at);
            // `pshufb` zeroes a byte whose index has its top bit set.
            *vector = (_mm_set_epi32(w3, w2, w1, w0), _mm_or_si128(at, outside));
        }
    }
    let template = &template[..tail.len()];
    // Two lanes, so each one's `sha256rnds2` hides the other's latency;
    // three or four ran no faster on a SHA-extension Xeon, in more registers.
    let mut last = [0; 4];
    for (pair, chunk) in (0..).zip(data.chunks_mut(64)) {
        let counter = counter.wrapping_add(2 * pair);
        if chunk.len() > 32 {
            let blocks = lanes::<2>(keyed, template, counter);
            xor(chunk, blocks.as_flattened());
            last = blocks[1];
        } else {
            [last] = lanes::<1>(keyed, template, counter);
            xor(chunk, &last);
        }
    }
    let mut bytes = [0; 32];
    xor(&mut bytes, &last);
    bytes
}

/// Keystream blocks `counter..counter + N`, one per lane, each as the four
/// little-endian `u64`s of its digest's bytes.
#[inline]
#[target_feature(enable = "sha,sse4.1")]
fn lanes<const N: usize>(
    (abef0, cdgh0): (__m128i, __m128i),
    template: &[[(__m128i, __m128i); 4]],
    counter: u64,
) -> [[u64; 4]; N] {
    // Loops rather than closures: a closure here is not inlined.
    let mut counters = [_mm_setzero_si128(); N];
    for (l, counter_l) in (0..).zip(&mut counters) {
        *counter_l = _mm_cvtsi64_si128(counter.wrapping_add(l) as i64);
    }
    let (mut abef, mut cdgh) = ([abef0; N], [cdgh0; N]);
    for vectors in template {
        let mut w = [[_mm_setzero_si128(); 4]; N];
        for (w, counter) in w.iter_mut().zip(counters) {
            for (w, (words, shuffle)) in w.iter_mut().zip(vectors) {
                *w = _mm_or_si128(*words, _mm_shuffle_epi8(counter, *shuffle));
            }
        }
        compress(&mut abef, &mut cdgh, w);
    }
    // `DCBA` and `HGFE` reversed bytewise are the digest's big-endian bytes.
    let reverse = _mm_set_epi64x(0x0001_0203_0405_0607, 0x0809_0a0b_0c0d_0e0f);
    let mut out = [[0; 4]; N];
    for (out, (abef, cdgh)) in out.iter_mut().zip(abef.into_iter().zip(cdgh)) {
        let abcd = _mm_shuffle_epi8(_mm_unpackhi_epi64(cdgh, abef), reverse);
        let efgh = _mm_shuffle_epi8(_mm_unpacklo_epi64(cdgh, abef), reverse);
        *out = [
            _mm_extract_epi64::<0>(abcd),
            _mm_extract_epi64::<1>(abcd),
            _mm_extract_epi64::<0>(efgh),
            _mm_extract_epi64::<1>(efgh),
        ]
        .map(|word| word as u64);
    }
    out
}

/// XORs `data` with `keystream`'s bytes, eight at a time.
fn xor(data: &mut [u8], keystream: &[u64]) {
    let (words, rest) = data.as_chunks_mut::<8>();
    for (bytes, word) in words.iter_mut().zip(keystream) {
        *bytes = (u64::from_le_bytes(*bytes) ^ word).to_le_bytes();
    }
    if let Some(word) = keystream.get(words.len()) {
        for (byte, ks) in rest.iter_mut().zip(word.to_le_bytes()) {
            *byte ^= ks;
        }
    }
}

/// A state as the instructions hold it: `ABEF` and `CDGH`.
#[inline]
#[target_feature(enable = "sha,sse4.1")]
fn split([a, b, c, d, e, f, g, h]: [u32; 8]) -> (__m128i, __m128i) {
    let vector =
        |[w3, w2, w1, w0]: [u32; 4]| _mm_set_epi32(w3 as i32, w2 as i32, w1 as i32, w0 as i32);
    (vector([a, b, e, f]), vector([c, d, g, h]))
}

/// The shuffle that byte-swaps each 32-bit word.
#[inline]
#[target_feature(enable = "sha,sse4.1")]
fn word_swap() -> __m128i {
    _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203)
}

/// One compression per lane from its first four schedule vectors, all lanes
/// in lockstep.
#[inline]
#[target_feature(enable = "sha,sse4.1")]
fn compress<const N: usize>(
    abef: &mut [__m128i; N],
    cdgh: &mut [__m128i; N],
    mut w: [[__m128i; 4]; N],
) {
    let (abef0, cdgh0) = (*abef, *cdgh);
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
    use crate::sha256::{rounds, words};

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

    fn hardware(mut state: [u32; 8], blocks: &[[u8; 64]]) -> [u32; 8] {
        assert!(run(Job::Chain {
            state: &mut state,
            blocks
        }));
        state
    }

    fn scalar(mut state: [u32; 8], blocks: &[[u8; 64]]) -> [u32; 8] {
        blocks
            .iter()
            .for_each(|block| rounds(&mut state, words(block)));
        state
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10_000))]

        /// One block and two in a row, each against the scalar rounds. The
        /// keystream lanes are checked against them in `stream`'s tests.
        fn hardware_matches_scalar(state in any::<[u32; 8]>(), first in block(), second in block()) {
            prop_assert_eq!(hardware(state, &[first]), scalar(state, &[first]));
            let both = [first, second];
            prop_assert_eq!(hardware(state, &both), scalar(state, &both));
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
        let hardware = || hardware(black_box(H0), black_box(&blocks));
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
