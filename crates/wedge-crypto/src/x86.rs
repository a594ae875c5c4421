//! The crate's one `unsafe` module: its kernels on the x86 SHA extensions
//! and AES-NI, each a safe `#[target_feature]` fn reading no raw pointer.
//! The hash kernel runs the SHA-256 chain every `Sha256` runs, and two
//! independent chains in lockstep, the MACs of a pair of records in
//! `etm`: a compression waits on the one before it, so one chain leaves
//! the SHA unit idle between rounds and a second chain's rounds,
//! interleaved quad by quad, fill that latency (1.3x one chain's
//! throughput on a 2-vCPU Xeon with the SHA extensions). The AES kernel runs AES-256's key expansion and its counter
//! mode, the keystream of `StreamCipher`. Running a kernel is `unsafe`
//! only because the CPU must have its features, so the one call sits right
//! after their detection.

use std::arch::x86_64::*;
use std::array::from_fn;

use crate::aes::{xor, RoundKeys, BLOCK};
use crate::sha256::K;

/// What a kernel computes.
pub(crate) enum Job<'a> {
    /// Runs `blocks` through `state`, one after another.
    Chain {
        state: &'a mut [u32; 8],
        blocks: &'a [[u8; 64]],
    },
    /// Puts AES-256's round keys for `key` into `keys`.
    Expand {
        key: &'a [u8; 32],
        keys: &'a mut RoundKeys,
    },
    /// XORs `data` with AES-256-CTR's keystream under `keys` from counter
    /// block `counter` on, and puts the keystream of the block `data` ends
    /// in into `last`.
    Ctr {
        keys: &'a RoundKeys,
        counter: u128,
        data: &'a mut [u8],
        last: &'a mut [u8; BLOCK],
    },
    /// Runs each chain's blocks through its state: the two in lockstep
    /// while both have blocks, then the longer one's rest alone.
    Pair {
        states: &'a mut [[u32; 8]; 2],
        blocks: [&'a [[u8; 64]]; 2],
    },
}

/// Runs `job` when this CPU has the features its kernel enables (std caches
/// the check); `false`, with nothing done, when it lacks them.
pub(crate) fn run(job: Job) -> bool {
    let (detected, kernel): (bool, unsafe fn(Job)) = match job {
        Job::Chain { .. } | Job::Pair { .. } => (is_x86_feature_detected!("sha"), hash_kernel),
        Job::Expand { .. } | Job::Ctr { .. } => (is_x86_feature_detected!("aes"), aes_kernel),
    };
    if !(detected && is_x86_feature_detected!("sse4.1")) {
        return false;
    }
    // SAFETY: `kernel` enables SSE4.1 and the one extension its job needs,
    // both just detected.
    unsafe { kernel(job) };
    true
}

#[target_feature(enable = "sha,sse4.1")]
fn hash_kernel(job: Job) {
    match job {
        Job::Chain { state, blocks } => *state = chain(*state, blocks),
        Job::Pair { states, blocks } => *states = pair(*states, blocks),
        _ => unreachable!("`run` sends only hash chains to `hash_kernel`"),
    }
}

#[target_feature(enable = "aes,sse4.1")]
fn aes_kernel(job: Job) {
    match job {
        Job::Expand { key, keys } => *keys = expand(key).map(|key| bytes(key)),
        Job::Ctr {
            keys,
            counter,
            data,
            last,
        } => *last = ctr(keys, counter, data),
        _ => unreachable!("`run` sends only AES jobs to `aes_kernel`"),
    }
}

/// Runs each chain's blocks through its state: the two in lockstep while
/// both have blocks, their rounds interleaved quad by quad so the second
/// chain fills the latency the first leaves the SHA unit; then the longer
/// one's rest alone.
#[target_feature(enable = "sha,sse4.1")]
fn pair(states: [[u32; 8]; 2], blocks: [&[[u8; 64]]; 2]) -> [[u32; 8]; 2] {
    let common = blocks[0].len().min(blocks[1].len());
    let [mut a, mut b] = states.map(|state| split(state));
    for (block_a, block_b) in blocks[0].iter().zip(blocks[1]) {
        // Fresh locals each block, so the chains stay in registers.
        let mut registers = [a, b];
        let mut w = [schedule(block_a), schedule(block_b)];
        // Unrolled, so each quad's round constants are constants.
        macro_rules! quads {
            ($($quad:literal)*) => {$(
                for ((abef, cdgh), w) in registers.iter_mut().zip(&mut w) {
                    quad(abef, cdgh, w, $quad);
                }
            )*};
        }
        quads!(0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15);
        let add =
            |(abef, cdgh), (abef0, cdgh0)| (_mm_add_epi32(abef, abef0), _mm_add_epi32(cdgh, cdgh0));
        [a, b] = [add(registers[0], a), add(registers[1], b)];
    }
    [(a, blocks[0]), (b, blocks[1])]
        .map(|(registers, blocks)| chain(join(registers), &blocks[common..]))
}

/// Runs `blocks` through `state`, one after another.
#[target_feature(enable = "sha,sse4.1")]
fn chain(state: [u32; 8], blocks: &[[u8; 64]]) -> [u32; 8] {
    let (mut abef, mut cdgh) = split(state);
    for block in blocks {
        let mut w = schedule(block);
        let (abef0, cdgh0) = (abef, cdgh);
        macro_rules! quads {
            ($($quad:literal)*) => {$( quad(&mut abef, &mut cdgh, &mut w, $quad); )*};
        }
        quads!(0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15);
        abef = _mm_add_epi32(abef, abef0);
        cdgh = _mm_add_epi32(cdgh, cdgh0);
    }
    join((abef, cdgh))
}

/// A block's first four schedule vectors: its message words, byte-swapped.
#[inline]
#[target_feature(enable = "sha,sse4.1")]
fn schedule(block: &[u8; 64]) -> [__m128i; 4] {
    let half = |at: usize| i64::from_le_bytes(block[at..at + 8].try_into().expect("8 bytes"));
    from_fn(|j| _mm_shuffle_epi8(_mm_set_epi64x(half(16 * j + 8), half(16 * j)), word_swap()))
}

/// FIPS-197 §5.2 for AES-256 on `aeskeygenassist`: round key `i` from the
/// two before it, seven steps of two with the last one's second cut.
#[target_feature(enable = "aes,sse4.1")]
fn expand(key: &[u8; 32]) -> [__m128i; 15] {
    let halves = key.as_chunks::<BLOCK>().0;
    let mut keys = [vector(halves[0]); 15];
    keys[1] = vector(halves[1]);
    step::<0x01>(&mut keys, 2);
    step::<0x02>(&mut keys, 4);
    step::<0x04>(&mut keys, 6);
    step::<0x08>(&mut keys, 8);
    step::<0x10>(&mut keys, 10);
    step::<0x20>(&mut keys, 12);
    step::<0x40>(&mut keys, 14);
    keys
}

/// Round keys `i` (`RotWord∘SubWord` of key `i - 1`'s last word, XOR
/// `RCON`) and `i + 1` (`SubWord` of key `i`'s last word), each XORed into
/// the running prefix of the key two before it.
#[inline]
#[target_feature(enable = "aes,sse4.1")]
fn step<const RCON: i32>(keys: &mut [__m128i; 15], i: usize) {
    let prefix = |key: __m128i| {
        let key = _mm_xor_si128(key, _mm_slli_si128::<4>(key));
        _mm_xor_si128(key, _mm_slli_si128::<8>(key))
    };
    let word = _mm_shuffle_epi32::<0xff>(_mm_aeskeygenassist_si128::<RCON>(keys[i - 1]));
    keys[i] = _mm_xor_si128(prefix(keys[i - 2]), word);
    if i + 1 < keys.len() {
        let word = _mm_shuffle_epi32::<0xaa>(_mm_aeskeygenassist_si128::<0>(keys[i]));
        keys[i + 1] = _mm_xor_si128(prefix(keys[i - 1]), word);
    }
}

/// Every counter block `data` reaches, four in flight per 64 bytes (a
/// last group that `data` does not fill still runs four). Returns the last
/// block's bytes.
#[target_feature(enable = "aes,sse4.1")]
fn ctr(keys: &RoundKeys, counter: u128, data: &mut [u8]) -> [u8; BLOCK] {
    let keys = keys.map(|key| vector(key));
    let (groups, tail) = data.as_chunks_mut::<{ 4 * BLOCK }>();
    let whole = groups.len() as u128;
    let mut last = _mm_setzero_si128();
    for (g, group) in (0..).zip(groups) {
        let keystream = four(&keys, counter.wrapping_add(4 * g));
        for (piece, ks) in group.as_chunks_mut::<BLOCK>().0.iter_mut().zip(keystream) {
            *piece = bytes(_mm_xor_si128(vector(*piece), ks));
        }
        last = keystream[3];
    }
    if !tail.is_empty() {
        let first = counter.wrapping_add(4 * whole);
        for (piece, ks) in tail.chunks_mut(BLOCK).zip(four(&keys, first)) {
            xor(piece, &bytes(ks));
            last = ks;
        }
    }
    bytes(last)
}

/// The keystream of counter blocks `first..first + 4`, in lockstep.
#[inline]
#[target_feature(enable = "aes,sse4.1")]
fn four(keys: &[__m128i; 15], first: u128) -> [__m128i; 4] {
    let mut blocks = [_mm_setzero_si128(); 4];
    for (j, block) in (0..).zip(&mut blocks) {
        *block = _mm_xor_si128(vector(first.wrapping_add(j).to_be_bytes()), keys[0]);
    }
    for key in &keys[1..14] {
        for block in &mut blocks {
            *block = _mm_aesenc_si128(*block, *key);
        }
    }
    for block in &mut blocks {
        *block = _mm_aesenclast_si128(*block, keys[14]);
    }
    blocks
}

/// Sixteen bytes as a vector, byte `i` in lane byte `i`.
#[inline]
#[target_feature(enable = "sse4.1")]
fn vector(bytes: [u8; BLOCK]) -> __m128i {
    let value = u128::from_le_bytes(bytes);
    _mm_set_epi64x((value >> 64) as i64, value as i64)
}

/// The inverse of [`vector`].
#[inline]
#[target_feature(enable = "sse4.1")]
fn bytes(vector: __m128i) -> [u8; BLOCK] {
    let [low, high] = [
        _mm_extract_epi64::<0>(vector),
        _mm_extract_epi64::<1>(vector),
    ];
    (u128::from(high as u64) << 64 | u128::from(low as u64)).to_le_bytes()
}

/// A state as the instructions hold it: `ABEF` and `CDGH`.
#[inline]
#[target_feature(enable = "sha,sse4.1")]
fn split([a, b, c, d, e, f, g, h]: [u32; 8]) -> (__m128i, __m128i) {
    let vector =
        |[w3, w2, w1, w0]: [u32; 4]| _mm_set_epi32(w3 as i32, w2 as i32, w1 as i32, w0 as i32);
    (vector([a, b, e, f]), vector([c, d, g, h]))
}

/// The inverse of [`split`].
#[inline]
#[target_feature(enable = "sha,sse4.1")]
fn join((abef, cdgh): (__m128i, __m128i)) -> [u32; 8] {
    let words = |v| {
        let [low, high] = [_mm_extract_epi64::<0>(v), _mm_extract_epi64::<1>(v)];
        [low, low >> 32, high, high >> 32].map(|word| word as u32)
    };
    let ([f, e, b, a], [h, g, d, c]) = (words(abef), words(cdgh));
    [a, b, c, d, e, f, g, h]
}

/// The shuffle that byte-swaps each 32-bit word.
#[inline]
#[target_feature(enable = "sha,sse4.1")]
fn word_swap() -> __m128i {
    _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203)
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
    use crate::aes::schedule;
    use crate::aes::tests::{
        from_hex, C3_CIPHERTEXT, C3_KEY, C3_PLAINTEXT, F55_CIPHERTEXT, F55_COUNTER, F55_KEY,
        F55_PLAINTEXT,
    };
    use crate::sha256::{rounds, to_hex, words};

    fn detected() -> bool {
        let detected = is_x86_feature_detected!("sha") && is_x86_feature_detected!("sse4.1");
        if !detected {
            eprintln!("skipped: this CPU lacks the SHA extensions or SSE4.1");
        }
        detected
    }

    fn aes_detected() -> bool {
        let detected = is_x86_feature_detected!("aes") && is_x86_feature_detected!("sse4.1");
        if !detected {
            eprintln!("skipped: this CPU lacks AES-NI or SSE4.1");
        }
        detected
    }

    fn aes_ni_keys(key: &[u8; 32]) -> RoundKeys {
        let mut keys = [[0; BLOCK]; 15];
        assert!(run(Job::Expand {
            key,
            keys: &mut keys
        }));
        keys
    }

    fn aes_ni_ctr(keys: &RoundKeys, counter: u128, data: &mut [u8]) -> [u8; BLOCK] {
        let mut last = [0; BLOCK];
        assert!(run(Job::Ctr {
            keys,
            counter,
            data,
            last: &mut last
        }));
        last
    }

    /// The kernel's key expansion and block against FIPS-197 C.3: the
    /// counter block is C.3's plaintext, so the keystream is its ciphertext.
    #[test]
    fn aes_ni_matches_fips_197_c3() {
        if !aes_detected() {
            return;
        }
        let keys = aes_ni_keys(&C3_KEY);
        assert_eq!(keys, schedule(&C3_KEY));
        let mut block = [0; BLOCK];
        let last = aes_ni_ctr(&keys, C3_PLAINTEXT, &mut block);
        assert_eq!(to_hex(&block), C3_CIPHERTEXT);
        assert_eq!(last, block);
    }

    /// SP 800-38A F.5.5 through the kernel: four blocks, one group, with
    /// counters that carry out of their low byte; then the same bytes cut
    /// into a block, a stray byte and the rest.
    #[test]
    fn aes_ni_ctr_matches_sp_800_38a_f55() {
        if !aes_detected() {
            return;
        }
        let key: [u8; 32] = from_hex(F55_KEY).try_into().expect("32 bytes");
        let keys = aes_ni_keys(&key);
        let mut data = from_hex(F55_PLAINTEXT);
        aes_ni_ctr(&keys, F55_COUNTER, &mut data);
        assert_eq!(to_hex(&data), F55_CIPHERTEXT);
        let mut data = from_hex(F55_PLAINTEXT);
        let (head, rest) = data.split_at_mut(BLOCK);
        aes_ni_ctr(&keys, F55_COUNTER, head);
        aes_ni_ctr(&keys, F55_COUNTER + 1, rest);
        assert_eq!(to_hex(&data), F55_CIPHERTEXT);
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

        /// One block and two in a row, each against the scalar rounds.
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
