//! Deterministic randomness for replayable chaos: a seeded splitmix64
//! stream and a Zipf sampler.
//!
//! The vendored `rand` shim only exposes an OS-entropy `thread_rng()`,
//! which is exactly what a chaos schedule must **not** use: the whole
//! contract of [`crate::ChaosSchedule`] is that one seed replays one
//! fault sequence bit-for-bit. [`ChaosRng`] is the self-contained seeded
//! generator every piece of wedge-chaos (and `wedge-e2e`'s load
//! generator) draws from instead.

/// A seeded splitmix64 generator: tiny state, full 64-bit period over the
/// counter, and — the property everything here leans on — **identical
/// output for identical seeds**, forever, on every platform.
#[derive(Debug, Clone)]
pub struct ChaosRng {
    state: u64,
}

impl ChaosRng {
    /// A generator whose entire future output is determined by `seed`.
    pub fn new(seed: u64) -> ChaosRng {
        ChaosRng { state: seed }
    }

    /// The next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw in `[0, 1)` (53 bits of mantissa).
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform index in `[0, bound)`; 0 when `bound` is 0.
    pub fn pick(&mut self, bound: usize) -> usize {
        if bound == 0 {
            return 0;
        }
        // Multiply-shift keeps the draw unbiased enough for scheduling
        // (bound ≪ 2^32 everywhere chaos uses it).
        ((u128::from(self.next_u64()) * bound as u128) >> 64) as usize
    }

    /// A uniform draw in `[lo, hi)` milliseconds-style ranges; `lo` when
    /// the range is empty.
    pub(crate) fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        if hi <= lo {
            return lo;
        }
        lo + ((u128::from(self.next_u64()) * u128::from(hi - lo)) >> 64) as u64
    }

    /// Fork a child stream: deterministic in (parent seed, label), and
    /// decorrelated from the parent's own draws — `wedge-e2e` gives
    /// each client its own labelled stream so the arrival schedule and
    /// the per-connection draws never contend on one state.
    pub fn fork(&self, label: u64) -> ChaosRng {
        let mut child = ChaosRng::new(self.state ^ label.wrapping_mul(0xA24B_AED4_963E_E407));
        child.next_u64();
        ChaosRng {
            state: child.next_u64(),
        }
    }
}

/// A Zipf(`exponent`) sampler over ranks `0..n`: rank 0 is the hottest.
///
/// This is the session-reuse distribution of `wedge-e2e`'s workloads — a few
/// hot client hosts reconnect constantly (exercising TLS resumption and
/// the cachenet ring on every reconnect) while a long tail of hosts is
/// seen once or twice (full handshakes, cache inserts). Sampling is a
/// binary search over the precomputed CDF: O(log n) per draw, exact.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// A sampler over `n` ranks (clamped to ≥ 1) with skew `exponent`
    /// (1.0 is the classic Zipf; 0.0 degenerates to uniform).
    pub fn new(n: usize, exponent: f64) -> Zipf {
        let n = n.max(1);
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for rank in 0..n {
            total += 1.0 / ((rank + 1) as f64).powf(exponent);
            cdf.push(total);
        }
        for weight in &mut cdf {
            *weight /= total;
        }
        Zipf { cdf }
    }

    /// Draw one rank in `[0, n)` using `rng`.
    pub fn sample(&self, rng: &mut ChaosRng) -> usize {
        let u = rng.next_f64();
        self.cdf
            .partition_point(|&cum| cum < u)
            .min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = ChaosRng::new(42);
        let mut b = ChaosRng::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge_and_forks_decorrelate() {
        let mut a = ChaosRng::new(1);
        let mut b = ChaosRng::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
        let parent = ChaosRng::new(7);
        let mut f1 = parent.fork(0);
        let mut f2 = parent.fork(1);
        let mut f1b = parent.fork(0);
        assert_eq!(f1.next_u64(), f1b.next_u64(), "forks are deterministic");
        assert_ne!(f1.next_u64(), f2.next_u64());
    }

    #[test]
    fn pick_and_range_stay_in_bounds() {
        let mut rng = ChaosRng::new(99);
        for _ in 0..10_000 {
            assert!(rng.pick(7) < 7);
            let v = rng.range_u64(10, 20);
            assert!((10..20).contains(&v));
        }
        assert_eq!(rng.pick(0), 0);
        assert_eq!(rng.range_u64(5, 5), 5);
    }

    #[test]
    fn zipf_is_skewed_toward_low_ranks() {
        let zipf = Zipf::new(1000, 1.0);
        let mut rng = ChaosRng::new(4242);
        let mut counts = vec![0u32; 1000];
        for _ in 0..20_000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        let head: u32 = counts[..10].iter().sum();
        let tail: u32 = counts[500..].iter().sum();
        assert!(
            head > tail,
            "the 10 hottest ranks must out-draw the coldest 500: {head} vs {tail}"
        );
        assert!(counts[0] > counts[100], "rank 0 is the hottest");
    }

    #[test]
    fn zipf_zero_exponent_is_roughly_uniform() {
        let zipf = Zipf::new(4, 0.0);
        let mut rng = ChaosRng::new(1);
        let mut counts = vec![0u32; 4];
        for _ in 0..40_000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        for &c in &counts {
            assert!((8_000..12_000).contains(&c), "uniform-ish: {counts:?}");
        }
    }
}
