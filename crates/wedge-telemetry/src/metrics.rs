//! Lock-light metric primitives: counters, gauges and log-bucketed
//! latency histograms.
//!
//! Every handle is a thin `Arc` around relaxed atomics, so hot paths clone
//! them once at instrumentation time and never touch the registry again.
//! Recording into a [`Histogram`] is a handful of relaxed `fetch_add`s —
//! no locks, no allocation — which is what lets the shard serve loop and
//! the cachenet lookup path time every operation without perturbing the
//! fast-path performance gates.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A monotonically increasing counter.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A fresh, unregistered counter (tests; registries hand out shared ones).
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Add one.
    pub fn incr(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A point-in-time gauge (queue depth, resident sessions, epoch, ...).
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// A fresh, unregistered gauge.
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Replace the value.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Raise the value to `v` if it is higher (peak tracking).
    ///
    /// A single `fetch_max`, so concurrent `set_max` calls can never lose
    /// a peak. Mixing `set` and `set_max` on one gauge is *not* coherent
    /// under concurrency — a racing `set` may overwrite a higher peak —
    /// so each gauge should use one style or the other (see the
    /// "Concurrency and ordering" contract in `README.md`).
    pub fn set_max(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Sub-bucket resolution: 2^3 = 8 linear sub-buckets per power-of-two
/// octave, bounding the relative quantisation error at 12.5%.
const SUB_BITS: u32 = 3;
const SUB: u64 = 1 << SUB_BITS;
/// Values 0..8 get exact buckets; octaves 3..=63 get 8 buckets each.
const NUM_BUCKETS: usize = (SUB as usize) + (64 - SUB_BITS as usize) * SUB as usize;

/// A concurrent log-bucketed histogram of nanosecond durations.
///
/// Layout mirrors HDR histograms at low resolution: values below 8 ns land
/// in exact buckets, larger values in one of 8 linear sub-buckets per
/// power-of-two octave. Percentile estimates are therefore always within
/// one bucket (≤ 12.5% relative error) of the exact order statistic, which
/// `tests` assert under concurrent recording.
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistogramInner>);

#[derive(Debug)]
struct HistogramInner {
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    /// A fresh, unregistered histogram.
    pub fn new() -> Histogram {
        let buckets = (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect();
        Histogram(Arc::new(HistogramInner {
            buckets,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }))
    }

    /// The bucket index for a nanosecond value.
    fn bucket_index(nanos: u64) -> usize {
        if nanos < SUB {
            return nanos as usize;
        }
        let msb = 63 - nanos.leading_zeros();
        let sub = (nanos >> (msb - SUB_BITS)) & (SUB - 1);
        (SUB + u64::from(msb - SUB_BITS) * SUB + sub) as usize
    }

    /// The lower bound of bucket `index` (inverse of [`bucket_index`]);
    /// saturates at `u64::MAX` past the last real bucket.
    fn bucket_lower(index: usize) -> u64 {
        if index >= NUM_BUCKETS {
            return u64::MAX;
        }
        let index = index as u64;
        if index < SUB {
            return index;
        }
        let octave = (index - SUB) / SUB + u64::from(SUB_BITS);
        let sub = (index - SUB) % SUB;
        (1 << octave) + sub * (1 << (octave - u64::from(SUB_BITS)))
    }

    /// Record one duration, in nanoseconds. Relaxed atomics only.
    pub fn record(&self, nanos: u64) {
        self.0.buckets[Self::bucket_index(nanos)].fetch_add(1, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(nanos, Ordering::Relaxed);
        self.0.max.fetch_max(nanos, Ordering::Relaxed);
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Point-in-time percentile summary.
    ///
    /// Coherent under concurrent recording: the buckets are frozen into a
    /// local copy with one pass of relaxed loads, `count` is derived from
    /// that frozen copy, and every percentile is computed against it — so
    /// one summary's percentiles are always mutually consistent
    /// (`p50 ≤ p99 ≤ p999 ≤ max`) even while writers are active. The cut
    /// is still not linearizable across *metrics* (relaxed loads only);
    /// see the "Concurrency and ordering" contract in `README.md`.
    pub fn summary(&self) -> HistogramSummary {
        // Freeze first, then read max/sum: `record` bumps the bucket
        // before max, so a max read *after* the freeze covers every
        // sample the frozen buckets contain (percentiles clamp to it).
        let buckets: Vec<u64> = self
            .0
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let count: u64 = buckets.iter().sum();
        let max = self.0.max.load(Ordering::Relaxed);
        let sum = self.0.sum.load(Ordering::Relaxed);
        let mut summary = HistogramSummary {
            count,
            sum_nanos: sum,
            max_nanos: max,
            p50_nanos: 0,
            p99_nanos: 0,
            p999_nanos: 0,
        };
        if count == 0 {
            return summary;
        }
        let percentile = |quantile: f64| {
            let rank = ((quantile * count as f64).ceil() as u64).clamp(1, count);
            let mut seen = 0u64;
            for (index, &bucket) in buckets.iter().enumerate() {
                seen += bucket;
                if seen >= rank {
                    let lower = Self::bucket_lower(index);
                    let width = Self::bucket_lower(index + 1).saturating_sub(lower);
                    return (lower + width / 2).min(max);
                }
            }
            max
        };
        summary.p50_nanos = percentile(0.50);
        summary.p99_nanos = percentile(0.99);
        summary.p999_nanos = percentile(0.999);
        summary
    }
}

/// A rendered percentile summary of a [`Histogram`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HistogramSummary {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all recorded nanoseconds (for mean computation).
    pub sum_nanos: u64,
    /// Largest recorded value, exact.
    pub max_nanos: u64,
    /// Estimated median.
    pub p50_nanos: u64,
    /// Estimated 99th percentile.
    pub p99_nanos: u64,
    /// Estimated 99.9th percentile.
    pub p999_nanos: u64,
}

impl HistogramSummary {
    /// Mean in nanoseconds (0 when empty).
    pub fn mean_nanos(&self) -> u64 {
        self.sum_nanos.checked_div(self.count).unwrap_or(0)
    }
}

/// Render nanoseconds with a human-appropriate unit (`17ns`, `4.2µs`,
/// `13.8ms`, `2.41s`).
pub(crate) fn format_nanos(nanos: u64) -> String {
    match nanos {
        0..=999 => format!("{nanos}ns"),
        1_000..=999_999 => format!("{:.1}µs", nanos as f64 / 1e3),
        1_000_000..=999_999_999 => format!("{:.1}ms", nanos as f64 / 1e6),
        _ => format!("{:.2}s", nanos as f64 / 1e9),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_round_trips_preserve_order() {
        let mut last = 0;
        for value in [0u64, 1, 7, 8, 9, 63, 64, 100, 1_000, 1_000_000, u64::MAX] {
            let index = Histogram::bucket_index(value);
            assert!(index >= last, "bucket index must be monotone");
            last = index;
            let lower = Histogram::bucket_lower(index);
            assert!(lower <= value, "lower bound {lower} above value {value}");
            if index + 1 < NUM_BUCKETS {
                assert!(Histogram::bucket_lower(index + 1) > value);
            }
        }
    }

    #[test]
    fn exact_small_values_and_quantisation_bound() {
        for v in 0..SUB {
            assert_eq!(Histogram::bucket_lower(Histogram::bucket_index(v)), v);
        }
        for v in [100u64, 12_345, 999_999_999] {
            let lower = Histogram::bucket_lower(Histogram::bucket_index(v));
            assert!((v - lower) as f64 / v as f64 <= 0.125 + 1e-9);
        }
    }

    #[test]
    fn summary_of_uniform_samples() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v * 1_000); // 1µs..1ms uniform
        }
        let s = h.summary();
        assert_eq!(s.count, 1000);
        assert_eq!(s.max_nanos, 1_000_000);
        // Median of 1..=1000 µs is ~500µs; allow one bucket (12.5%).
        assert!((s.p50_nanos as f64 - 500_000.0).abs() / 500_000.0 < 0.125 + 1e-9);
        assert!((s.p99_nanos as f64 - 990_000.0).abs() / 990_000.0 < 0.125 + 1e-9);
        assert!(s.p999_nanos <= s.max_nanos && s.p99_nanos <= s.p999_nanos);
        assert!((s.mean_nanos() as f64 - 500_500.0).abs() < 1_000.0);
    }

    #[test]
    fn concurrent_recording_loses_no_counts_and_percentiles_stay_tight() {
        // The satellite-task gate: 4 threads × 100k samples, no lost
        // counts, and every percentile estimate within one bucket of the
        // exact order statistic.
        const THREADS: u64 = 4;
        const PER_THREAD: u64 = 100_000;
        let h = Histogram::new();
        let mut exact: Vec<u64> = Vec::with_capacity((THREADS * PER_THREAD) as usize);
        for t in 0..THREADS {
            for i in 0..PER_THREAD {
                // Deterministic skewed distribution spanning ns..ms.
                let v = (i.wrapping_mul(2_654_435_761).wrapping_add(t * 977) % 1_000_000) + 1;
                exact.push(v);
            }
        }
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let h = h.clone();
                let chunk =
                    exact[(t * PER_THREAD) as usize..((t + 1) * PER_THREAD) as usize].to_vec();
                scope.spawn(move || {
                    for v in chunk {
                        h.record(v);
                    }
                });
            }
        });
        let s = h.summary();
        assert_eq!(s.count, THREADS * PER_THREAD, "no samples lost");
        exact.sort_unstable();
        assert_eq!(s.max_nanos, *exact.last().unwrap());
        for (quantile, estimate) in [
            (0.50, s.p50_nanos),
            (0.99, s.p99_nanos),
            (0.999, s.p999_nanos),
        ] {
            let rank = ((quantile * exact.len() as f64).ceil() as usize).max(1) - 1;
            let true_value = exact[rank];
            let true_bucket = Histogram::bucket_index(true_value);
            let est_bucket = Histogram::bucket_index(estimate);
            assert!(
                est_bucket.abs_diff(true_bucket) <= 1,
                "p{quantile}: estimate {estimate} (bucket {est_bucket}) vs exact \
                 {true_value} (bucket {true_bucket})"
            );
        }
    }

    #[test]
    fn format_nanos_picks_units() {
        assert_eq!(format_nanos(17), "17ns");
        assert_eq!(format_nanos(4_200), "4.2µs");
        assert_eq!(format_nanos(13_800_000), "13.8ms");
        assert_eq!(format_nanos(2_410_000_000), "2.41s");
    }
}
