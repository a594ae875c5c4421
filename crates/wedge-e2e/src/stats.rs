//! Exact order statistics over raw samples. Nothing end-to-end goes
//! through a bucketed histogram.

/// Fewest samples that must lie beyond a percentile for it to be reported.
const MIN_BEYOND: usize = 10;

/// The `q`-quantile (nearest rank) of `sorted`, or `None` when fewer than
/// ten samples lie beyond it — a p99 over 300 samples is three samples'
/// opinion, not a percentile.
pub fn percentile(sorted: &[u64], q: f64) -> Option<u64> {
    let rank = ((sorted.len() as f64 * q).ceil() as usize).max(1);
    (sorted.len() >= rank + MIN_BEYOND).then(|| sorted[rank - 1])
}

/// [`percentile`] in microseconds from nanosecond samples.
pub fn percentile_us(sorted_ns: &[u64], q: f64) -> Option<f64> {
    percentile(sorted_ns, q).map(|ns| ns as f64 / 1e3)
}

pub fn median(values: &[f64]) -> Option<f64> {
    let mut values = values.to_vec();
    values.sort_by(f64::total_cmp);
    match values.len() {
        0 => None,
        n if n % 2 == 1 => Some(values[n / 2]),
        n => Some((values[n / 2 - 1] + values[n / 2]) / 2.0),
    }
}

/// `(max − min) / median`: how far a set of repeated readings spread.
pub fn spread(values: &[f64]) -> Option<f64> {
    let mid = median(values)?;
    let max = values.iter().copied().fold(f64::MIN, f64::max);
    let min = values.iter().copied().fold(f64::MAX, f64::min);
    (mid > 0.0).then(|| (max - min) / mid)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_need_ten_samples_beyond() {
        let samples: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&samples, 0.5), Some(50));
        assert_eq!(percentile(&samples, 0.9), Some(90));
        assert_eq!(percentile(&samples, 0.99), None);
        assert_eq!(percentile(&samples[..19], 0.5), None);
        assert_eq!(percentile(&samples[..20], 0.5), Some(10));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn median_and_spread() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(spread(&[9.0, 10.0, 11.0]), Some(0.2));
    }
}
