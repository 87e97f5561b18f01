//! Order statistics for latency samples.
//!
//! A percentile is reported only when the sample supports it: at least
//! [`MIN_BEYOND`] samples must lie strictly above the reported rank, so
//! a p90 needs at least 100 samples and a p99 at least 1000.

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// The `q`-quantile (`0 < q < 1`) of `samples` by the nearest-rank
/// rule, or `None` when fewer than [`MIN_BEYOND`] samples lie beyond
/// it. The median is exempt from the tail rule (it needs one sample).
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    assert!(q > 0.0 && q < 1.0, "quantile {q} outside (0, 1)");
    let n = samples.len();
    if n == 0 {
        return None;
    }
    // Nearest rank: the smallest value with at least q*n samples at or
    // below it (1-based rank ceil(q*n)).
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    if q > 0.5 && n - rank < MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// The median (nearest-rank p50), `None` for an empty sample.
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 0.5)
}

/// The smallest sample count for which [`percentile`] reports `q`.
pub fn min_samples_for(q: f64) -> usize {
    (1..)
        .find(|&n| {
            let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
            n - rank >= MIN_BEYOND
        })
        .expect("some sample count supports every q < 1")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled 1..=n, so sorting is exercised.
        (0..n).map(|i| ((i * 37) % n + 1) as f64).collect()
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        assert_eq!(min_samples_for(0.9), 100);
        assert_eq!(min_samples_for(0.99), 1000);
        assert_eq!(percentile(&ramp(99), 0.9), None);
        // 100 samples: rank 90, ten samples (91..=100) beyond it.
        assert_eq!(percentile(&ramp(100), 0.9), Some(90.0));
        assert_eq!(percentile(&ramp(1000), 0.99), Some(990.0));
        assert_eq!(percentile(&ramp(999), 0.99), None);
    }

    #[test]
    fn median_is_nearest_rank_and_needs_one_sample() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[7.0]), Some(7.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
        assert_eq!(percentile(&ramp(101), 0.5), Some(51.0));
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut values = ramp(250);
        let p = percentile(&values, 0.9);
        values.reverse();
        assert_eq!(percentile(&values, 0.9), p);
        assert_eq!(p, Some(225.0));
    }
}
