//! Order statistics used by every reported timing.

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Median of `samples` (mean of the two middle values for an even count).
///
/// # Panics
/// Panics on an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        0.5 * (sorted[mid - 1] + sorted[mid])
    }
}

/// Nearest-rank percentile: the smallest sample with at least `p` percent of
/// the samples at or below it. Returns `None` unless at least
/// [`MIN_TAIL_SAMPLES`] samples lie beyond the reported one, so a tail
/// percentile is never read off a handful of values.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    assert!(p > 0.0 && p <= 100.0, "percentile {p} out of (0, 100]");
    let n = samples.len();
    if n == 0 {
        return None;
    }
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    if n - rank < MIN_TAIL_SAMPLES {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn nearest_rank_picks_the_ranked_sample() {
        let samples: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&samples, 50.0), Some(100.0));
        assert_eq!(percentile(&samples, 90.0), Some(180.0));
        // 90.1% of 200 is 180.2, which ranks to the 181st sample.
        assert_eq!(percentile(&samples, 90.1), Some(181.0));
    }

    #[test]
    fn tail_percentiles_need_ten_samples_beyond() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        // p90 of 100 leaves exactly 10 beyond; p91 leaves 9.
        assert!(percentile(&hundred, 90.0).is_some());
        assert!(percentile(&hundred, 91.0).is_none());
        // p99 needs at least 1000 samples.
        let below: Vec<f64> = (1..=999).map(f64::from).collect();
        let enough: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert!(percentile(&below, 99.0).is_none());
        assert_eq!(percentile(&enough, 99.0), Some(990.0));
        assert!(percentile(&[], 50.0).is_none());
    }

    #[test]
    fn order_of_input_does_not_matter() {
        let mut samples: Vec<f64> = (1..=40).map(f64::from).collect();
        samples.reverse();
        assert_eq!(percentile(&samples, 50.0), Some(20.0));
    }
}
