//! Order statistics for timing samples.

/// Nearest-rank percentile: the smallest sample with at least `p` percent of
/// the samples at or below it. `p` in (0, 100]; `samples` need not be sorted
/// and must not be empty.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(sorted.len(), p) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// A percentile is only worth printing when at least ten samples lie beyond
/// it; with fewer, it is the value of a handful of outliers.
pub fn supported(n: usize, p: f64) -> bool {
    n > 0 && n - rank(n, p) >= 10
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_known_inputs() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 91.0), 10.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(percentile(&v, 0.1), 1.0);
        // order of the input does not matter, and odd counts pick the middle
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        // p90 of 100 samples is rank 90: ten beyond it
        assert!(supported(100, 90.0));
        assert!(!supported(99, 90.0));
        // the median of 20 is rank 10: ten beyond it
        assert!(supported(20, 50.0));
        assert!(!supported(19, 50.0));
        assert!(!supported(0, 50.0));
    }
}
