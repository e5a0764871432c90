//! The harness's own arithmetic: medians, percentiles, and the rule for
//! which tail percentile a sample is large enough to report.

/// Median of `xs` (mean of the middle pair for an even count). 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile: the smallest sample with at least `p` of the
/// samples at or below it (`p` in 0..=1). 0 when empty.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The percentiles a report may quote, lowest first, each with the share
/// of samples beyond it in parts per thousand (integers keep the count of
/// samples beyond exact).
const TAILS: [(f64, usize); 4] = [(0.90, 100), (0.95, 50), (0.99, 10), (0.999, 1)];

/// The highest tail percentile that still has at least ten of `n` samples
/// beyond it; `None` when even p90 has fewer (under 100 samples), in which
/// case only the median is reported.
pub fn highest_supported_tail(n: usize) -> Option<f64> {
    TAILS
        .iter()
        .filter(|(_, beyond)| n * beyond / 1000 >= 10)
        .map(|(p, _)| *p)
        .next_back()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.50), 50.0);
        assert_eq!(percentile(&xs, 0.95), 95.0);
        assert_eq!(percentile(&xs, 1.0), 100.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.95), 7.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(highest_supported_tail(99), None);
        assert_eq!(highest_supported_tail(100), Some(0.90));
        assert_eq!(highest_supported_tail(199), Some(0.90));
        assert_eq!(highest_supported_tail(200), Some(0.95));
        assert_eq!(highest_supported_tail(1_000), Some(0.99));
        assert_eq!(highest_supported_tail(10_000), Some(0.999));
    }
}
