//! Correlation analyses.
//!
//! §7.2 of the paper shows that per-job compute and memory consumption are
//! strongly correlated: jobs are bucketed by NCU-hours into 1-hour-wide
//! buckets and the median NMU-hours per bucket is nearly linear in the
//! bucket index, with a Pearson coefficient of 0.97 (Figure 13).

use crate::select::{order_key, percentiles_by_selection};
use std::collections::BTreeMap;

/// Pearson correlation coefficient of paired samples.
///
/// Returns `None` with fewer than two finite pairs or when either variable
/// is constant.
///
/// # Examples
///
/// ```
/// use borg_analysis::correlation::pearson;
///
/// let pairs: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, 2.0 * i as f64)).collect();
/// assert!((pearson(&pairs).unwrap() - 1.0).abs() < 1e-12);
/// ```
pub fn pearson(pairs: &[(f64, f64)]) -> Option<f64> {
    let pts: Vec<(f64, f64)> = pairs
        .iter()
        .copied()
        .filter(|(x, y)| x.is_finite() && y.is_finite())
        .collect();
    if pts.len() < 2 {
        return None;
    }
    let n = pts.len() as f64;
    let mx = pts.iter().map(|p| p.0).sum::<f64>() / n;
    let my = pts.iter().map(|p| p.1).sum::<f64>() / n;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    let mut sxy = 0.0;
    for &(x, y) in &pts {
        let dx = x - mx;
        let dy = y - my;
        sxx += dx * dx;
        syy += dy * dy;
        sxy += dx * dy;
    }
    if sxx == 0.0 || syy == 0.0 {
        return None;
    }
    Some(sxy / (sxx * syy).sqrt())
}

/// One bucket of the Figure 13 analysis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bucket {
    /// Inclusive lower edge of the x bucket.
    pub x_lo: f64,
    /// Exclusive upper edge of the x bucket.
    pub x_hi: f64,
    /// Median of the y values whose x fell in this bucket.
    pub median_y: f64,
    /// Number of pairs in the bucket.
    pub count: usize,
}

/// Buckets the pairs `(xs[i], ys[i])` by `x` into `width`-wide bins and
/// reports the median `y` of each non-empty bin, exactly as Figure 13
/// buckets jobs into 1-NCU-hour bins and plots the median NMU-hours.
/// A pair with a non-finite side takes no part, and a longer column's
/// extra values are ignored.
///
/// Each bin holds its `y`s as order keys and takes their median by
/// selection ([`percentiles_by_selection`]): one bin holds most of
/// Figure 13's jobs, and nothing needs them sorted.
///
/// Returns an empty vector for empty input and for a `width` that is not
/// strictly positive (zero, negative or NaN).
pub fn bucketed_medians(xs: &[f64], ys: &[f64], width: f64) -> Vec<Bucket> {
    if width.is_nan() || width <= 0.0 {
        return Vec::new();
    }
    let mut by_bucket: BTreeMap<i64, Vec<u64>> = BTreeMap::new();
    for (&x, &y) in xs.iter().zip(ys) {
        if !x.is_finite() || !y.is_finite() {
            continue;
        }
        // The cast saturates for a quotient beyond i64.
        let idx = (x / width).floor() as i64;
        by_bucket.entry(idx).or_default().push(order_key(y));
    }
    // Every bucket holds at least one `y`, so none is filtered out.
    by_bucket
        .into_iter()
        .filter_map(|(idx, mut keys)| {
            let [median_y] = percentiles_by_selection(&mut keys, [50.0])?;
            Some(Bucket {
                x_lo: idx as f64 * width,
                // Added as floats: `idx + 1` overflows in the last bucket.
                x_hi: (idx as f64 + 1.0) * width,
                median_y,
                count: keys.len(),
            })
        })
        .collect()
}

/// Pearson correlation between bucket centers and bucket medians — the
/// statistic the paper actually quotes for Figure 13 — over the output of
/// [`bucketed_medians`].
pub fn bucketed_median_correlation(buckets: &[Bucket]) -> Option<f64> {
    let pts: Vec<(f64, f64)> = buckets
        .iter()
        .map(|b| ((b.x_lo + b.x_hi) / 2.0, b.median_y))
        .collect();
    pearson(&pts)
}

#[cfg(test)]
// Exact equality below asserts deterministically-computed values reproduce
// bit-for-bit; approximate comparison would mask a determinism regression.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    #[test]
    fn perfect_positive() {
        let pairs: Vec<(f64, f64)> = (0..50).map(|i| (i as f64, 3.0 * i as f64 + 2.0)).collect();
        assert!((pearson(&pairs).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn perfect_negative() {
        let pairs: Vec<(f64, f64)> = (0..50).map(|i| (i as f64, -(i as f64))).collect();
        assert!((pearson(&pairs).unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn uncorrelated_symmetric() {
        // y depends only on |x|, symmetric around x = 0: correlation 0.
        let pairs: Vec<(f64, f64)> = (-50..=50).map(|i| (i as f64, (i as f64).abs())).collect();
        assert!(pearson(&pairs).unwrap().abs() < 1e-12);
    }

    #[test]
    fn constant_rejected() {
        let pairs = vec![(1.0, 5.0), (2.0, 5.0), (3.0, 5.0)];
        assert_eq!(pearson(&pairs), None);
        assert_eq!(pearson(&[(1.0, 2.0)]), None);
    }

    #[test]
    fn buckets_collect_medians() {
        let xs = [0.1, 0.9, 0.5, 1.5, 2.7];
        let ys = [1.0, 3.0, 2.0, 10.0, 20.0];
        let buckets = bucketed_medians(&xs, &ys, 1.0);
        assert_eq!(buckets.len(), 3);
        assert_eq!(buckets[0].median_y, 2.0);
        assert_eq!(buckets[0].count, 3);
        assert_eq!(buckets[1].median_y, 10.0);
        assert_eq!(buckets[2].x_lo, 2.0);
    }

    #[test]
    fn bucketed_correlation_linear_relation() {
        // y = 0.5 x with multiplicative noise still yields near-1 bucketed
        // median correlation.
        let (xs, ys): (Vec<f64>, Vec<f64>) = (1..2000)
            .map(|i| {
                let x = i as f64 * 0.01;
                let noise = 1.0 + 0.3 * ((i as f64) * 0.77).sin();
                (x, 0.5 * x * noise)
            })
            .unzip();
        let r = bucketed_median_correlation(&bucketed_medians(&xs, &ys, 1.0)).unwrap();
        assert!(r > 0.95, "r = {r}");
    }

    #[test]
    fn non_positive_width_gives_no_buckets() {
        for width in [0.0, -0.0, -1.0, f64::NEG_INFINITY, f64::NAN] {
            assert!(
                bucketed_medians(&[1.0], &[1.0], width).is_empty(),
                "{width}"
            );
        }
    }

    /// `x / width` beyond `i64` saturates into the last bucket, whose upper
    /// edge must not wrap around below its lower one.
    #[test]
    fn huge_x_lands_in_a_saturated_bucket() {
        let buckets = bucketed_medians(&[1e300, -1e300, 0.5], &[1.0, 2.0, 3.0], 1.0);
        let edges: Vec<(f64, f64)> = buckets.iter().map(|b| (b.x_lo, b.x_hi)).collect();
        let top = i64::MAX as f64;
        assert_eq!(
            edges,
            vec![(-top, -top + 1.0), (0.0, 1.0), (top, top + 1.0)]
        );
        assert!(buckets.iter().all(|b| b.x_lo <= b.x_hi && b.count == 1));
        assert_eq!(buckets[2].median_y, 1.0);
    }
}
