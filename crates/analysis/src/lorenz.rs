//! Lorenz curves and the Gini coefficient.
//!
//! §7's "hogs and mice" statistic (top-1% load share) is one point on the
//! Lorenz curve of per-job consumption. The full curve and its Gini
//! coefficient summarize load concentration in one number: a Gini near 1
//! means a few jobs carry nearly all the load — the 2019 trace's regime.
//!
//! Both read the non-negative part of a [`Ccdf`]'s ascending sample.

use crate::ccdf::Ccdf;

/// The samples `>= 0` (from the first `-0.0` on): a suffix of the
/// ascending sample.
fn non_negative(sample: &Ccdf) -> &[f64] {
    let sorted = sample.samples();
    &sorted[sorted.partition_point(|&x| x < 0.0)..]
}

/// A Lorenz curve: cumulative load share versus cumulative population
/// share, jobs sorted smallest first.
#[derive(Debug, Clone, PartialEq)]
pub struct Lorenz {
    /// Points `(population share, load share)`, both in `[0, 1]`,
    /// starting at `(0, 0)` and ending at `(1, 1)`.
    pub points: Vec<(f64, f64)>,
}

impl Lorenz {
    /// Builds the Lorenz curve of the non-negative samples, compressed to
    /// at most `resolution + 1` points. Returns `None` on empty input or a
    /// non-positive total.
    pub fn from_ccdf(sample: &Ccdf, resolution: usize) -> Option<Lorenz> {
        let sorted = non_negative(sample);
        if sorted.is_empty() || resolution == 0 {
            return None;
        }
        let total: f64 = sorted.iter().sum();
        if total <= 0.0 {
            return None;
        }
        let n = sorted.len();
        let mut points = Vec::with_capacity(resolution + 1);
        points.push((0.0, 0.0));
        let mut cumulative = 0.0;
        let mut next_emit = 1;
        for (i, &x) in sorted.iter().enumerate() {
            cumulative += x;
            // Emit at evenly spaced population shares plus the endpoint.
            while next_emit <= resolution
                && (i + 1) as f64 / n as f64 >= next_emit as f64 / resolution as f64
            {
                points.push(((i + 1) as f64 / n as f64, cumulative / total));
                next_emit += 1;
            }
        }
        if points.last().map(|p| p.1) != Some(1.0) {
            points.push((1.0, 1.0));
        }
        Some(Lorenz { points })
    }

    /// The load share of the largest `top` fraction of jobs (e.g.
    /// `top = 0.01` reads off the paper's top-1% statistic).
    pub fn top_share(&self, top: f64) -> f64 {
        let pop = 1.0 - top;
        // Linear interpolation on the curve.
        let mut prev = (0.0, 0.0);
        for &(x, y) in &self.points {
            if x >= pop {
                let frac = if x > prev.0 {
                    (pop - prev.0) / (x - prev.0)
                } else {
                    0.0
                };
                let at = prev.1 + (y - prev.1) * frac;
                return 1.0 - at;
            }
            prev = (x, y);
        }
        0.0
    }
}

/// The Gini coefficient of non-negative samples: 0 = perfectly equal,
/// → 1 = all load on one job.
///
/// Computed exactly from the sorted sample:
/// `G = (2 Σ i·x_(i) / (n Σ x)) − (n + 1)/n`.
///
/// Returns `None` on empty input or a non-positive total.
///
/// # Examples
///
/// ```
/// use borg_analysis::ccdf::Ccdf;
/// use borg_analysis::lorenz::gini;
///
/// assert!(gini(&Ccdf::from_samples([1.0, 1.0, 1.0, 1.0])).unwrap() < 1e-12);
/// assert!(gini(&Ccdf::from_samples([0.0, 0.0, 0.0, 100.0])).unwrap() > 0.7);
/// ```
pub fn gini(sample: &Ccdf) -> Option<f64> {
    let sorted = non_negative(sample);
    if sorted.is_empty() {
        return None;
    }
    let n = sorted.len() as f64;
    let total: f64 = sorted.iter().sum();
    if total <= 0.0 {
        return None;
    }
    let weighted: f64 = sorted
        .iter()
        .enumerate()
        .map(|(i, &x)| (i as f64 + 1.0) * x)
        .sum();
    Some((2.0 * weighted / (n * total)) - (n + 1.0) / n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_distribution_gini_zero() {
        assert!(gini(&Ccdf::from_samples([5.0; 100])).unwrap().abs() < 1e-12);
    }

    #[test]
    fn single_hog_gini_near_one() {
        let mut xs = vec![0.0; 999];
        xs.push(1.0);
        let g = gini(&Ccdf::from_samples(xs)).unwrap();
        assert!(g > 0.99, "gini = {g}");
    }

    #[test]
    fn gini_of_uniform_is_one_third() {
        // For U(0, 1), G = 1/3.
        let xs: Vec<f64> = (0..10_000).map(|i| (i as f64 + 0.5) / 10_000.0).collect();
        let g = gini(&Ccdf::from_samples(xs)).unwrap();
        assert!((g - 1.0 / 3.0).abs() < 1e-3, "gini = {g}");
    }

    #[test]
    fn lorenz_curve_endpoints_and_convexity() {
        let xs: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let l = Lorenz::from_ccdf(&Ccdf::from_samples(xs), 20).unwrap();
        assert_eq!(l.points.first(), Some(&(0.0, 0.0)));
        assert_eq!(l.points.last().map(|p| p.1), Some(1.0));
        // Lorenz curves lie below the diagonal and are non-decreasing.
        let mut prev_y = 0.0;
        for &(x, y) in &l.points {
            assert!(y <= x + 1e-9, "below diagonal at ({x}, {y})");
            assert!(y >= prev_y - 1e-12);
            prev_y = y;
        }
    }

    #[test]
    fn lorenz_top_share_matches_top_share_fn() {
        let xs: Vec<f64> = (1..=1000).map(|i| (i as f64).powi(3)).collect();
        let xs = Ccdf::from_samples(xs);
        let l = Lorenz::from_ccdf(&xs, 1000).unwrap();
        let direct = xs.top_share(1.0).unwrap();
        let via_lorenz = l.top_share(0.01);
        assert!(
            (direct - via_lorenz).abs() < 0.01,
            "direct {direct} vs lorenz {via_lorenz}"
        );
    }

    #[test]
    fn degenerate_inputs() {
        for xs in [
            vec![],
            vec![0.0, 0.0],
            vec![-0.0],
            vec![-1.0, -2.0],
            vec![f64::NAN, f64::INFINITY, f64::NEG_INFINITY],
        ] {
            let xs = Ccdf::from_samples(xs);
            assert!(gini(&xs).is_none());
            assert!(Lorenz::from_ccdf(&xs, 10).is_none());
        }
        assert!(Lorenz::from_ccdf(&Ccdf::from_samples([1.0]), 0).is_none());
    }

    #[test]
    fn single_sample_and_dropped_values() {
        let one = Ccdf::from_samples([3.0]);
        assert_eq!(gini(&one), Some(0.0));
        assert_eq!(
            Lorenz::from_ccdf(&one, 2).unwrap().points,
            vec![(0.0, 0.0), (1.0, 1.0), (1.0, 1.0)]
        );
        // Negatives and non-finite values take no part; -0.0 counts as a
        // job with no load.
        let mixed = Ccdf::from_samples([-5.0, f64::NAN, -0.0, 1.0, f64::INFINITY, 3.0]);
        let kept = Ccdf::from_samples([0.0, 1.0, 3.0]);
        assert_eq!(gini(&mixed), gini(&kept));
        assert_eq!(Lorenz::from_ccdf(&mixed, 3), Lorenz::from_ccdf(&kept, 3));
    }

    #[test]
    fn heavy_tail_has_extreme_gini() {
        // Pareto(0.7)-style: inverse-CDF samples.
        let xs: Vec<f64> = (1..=50_000)
            .map(|i| {
                let u = (i as f64 - 0.5) / 50_000.0;
                u.powf(-1.0 / 0.7).min(1e5)
            })
            .collect();
        let g = gini(&Ccdf::from_samples(xs)).unwrap();
        assert!(g > 0.9, "heavy-tailed gini = {g}");
    }
}
