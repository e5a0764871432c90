//! Pareto tail fitting and heavy-tail diagnostics.
//!
//! §7 of the paper fits the per-job usage integrals to a Pareto
//! distribution `P(X > x) = (x_min / x)^α` by restricting to "large" jobs
//! (integral > 1 resource-hour, below the 99.99th percentile) and
//! regressing the empirical CCDF on log-log axes. It reports α = 0.69 (CPU)
//! and α = 0.72 (memory) with R² > 99%. This module implements that exact
//! procedure.

use crate::ccdf::{steps_of_sorted, Ccdf};
use crate::regression::LinearFit;

/// A fitted Pareto tail.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParetoFit {
    /// Tail index α (the negative log-log CCDF slope). α < 1 means the
    /// distribution has infinite mean in the limit — extremely heavy.
    pub alpha: f64,
    /// Goodness of fit of the log-log regression, in `[0, 1]`.
    pub r_squared: f64,
    /// Lower cutoff used for the fit (paper: 1 resource-hour).
    pub x_min: f64,
    /// Upper cutoff used for the fit (paper: the 99.99th percentile).
    pub x_max: f64,
    /// Number of samples inside `[x_min, x_max]`.
    pub n_tail: usize,
}

impl ParetoFit {
    /// Fits a Pareto tail by log-log CCDF regression, following §7.
    ///
    /// Only the values of `sample` in `(x_min, x_max_percentile]`
    /// participate. The paper uses `x_min = 1.0` and
    /// `x_max_percentile = 99.99`.
    ///
    /// Returns `None` when fewer than [`MIN_TAIL_SAMPLES`](Self::MIN_TAIL_SAMPLES)
    /// samples fall in the fitting window, or when `x_max_percentile` is
    /// outside `[0, 100]`.
    pub fn fit_ccdf_regression(sample: &Ccdf, x_min: f64, x_max_percentile: f64) -> Option<Self> {
        let x_max = sample.percentile(x_max_percentile)?;
        // The window is a contiguous run of the ascending sample.
        let sorted = sample.samples();
        let lo = sorted.partition_point(|&x| x <= x_min);
        let hi = sorted.partition_point(|&x| x <= x_max);
        Self::fit_window(sorted.get(lo..hi)?, x_min, x_max)
    }

    /// Fits a Pareto tail to `window`, the samples in `(x_min, x_max]` in
    /// ascending `total_cmp` order, by the regression of
    /// [`fit_ccdf_regression`](Self::fit_ccdf_regression): its steps are
    /// the window's own CCDF. `None` below
    /// [`MIN_TAIL_SAMPLES`](Self::MIN_TAIL_SAMPLES) samples.
    pub fn fit_window(window: &[f64], x_min: f64, x_max: f64) -> Option<Self> {
        if window.len() < Self::MIN_TAIL_SAMPLES {
            return None;
        }
        // Regress log P(X > x) on log x at each distinct sample value,
        // skipping the final step where the CCDF reaches exactly zero.
        let points: Vec<(f64, f64)> = steps_of_sorted(window)
            .into_iter()
            .filter(|&(x, p)| x > 0.0 && p > 0.0)
            .map(|(x, p)| (x.ln(), p.ln()))
            .collect();
        let fit = LinearFit::fit(&points)?;
        Some(ParetoFit {
            alpha: -fit.slope,
            r_squared: fit.r_squared,
            x_min,
            x_max,
            n_tail: window.len(),
        })
    }

    /// Minimum number of in-window samples for a regression fit.
    pub const MIN_TAIL_SAMPLES: usize = 10;

    /// Theoretical CCDF of the fitted Pareto at `x >= x_min`.
    pub fn ccdf(&self, x: f64) -> f64 {
        if x <= self.x_min {
            1.0
        } else {
            (self.x_min / x).powf(self.alpha)
        }
    }
}

#[cfg(test)]
// Exact equality below asserts deterministically-computed values reproduce
// bit-for-bit; approximate comparison would mask a determinism regression.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    /// Deterministic Pareto(α) sample via inverse-CDF on a low-discrepancy
    /// sequence: x = x_min * u^(-1/α).
    fn pareto_samples(alpha: f64, x_min: f64, n: usize) -> Vec<f64> {
        (1..=n)
            .map(|i| {
                let u = (i as f64 - 0.5) / n as f64;
                x_min * u.powf(-1.0 / alpha)
            })
            .collect()
    }

    #[test]
    fn regression_recovers_alpha() {
        for &alpha in &[0.69, 0.72, 0.77, 1.5] {
            let xs = Ccdf::from_samples(pareto_samples(alpha, 1.0, 20_000));
            let fit = ParetoFit::fit_ccdf_regression(&xs, 1.0, 99.99).unwrap();
            assert!(
                (fit.alpha - alpha).abs() < 0.08,
                "alpha {alpha}: fitted {}",
                fit.alpha
            );
            assert!(fit.r_squared > 0.98, "r2 = {}", fit.r_squared);
        }
    }

    #[test]
    fn too_few_tail_samples() {
        let xs = Ccdf::from_samples(vec![0.5; 1000]); // nothing above x_min = 1
        assert!(ParetoFit::fit_ccdf_regression(&xs, 1.0, 99.99).is_none());
    }

    #[test]
    fn degenerate_samples_and_windows() {
        for xs in [vec![], vec![f64::NAN, f64::INFINITY]] {
            let xs = Ccdf::from_samples(xs);
            assert_eq!(ParetoFit::fit_ccdf_regression(&xs, 1.0, 99.99), None);
        }
        let one = Ccdf::from_samples([5.0]);
        assert_eq!(ParetoFit::fit_ccdf_regression(&one, 1.0, 99.99), None);
        let xs = Ccdf::from_samples(pareto_samples(0.7, 1.0, 1000));
        // An empty window (x_min above the cut) and a percentile out of range.
        assert_eq!(ParetoFit::fit_ccdf_regression(&xs, 1e12, 99.99), None);
        assert_eq!(ParetoFit::fit_ccdf_regression(&xs, 1.0, 100.5), None);
        assert_eq!(ParetoFit::fit_ccdf_regression(&xs, 1.0, -1.0), None);
        // ±inf and NaN beside a real sample change nothing.
        let mut noisy = pareto_samples(0.7, 1.0, 1000);
        noisy.extend([f64::NAN, f64::INFINITY, f64::NEG_INFINITY]);
        let noisy = Ccdf::from_samples(noisy);
        assert_eq!(
            ParetoFit::fit_ccdf_regression(&noisy, 1.0, 99.99),
            ParetoFit::fit_ccdf_regression(&xs, 1.0, 99.99)
        );
    }

    #[test]
    fn fitted_ccdf_shape() {
        let fit = ParetoFit {
            alpha: 1.0,
            r_squared: 1.0,
            x_min: 1.0,
            x_max: 100.0,
            n_tail: 100,
        };
        assert_eq!(fit.ccdf(0.5), 1.0);
        assert!((fit.ccdf(10.0) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn pareto_below_one_has_extreme_tail_share() {
        // α < 1 means the top 1% carries most of the mass, the paper's
        // headline "hogs" observation.
        let xs = Ccdf::from_samples(pareto_samples(0.7, 0.001, 100_000));
        let top_1 = xs.top_share(1.0).unwrap();
        let top_01 = xs.top_share(0.1).unwrap();
        assert!(top_1 > 0.80, "top 1% = {top_1}");
        assert!(top_01 > 0.5, "top 0.1% = {top_01}");
        assert!(top_1 >= top_01);
    }
}
