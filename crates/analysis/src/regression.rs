//! Ordinary least-squares linear regression.
//!
//! Used by the Pareto tail fit (§7), which regresses `log P(X > x)` on
//! `log x` and reports the slope as `-α` together with the R² goodness of
//! fit (the paper reports R² > 99%).

/// Result of fitting `y = slope * x + intercept` by least squares.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearFit {
    /// Fitted slope.
    pub slope: f64,
    /// Fitted intercept.
    pub intercept: f64,
    /// Coefficient of determination in `[0, 1]`.
    pub r_squared: f64,
    /// Number of points fitted.
    pub n: usize,
}

impl LinearFit {
    /// Fits a line to `(x, y)` pairs; returns `None` with fewer than two
    /// distinct x values.
    ///
    /// # Examples
    ///
    /// ```
    /// use borg_analysis::regression::LinearFit;
    ///
    /// let pts: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, 3.0 * i as f64 + 1.0)).collect();
    /// let fit = LinearFit::fit(&pts).unwrap();
    /// assert!((fit.slope - 3.0).abs() < 1e-12);
    /// assert!((fit.intercept - 1.0).abs() < 1e-12);
    /// assert!((fit.r_squared - 1.0).abs() < 1e-12);
    /// ```
    pub fn fit(points: &[(f64, f64)]) -> Option<LinearFit> {
        let pts: Vec<(f64, f64)> = points
            .iter()
            .copied()
            .filter(|(x, y)| x.is_finite() && y.is_finite())
            .collect();
        let n = pts.len();
        if n < 2 {
            return None;
        }
        let nf = n as f64;
        let mean_x = pts.iter().map(|p| p.0).sum::<f64>() / nf;
        let mean_y = pts.iter().map(|p| p.1).sum::<f64>() / nf;
        let mut sxx = 0.0;
        let mut sxy = 0.0;
        let mut syy = 0.0;
        for &(x, y) in &pts {
            let dx = x - mean_x;
            let dy = y - mean_y;
            sxx += dx * dx;
            sxy += dx * dy;
            syy += dy * dy;
        }
        if sxx == 0.0 {
            return None;
        }
        let slope = sxy / sxx;
        let intercept = mean_y - slope * mean_x;
        let r_squared = if syy == 0.0 {
            // A perfectly horizontal relationship is perfectly explained.
            1.0
        } else {
            (sxy * sxy) / (sxx * syy)
        };
        Some(LinearFit {
            slope,
            intercept,
            r_squared,
            n,
        })
    }
}

#[cfg(test)]
// Exact equality below asserts deterministically-computed values reproduce
// bit-for-bit; approximate comparison would mask a determinism regression.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    #[test]
    fn perfect_line() {
        let pts: Vec<(f64, f64)> = (0..20).map(|i| (i as f64, -2.0 * i as f64 + 5.0)).collect();
        let fit = LinearFit::fit(&pts).unwrap();
        assert!((fit.slope + 2.0).abs() < 1e-12);
        assert!((fit.intercept - 5.0).abs() < 1e-12);
        assert!((fit.r_squared - 1.0).abs() < 1e-12);
        assert_eq!(fit.n, 20);
    }

    #[test]
    fn noisy_line_good_r2() {
        let pts: Vec<(f64, f64)> = (0..100)
            .map(|i| {
                let x = i as f64;
                // Small deterministic "noise".
                (x, 4.0 * x + (i as f64 * 0.7).sin())
            })
            .collect();
        let fit = LinearFit::fit(&pts).unwrap();
        assert!((fit.slope - 4.0).abs() < 0.01);
        assert!(fit.r_squared > 0.999);
    }

    #[test]
    fn too_few_points() {
        assert!(LinearFit::fit(&[]).is_none());
        assert!(LinearFit::fit(&[(1.0, 2.0)]).is_none());
    }

    #[test]
    fn vertical_points_rejected() {
        assert!(LinearFit::fit(&[(1.0, 2.0), (1.0, 5.0)]).is_none());
    }

    #[test]
    fn horizontal_points_r2_one() {
        let fit = LinearFit::fit(&[(0.0, 3.0), (1.0, 3.0), (2.0, 3.0)]).unwrap();
        assert_eq!(fit.slope, 0.0);
        assert_eq!(fit.r_squared, 1.0);
    }

    #[test]
    fn filters_non_finite() {
        let fit = LinearFit::fit(&[(0.0, 1.0), (f64::NAN, 9.0), (2.0, 5.0)]).unwrap();
        assert_eq!(fit.n, 2);
    }
}
