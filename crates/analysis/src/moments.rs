//! Streaming moments: mean, variance, and the squared coefficient of
//! variation (C²) that §7 of the paper centers on.

/// Streaming estimator of count, mean, and variance using Welford's
/// algorithm, which is numerically stable for the enormous dynamic ranges
/// found in cluster traces (job usage integrals span nine orders of
/// magnitude).
///
/// # Examples
///
/// ```
/// use borg_analysis::moments::Moments;
///
/// let m: Moments = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0].iter().copied().collect();
/// assert_eq!(m.mean(), 5.0);
/// assert_eq!(m.population_variance(), 4.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Moments {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
    sum: f64,
}

impl Moments {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Moments {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            sum: 0.0,
        }
    }

    /// Adds one observation.
    ///
    /// Non-finite values are ignored so that a stray sentinel in a trace
    /// cannot poison a month-long aggregation.
    pub fn push(&mut self, x: f64) {
        if !x.is_finite() {
            return;
        }
        self.count += 1;
        self.sum += x;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        let delta2 = x - self.mean;
        self.m2 += delta * delta2;
        if x < self.min {
            self.min = x;
        }
        if x > self.max {
            self.max = x;
        }
    }

    /// Merges another accumulator into this one (parallel reduction).
    pub fn merge(&mut self, other: &Moments) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of (finite) observations seen.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Arithmetic mean; 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (divide by `n`); 0 when fewer than 1 observation.
    pub fn population_variance(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Sample variance (divide by `n - 1`); 0 when fewer than 2 observations.
    pub fn sample_variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Smallest observation; `+inf` when empty.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation; `-inf` when empty.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// The squared coefficient of variation, `C² = variance / mean²`.
    ///
    /// This is the headline variability statistic of §7: the paper reports
    /// C² ≈ 23 312 for 2019 CPU usage integrals and C² ≈ 43 476 for memory.
    /// C² is invariant to rescaling the data, which is what makes it
    /// comparable across traces with different normalization constants.
    ///
    /// Returns 0 for an empty accumulator and `+inf` when the mean is zero
    /// but the variance is not.
    pub fn c_squared(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let var = self.sample_variance();
        if self.mean == 0.0 {
            if var == 0.0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            var / (self.mean * self.mean)
        }
    }
}

/// The empty accumulator of [`Moments::new`]: a derived `Default` would
/// start `min` and `max` at zero and report that zero as an observation.
impl Default for Moments {
    fn default() -> Self {
        Moments::new()
    }
}

impl FromIterator<f64> for Moments {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut m = Moments::new();
        for x in iter {
            m.push(x);
        }
        m
    }
}

#[cfg(test)]
// Exact equality below asserts deterministically-computed values reproduce
// bit-for-bit; approximate comparison would mask a determinism regression.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    #[test]
    fn empty_is_zeroed() {
        let m = Moments::new();
        assert_eq!(m.count(), 0);
        assert_eq!(m.mean(), 0.0);
        assert_eq!(m.population_variance(), 0.0);
        assert_eq!(m.c_squared(), 0.0);
    }

    #[test]
    fn default_is_new() {
        assert_eq!(Moments::default(), Moments::new());
        for x in [3.0, -3.0] {
            let mut m = Moments::default();
            m.push(x);
            assert_eq!((m.min(), m.max()), (x, x));
        }
    }

    #[test]
    fn single_value() {
        let mut m = Moments::new();
        m.push(42.0);
        assert_eq!(m.mean(), 42.0);
        assert_eq!(m.population_variance(), 0.0);
        assert_eq!(m.min(), 42.0);
        assert_eq!(m.max(), 42.0);
    }

    #[test]
    fn known_variance() {
        let m: Moments = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
            .iter()
            .copied()
            .collect();
        assert_eq!(m.mean(), 5.0);
        assert!((m.population_variance() - 4.0).abs() < 1e-12);
        assert!((m.sample_variance() - 32.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn c_squared_exponential_like() {
        // For data where sample variance equals mean², C² = 1 (the
        // exponential-distribution reference point quoted in §7).
        let m: Moments = [0.0, 2.0].iter().copied().collect();
        assert!((m.c_squared() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn c_squared_scale_invariant() {
        let xs = [0.5, 1.5, 2.5, 8.0, 100.0];
        let a: Moments = xs.iter().copied().collect();
        let b: Moments = xs.iter().map(|x| x * 1234.5).collect();
        assert!((a.c_squared() - b.c_squared()).abs() < 1e-9);
    }

    #[test]
    fn merge_matches_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0 + 20.0).collect();
        let whole: Moments = xs.iter().copied().collect();
        let mut left: Moments = xs[..37].iter().copied().collect();
        let right: Moments = xs[37..].iter().copied().collect();
        left.merge(&right);
        assert_eq!(left.count(), whole.count());
        assert!((left.mean() - whole.mean()).abs() < 1e-9);
        assert!((left.population_variance() - whole.population_variance()).abs() < 1e-9);
        assert_eq!(left.min(), whole.min());
        assert_eq!(left.max(), whole.max());
    }

    #[test]
    fn merge_with_empty() {
        let mut a: Moments = [1.0, 2.0].iter().copied().collect();
        let b = Moments::new();
        a.merge(&b);
        assert_eq!(a.count(), 2);
        let mut c = Moments::new();
        c.merge(&a);
        assert_eq!(c.count(), 2);
        assert_eq!(c.mean(), 1.5);
    }

    #[test]
    fn ignores_non_finite() {
        let mut m = Moments::new();
        m.push(f64::NAN);
        m.push(f64::INFINITY);
        m.push(3.0);
        assert_eq!(m.count(), 1);
        assert_eq!(m.mean(), 3.0);
    }
}
