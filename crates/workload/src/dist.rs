//! Probability distributions.
//!
//! Hand-rolled samplers built only on uniform randomness from `rand`, so
//! every draw is reproducible from a seed and the math is visible in one
//! place. The key distribution is the [`Pareto`] family: §7 of the paper
//! shows per-job resource consumption is Pareto with tail index α < 1.

use rand::{Rng, RngExt};

/// A continuous distribution that can be sampled.
pub trait Sample {
    /// Draws one value.
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64;
}

/// Uniform on `[lo, hi)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Uniform {
    /// Inclusive lower bound.
    pub lo: f64,
    /// Exclusive upper bound.
    pub hi: f64,
}

impl Uniform {
    /// Creates a uniform distribution.
    ///
    /// # Panics
    ///
    /// Panics when `lo > hi` or either bound is non-finite.
    pub fn new(lo: f64, hi: f64) -> Uniform {
        assert!(
            lo.is_finite() && hi.is_finite() && lo <= hi,
            "bad uniform bounds"
        );
        Uniform { lo, hi }
    }
}

impl Sample for Uniform {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.lo + (self.hi - self.lo) * rng.random::<f64>()
    }
}

/// Exponential with the given rate (mean `1 / rate`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    /// Rate parameter λ.
    pub rate: f64,
}

impl Exponential {
    /// Creates an exponential distribution.
    ///
    /// # Panics
    ///
    /// Panics when `rate` is not strictly positive.
    pub fn new(rate: f64) -> Exponential {
        assert!(
            rate > 0.0 && rate.is_finite(),
            "exponential rate must be positive"
        );
        Exponential { rate }
    }

    /// Exponential with the given mean.
    pub fn with_mean(mean: f64) -> Exponential {
        Exponential::new(1.0 / mean)
    }
}

impl Sample for Exponential {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // 1 - u avoids ln(0).
        -(1.0 - rng.random::<f64>()).ln() / self.rate
    }
}

/// Unbounded Pareto: `P(X > x) = (x_min / x)^alpha` for `x >= x_min`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pareto {
    /// Tail index α.
    pub alpha: f64,
    /// Scale (minimum value).
    pub x_min: f64,
}

impl Pareto {
    /// Creates a Pareto distribution.
    ///
    /// # Panics
    ///
    /// Panics on non-positive `alpha` or `x_min`.
    pub fn new(alpha: f64, x_min: f64) -> Pareto {
        assert!(
            alpha > 0.0 && x_min > 0.0,
            "pareto parameters must be positive"
        );
        Pareto { alpha, x_min }
    }
}

impl Sample for Pareto {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let u = 1.0 - rng.random::<f64>(); // in (0, 1]
        self.x_min * u.powf(-1.0 / self.alpha)
    }
}

/// Pareto truncated to `[lo, hi]` by inverse-CDF of the bounded law.
///
/// Heavy-tailed workload models must be bounded in practice: the largest
/// job in the 2019 trace used 370k NCU-hours, not infinity, and α < 1
/// makes the unbounded mean diverge.
///
/// The inverse CDF's three constants are computed once, in
/// [`BoundedPareto::new`], with the same `powf` calls a draw used to
/// make, so a draw is one `powf` and the same bits. The fields are private
/// so that the constants cannot go stale.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundedPareto {
    alpha: f64,
    lo: f64,
    hi: f64,
    /// `lo^-α`.
    la: f64,
    /// `hi^-α`.
    ha: f64,
    /// `-1/α`.
    neg_inv_alpha: f64,
}

impl BoundedPareto {
    /// Creates a bounded Pareto distribution with tail index `alpha` on
    /// `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < lo < hi` and `alpha > 0`.
    pub fn new(alpha: f64, lo: f64, hi: f64) -> BoundedPareto {
        assert!(
            alpha > 0.0 && lo > 0.0 && lo < hi,
            "bad bounded-pareto parameters"
        );
        BoundedPareto {
            alpha,
            lo,
            hi,
            la: lo.powf(-alpha),
            ha: hi.powf(-alpha),
            neg_inv_alpha: -1.0 / alpha,
        }
    }

    /// The inverse CDF at `u` in `[0, 1)`: `(la - u (la - ha))^(-1/α)`.
    pub(crate) fn inverse_cdf(&self, u: f64) -> f64 {
        (self.la - u * (self.la - self.ha)).powf(self.neg_inv_alpha)
    }

    /// Analytic second moment `E[X²]` of the bounded Pareto.
    pub fn second_moment(&self) -> f64 {
        let a = self.alpha;
        let (l, h) = (self.lo, self.hi);
        let norm = 1.0 - (l / h).powf(a);
        if (a - 2.0).abs() < 1e-12 {
            l.powf(a) * a * (h.ln() - l.ln()) / norm
        } else {
            (l.powf(a) * a / (a - 2.0)) * (l.powf(2.0 - a) - h.powf(2.0 - a)) / norm
        }
    }

    /// Analytic mean of the bounded Pareto.
    pub fn mean(&self) -> f64 {
        let a = self.alpha;
        let (l, h) = (self.lo, self.hi);
        if (a - 1.0).abs() < 1e-12 {
            let la = l.powf(a);
            la / (1.0 - (l / h).powf(a)) * a * (h.ln() - l.ln())
        } else {
            (l.powf(a) * a / (a - 1.0)) * (l.powf(1.0 - a) - h.powf(1.0 - a))
                / (1.0 - (l / h).powf(a))
        }
    }
}

impl Sample for BoundedPareto {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.inverse_cdf(rng.random::<f64>())
    }
}

/// Log-normal: `exp(mu + sigma * Z)` with `Z` standard normal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    /// Location of the underlying normal.
    pub mu: f64,
    /// Scale of the underlying normal.
    pub sigma: f64,
}

impl LogNormal {
    /// Creates a log-normal distribution.
    ///
    /// # Panics
    ///
    /// Panics on negative `sigma`.
    pub fn new(mu: f64, sigma: f64) -> LogNormal {
        assert!(sigma >= 0.0, "lognormal sigma must be non-negative");
        LogNormal { mu, sigma }
    }

    /// Log-normal parameterized by its median and the multiplicative
    /// spread `sigma` (in log space).
    pub fn with_median(median: f64, sigma: f64) -> LogNormal {
        assert!(median > 0.0, "lognormal median must be positive");
        LogNormal::new(median.ln(), sigma)
    }

    /// Analytic mean: `exp(mu + sigma² / 2)`.
    pub fn mean(&self) -> f64 {
        (self.mu + self.sigma * self.sigma / 2.0).exp()
    }

    /// Analytic second moment: `exp(2mu + 2sigma²)`.
    pub fn second_moment(&self) -> f64 {
        (2.0 * self.mu + 2.0 * self.sigma * self.sigma).exp()
    }

    /// The value at standard-normal deviate `z`: `exp(mu + sigma z)`.
    pub(crate) fn at(&self, z: f64) -> f64 {
        (self.mu + self.sigma * z).exp()
    }
}

impl Sample for LogNormal {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.at(standard_normal(rng))
    }
}

/// One standard-normal draw via Box–Muller: the cosine half of
/// `standard_normal_pair`'s pair, with the sine half thrown away.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = 1.0 - rng.random::<f64>(); // (0, 1]
    let u2: f64 = rng.random();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Two independent standard-normal draws from one Box–Muller pair:
/// `r cos θ` and `r sin θ` with `r = sqrt(-2 ln u1)`, `θ = 2π u2`. It
/// takes the same two uniforms as [`standard_normal`], and its first
/// value is that function's draw.
pub(crate) fn standard_normal_pair<R: Rng + ?Sized>(rng: &mut R) -> (f64, f64) {
    let u1: f64 = 1.0 - rng.random::<f64>(); // (0, 1]
    let u2: f64 = rng.random();
    let r = (-2.0 * u1.ln()).sqrt();
    let (sin, cos) = (2.0 * std::f64::consts::PI * u2).sin_cos();
    (r * cos, r * sin)
}

/// A body-plus-tail mixture: with probability `tail_prob` draw from the
/// heavy tail, otherwise from the body. This is the §7 usage-integral
/// shape: a log-normal body of "mice" with a bounded-Pareto tail of
/// "hogs".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BodyTail {
    /// Body distribution (the mice).
    pub body: LogNormal,
    /// Tail distribution (the hogs).
    pub tail: BoundedPareto,
    /// Probability of drawing from the tail.
    pub tail_prob: f64,
}

impl BodyTail {
    /// Creates a body-tail mixture.
    ///
    /// # Panics
    ///
    /// Panics when `tail_prob` is outside `[0, 1]`.
    pub fn new(body: LogNormal, tail: BoundedPareto, tail_prob: f64) -> BodyTail {
        assert!(
            (0.0..=1.0).contains(&tail_prob),
            "tail_prob must be a probability"
        );
        BodyTail {
            body,
            tail,
            tail_prob,
        }
    }
}

impl BodyTail {
    /// Analytic mean of the mixture.
    pub fn mean(&self) -> f64 {
        (1.0 - self.tail_prob) * self.body.mean() + self.tail_prob * self.tail.mean()
    }

    /// Analytic second moment of the mixture.
    pub fn second_moment(&self) -> f64 {
        (1.0 - self.tail_prob) * self.body.second_moment()
            + self.tail_prob * self.tail.second_moment()
    }

    /// Analytic variance of the mixture.
    pub fn variance(&self) -> f64 {
        self.second_moment() - self.mean() * self.mean()
    }

    /// Analytic squared coefficient of variation.
    pub fn c_squared(&self) -> f64 {
        let m = self.mean();
        self.variance() / (m * m)
    }
}

impl Sample for BodyTail {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        if rng.random::<f64>() < self.tail_prob {
            self.tail.sample(rng)
        } else {
            self.body.sample(rng)
        }
    }
}

/// A discrete distribution over arbitrary items with relative weights.
#[derive(Debug, Clone, PartialEq)]
pub struct Discrete<T> {
    items: Vec<T>,
    cumulative: Vec<f64>,
}

impl<T: Clone> Discrete<T> {
    /// Creates a discrete distribution from `(item, weight)` pairs.
    ///
    /// # Panics
    ///
    /// Panics on an empty list, a negative weight, or an all-zero total.
    pub fn new(weighted: Vec<(T, f64)>) -> Discrete<T> {
        assert!(!weighted.is_empty(), "discrete distribution needs items");
        let mut items = Vec::with_capacity(weighted.len());
        let mut cumulative = Vec::with_capacity(weighted.len());
        let mut total = 0.0;
        for (item, w) in weighted {
            assert!(w >= 0.0 && w.is_finite(), "weights must be non-negative");
            total += w;
            items.push(item);
            cumulative.push(total);
        }
        assert!(total > 0.0, "total weight must be positive");
        Discrete { items, cumulative }
    }

    /// Draws one item.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> T {
        // lint: library-panic-ok (constructor asserts a non-empty, positive-weight table)
        let total = *self.cumulative.last().expect("non-empty");
        let u = rng.random::<f64>() * total;
        let idx = self.cumulative.partition_point(|&c| c <= u);
        self.items[idx.min(self.items.len() - 1)].clone()
    }

    /// The items.
    pub fn items(&self) -> &[T] {
        &self.items
    }
}

#[cfg(test)]
// Exact equality below asserts deterministically-computed values reproduce
// bit-for-bit; approximate comparison would mask a determinism regression.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xB0_4C)
    }

    fn empirical_mean<D: Sample>(d: &D, n: usize) -> f64 {
        let mut r = rng();
        (0..n).map(|_| d.sample(&mut r)).sum::<f64>() / n as f64
    }

    #[test]
    fn uniform_range_and_mean() {
        let d = Uniform::new(2.0, 4.0);
        let mut r = rng();
        for _ in 0..1000 {
            let x = d.sample(&mut r);
            assert!((2.0..4.0).contains(&x));
        }
        assert!((empirical_mean(&d, 20_000) - 3.0).abs() < 0.02);
    }

    #[test]
    fn exponential_mean() {
        let d = Exponential::with_mean(5.0);
        assert!((empirical_mean(&d, 100_000) - 5.0).abs() < 0.1);
    }

    #[test]
    fn pareto_support_and_tail() {
        let d = Pareto::new(2.0, 1.0);
        let mut r = rng();
        let n = 50_000;
        let mut above_10 = 0;
        for _ in 0..n {
            let x = d.sample(&mut r);
            assert!(x >= 1.0);
            if x > 10.0 {
                above_10 += 1;
            }
        }
        // P(X > 10) = 10^-2 = 1%.
        let frac = above_10 as f64 / n as f64;
        assert!((frac - 0.01).abs() < 0.003, "frac = {frac}");
    }

    #[test]
    fn bounded_pareto_respects_bounds_and_mean() {
        let d = BoundedPareto::new(0.7, 1.0, 10_000.0);
        let mut r = rng();
        for _ in 0..10_000 {
            let x = d.sample(&mut r);
            assert!((1.0..=10_000.0).contains(&x));
        }
        let analytic = d.mean();
        let empirical = empirical_mean(&d, 400_000);
        assert!(
            (empirical - analytic).abs() / analytic < 0.15,
            "analytic {analytic}, empirical {empirical}"
        );
    }

    #[test]
    fn bounded_pareto_alpha_one() {
        let d = BoundedPareto::new(1.0, 1.0, 100.0);
        let analytic = d.mean();
        // For α = 1: mean = ln(hi/lo) / (1 - lo/hi) ≈ 4.605 / 0.99.
        assert!((analytic - 100.0f64.ln() / 0.99).abs() < 1e-9);
        let empirical = empirical_mean(&d, 200_000);
        assert!((empirical - analytic).abs() / analytic < 0.05);
    }

    #[test]
    fn lognormal_median_and_mean() {
        let d = LogNormal::with_median(2.0, 0.5);
        let mut r = rng();
        let mut xs: Vec<f64> = (0..50_000).map(|_| d.sample(&mut r)).collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = xs[xs.len() / 2];
        assert!((median - 2.0).abs() < 0.05, "median = {median}");
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!((mean - d.mean()).abs() / d.mean() < 0.03);
    }

    #[test]
    fn standard_normal_moments() {
        let mut r = rng();
        let n = 100_000;
        let xs: Vec<f64> = (0..n).map(|_| standard_normal(&mut r)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean = {mean}");
        assert!((var - 1.0).abs() < 0.03, "var = {var}");
    }

    #[test]
    fn normal_pair_halves_are_standard_and_uncorrelated() {
        let (mut a, mut b) = (rng(), rng());
        let n = 100_000;
        let pairs: Vec<(f64, f64)> = (0..n)
            .map(|_| {
                let (z1, z2) = standard_normal_pair(&mut a);
                assert_eq!(z1.to_bits(), standard_normal(&mut b).to_bits());
                (z1, z2)
            })
            .collect();
        let nf = n as f64;
        let m1 = pairs.iter().map(|p| p.0).sum::<f64>() / nf;
        let m2 = pairs.iter().map(|p| p.1).sum::<f64>() / nf;
        let v2 = pairs.iter().map(|p| (p.1 - m2).powi(2)).sum::<f64>() / nf;
        let cov = pairs.iter().map(|p| (p.0 - m1) * (p.1 - m2)).sum::<f64>() / nf;
        assert!(m2.abs() < 0.02, "sine-half mean = {m2}");
        assert!((v2 - 1.0).abs() < 0.03, "sine-half var = {v2}");
        assert!(cov.abs() < 0.02, "cov = {cov}");
    }

    #[test]
    fn bounded_pareto_draw_is_its_inverse_cdf() {
        let d = BoundedPareto::new(0.69, 1.0, 1.4e5);
        assert_eq!(d.inverse_cdf(0.0), 1.0);
        let mut r = rng();
        for _ in 0..1000 {
            let u = r.clone().random::<f64>();
            let (alpha, lo, hi) = (0.69f64, 1.0f64, 1.4e5f64);
            let (la, ha) = (lo.powf(-alpha), hi.powf(-alpha));
            // The formula every draw evaluated before the constants moved
            // into `new`.
            let want = (la - u * (la - ha)).powf(-1.0 / alpha);
            assert_eq!(d.sample(&mut r).to_bits(), want.to_bits());
        }
    }

    #[test]
    fn body_tail_mixture_fraction() {
        let d = BodyTail::new(
            LogNormal::with_median(0.001, 1.0),
            BoundedPareto::new(0.7, 1.0, 1e6),
            0.01,
        );
        let mut r = rng();
        let n = 100_000;
        let in_tail = (0..n).filter(|_| d.sample(&mut r) >= 1.0).count();
        let frac = in_tail as f64 / n as f64;
        // Tail draws are all >= 1; a tiny body fraction also exceeds 1.
        assert!(frac > 0.008 && frac < 0.03, "frac = {frac}");
    }

    #[test]
    fn discrete_frequencies() {
        let d = Discrete::new(vec![("a", 1.0), ("b", 3.0)]);
        let mut r = rng();
        let n = 40_000;
        let b = (0..n).filter(|_| d.sample(&mut r) == "b").count();
        let frac = b as f64 / n as f64;
        assert!((frac - 0.75).abs() < 0.02, "frac = {frac}");
    }

    #[test]
    fn discrete_zero_weight_items_never_drawn() {
        let d = Discrete::new(vec![("never", 0.0), ("always", 1.0)]);
        let mut r = rng();
        for _ in 0..1000 {
            assert_eq!(d.sample(&mut r), "always");
        }
    }

    #[test]
    #[should_panic(expected = "total weight")]
    fn discrete_all_zero_panics() {
        Discrete::new(vec![("a", 0.0)]);
    }

    #[test]
    fn bounded_pareto_second_moment_matches_empirical() {
        let d = BoundedPareto::new(1.5, 1.0, 100.0);
        let mut r = rng();
        let n = 400_000;
        let m2: f64 = (0..n)
            .map(|_| {
                let x = d.sample(&mut r);
                x * x
            })
            .sum::<f64>()
            / n as f64;
        let analytic = d.second_moment();
        assert!(
            (m2 - analytic).abs() / analytic < 0.05,
            "emp {m2} vs {analytic}"
        );
    }

    #[test]
    fn body_tail_analytic_moments() {
        let d = BodyTail::new(
            LogNormal::with_median(0.001, 1.0),
            BoundedPareto::new(0.7, 1.0, 1e4),
            0.02,
        );
        assert!(d.mean() > 0.0);
        assert!(d.variance() > 0.0);
        assert!(
            d.c_squared() > 1.0,
            "heavy mixture has C² above exponential"
        );
        // Mixture mean between its components' contributions.
        assert!(d.mean() < d.tail.mean());
    }

    #[test]
    fn determinism_from_seed() {
        let d = Pareto::new(0.69, 1.0);
        let mut r1 = StdRng::seed_from_u64(42);
        let mut r2 = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(d.sample(&mut r1), d.sample(&mut r2));
        }
    }
}
