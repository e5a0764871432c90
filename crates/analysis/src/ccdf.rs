//! Complementary cumulative distribution functions.
//!
//! Nearly every figure in the paper is a CCDF: the fraction of samples with
//! a value *greater than* `x`, plotted either on linear axes (Figs 6, 8–11,
//! 14) or log-log axes (Fig 12). [`Ccdf`] stores the sorted sample and can
//! be evaluated at arbitrary points, emitted as a step series, or resampled
//! on linear/log grids for plotting.
//!
//! It is also the crate's one sorted-sample view. [`Ccdf::from_samples`]
//! is the only place a raw sample is filtered to finite values and sorted
//! (ascending in `total_cmp` order, as integer keys); percentiles, top-k
//! load shares ([`Ccdf::top_share`], [`crate::pareto::TailShare`]), the
//! Pareto regression, Lorenz curves and the Gini coefficient all read it,
//! so a caller that wants several of them sorts once. The paper's Table 2
//! reports medians, 90/99/99.9 percentiles and maxima of the per-job usage
//! integrals; percentiles interpolate linearly between order statistics
//! (the "type 7" estimator used by most statistics packages).

/// An empirical complementary cumulative distribution function.
///
/// # Examples
///
/// ```
/// use borg_analysis::ccdf::Ccdf;
///
/// let c = Ccdf::from_samples([1.0, 2.0, 3.0, 4.0]);
/// assert_eq!(c.eval(0.0), 1.0);   // every sample exceeds 0
/// assert_eq!(c.eval(2.0), 0.5);   // 3 and 4 exceed 2
/// assert_eq!(c.eval(4.0), 0.0);   // nothing exceeds the max
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Ccdf {
    sorted: Vec<f64>,
}

impl Ccdf {
    /// Builds a CCDF from samples; non-finite values are dropped.
    ///
    /// The sort runs on integers: each sample is mapped to the `u64` whose
    /// unsigned order is `total_cmp`'s, the keys are sorted and mapped
    /// back. The map is a bijection, so the result is the `total_cmp`
    /// sort bit for bit (equal keys are equal bit patterns, so an unstable
    /// sort cannot show).
    pub fn from_samples<I: IntoIterator<Item = f64>>(samples: I) -> Self {
        let samples = samples.into_iter();
        let mut keys: Vec<u64> = Vec::new();
        // The filter hides the length from `collect`; the upper hint is
        // exact for a slice. A hint too large to allocate is just ignored.
        let _ = keys.try_reserve_exact(samples.size_hint().1.unwrap_or(0));
        keys.extend(samples.filter(|x| x.is_finite()).map(order_key));
        keys.sort_unstable();
        Ccdf {
            sorted: keys.into_iter().map(from_order_key).collect(),
        }
    }

    /// Number of samples retained.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True when no samples were retained.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// The underlying sorted samples.
    pub fn samples(&self) -> &[f64] {
        &self.sorted
    }

    /// `P(X > x)`: the fraction of samples strictly greater than `x`.
    ///
    /// Returns 0 for an empty CCDF.
    pub fn eval(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        // partition_point returns the count of samples <= x.
        let le = self.sorted.partition_point(|&v| v <= x);
        (self.sorted.len() - le) as f64 / self.sorted.len() as f64
    }

    /// The value exceeded by a `q` fraction of samples (the inverse CCDF),
    /// i.e. the `(1 - q)`-quantile. Returns `None` when empty or `q`
    /// outside `[0, 1]`.
    pub fn quantile_exceeding(&self, q: f64) -> Option<f64> {
        if !(0.0..=1.0).contains(&q) {
            return None;
        }
        self.percentile((1.0 - q) * 100.0)
    }

    /// Median of the samples.
    pub fn median(&self) -> Option<f64> {
        self.percentile(50.0)
    }

    /// The `p`-th percentile (0 ≤ `p` ≤ 100) with linear interpolation
    /// between closest ranks.
    ///
    /// Returns `None` when empty or for a `p` outside `[0, 100]`.
    ///
    /// # Examples
    ///
    /// ```
    /// use borg_analysis::ccdf::Ccdf;
    ///
    /// let c = Ccdf::from_samples([4.0, 1.0, 3.0, 2.0]);
    /// assert_eq!(c.percentile(50.0), Some(2.5));
    /// assert_eq!(c.percentile(100.0), Some(4.0));
    /// ```
    pub fn percentile(&self, p: f64) -> Option<f64> {
        if self.sorted.is_empty() || !(0.0..=100.0).contains(&p) {
            return None;
        }
        Some(percentile_of_sorted(&self.sorted, p))
    }

    /// Several percentiles of the sample; `None` when empty or any
    /// requested percentile is out of range.
    pub fn percentiles(&self, ps: &[f64]) -> Option<Vec<f64>> {
        if self.sorted.is_empty() {
            return None;
        }
        ps.iter().map(|&p| self.percentile(p)).collect()
    }

    /// The fraction of total mass contributed by the top `top_percent`
    /// percent of the largest values.
    ///
    /// This is the paper's "hogs" statistic: in the 2019 trace the top 1% of
    /// jobs account for 99.2% of all NCU-hours (Table 2). A value of `1.0` for
    /// `top_percent` computes exactly that share.
    ///
    /// Returns `None` when empty, on a non-positive total, or for an
    /// out-of-range `top_percent`.
    ///
    /// # Examples
    ///
    /// ```
    /// use borg_analysis::ccdf::Ccdf;
    ///
    /// // One hog of 99 units among 99 mice of ~0.0101 units each.
    /// let mut xs = vec![0.0101; 99];
    /// xs.push(99.0);
    /// let share = Ccdf::from_samples(xs).top_share(1.0).unwrap();
    /// assert!(share > 0.98);
    /// ```
    pub fn top_share(&self, top_percent: f64) -> Option<f64> {
        let n = self.sorted.len();
        if n == 0 || !(0.0..=100.0).contains(&top_percent) {
            return None;
        }
        // Both sums run largest first: float addition is not associative,
        // and small-to-large would round differently.
        let total: f64 = self.sorted.iter().rev().sum();
        if total <= 0.0 {
            return None;
        }
        // At least one job belongs to the top group whenever top_percent > 0.
        let k = ((top_percent / 100.0 * n as f64).round() as usize)
            .max(usize::from(top_percent > 0.0))
            .min(n);
        let top: f64 = self.sorted[n - k..].iter().rev().sum();
        Some(top / total)
    }

    /// The full step series `(x_i, P(X > x_i))`, one point per distinct
    /// sample value, suitable for plotting.
    pub fn steps(&self) -> Vec<(f64, f64)> {
        steps_of_sorted(&self.sorted)
    }

    /// Evaluates the CCDF on `points` evenly spaced values of x between
    /// `lo` and `hi` inclusive.
    pub fn linear_series(&self, lo: f64, hi: f64, points: usize) -> Vec<(f64, f64)> {
        grid_series(self, linear_grid(lo, hi, points))
    }

    /// Evaluates the CCDF on `points` log-spaced values of x between `lo`
    /// and `hi` inclusive; both bounds must be positive.
    pub fn log_series(&self, lo: f64, hi: f64, points: usize) -> Vec<(f64, f64)> {
        grid_series(self, log_grid(lo, hi, points))
    }
}

/// The `u64` whose unsigned order among keys is `total_cmp`'s order among
/// floats: a negative value's bits are all flipped (larger magnitude,
/// smaller key), anything else only gains the top bit (above every
/// negative, order among themselves kept).
fn order_key(x: f64) -> u64 {
    let bits = x.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

/// Inverse of [`order_key`].
fn from_order_key(key: u64) -> f64 {
    f64::from_bits(if key >> 63 == 1 {
        key & !(1 << 63)
    } else {
        !key
    })
}

/// Percentile on an already-sorted, non-empty slice.
///
/// # Panics
///
/// Panics if `sorted` is empty.
fn percentile_of_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of empty slice");
    if sorted.len() == 1 {
        return sorted[0];
    }
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = rank - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// The step series of an ascending slice taken as the whole sample: a
/// window of a [`Ccdf`] is already in order and needs no second sort.
// Exact equality groups runs of identical samples in the sorted array;
// an epsilon would merge distinct values and misplace step points.
#[allow(clippy::float_cmp)]
pub(crate) fn steps_of_sorted(sorted: &[f64]) -> Vec<(f64, f64)> {
    let n = sorted.len();
    let mut out = Vec::new();
    let mut i = 0;
    while i < n {
        let x = sorted[i];
        let mut j = i;
        while j < n && sorted[j] == x {
            j += 1;
        }
        out.push((x, (n - j) as f64 / n as f64));
        i = j;
    }
    out
}

fn grid_series(ccdf: &Ccdf, grid: Vec<f64>) -> Vec<(f64, f64)> {
    grid.into_iter().map(|x| (x, ccdf.eval(x))).collect()
}

/// `points` evenly spaced values covering `[lo, hi]`.
pub fn linear_grid(lo: f64, hi: f64, points: usize) -> Vec<f64> {
    if points == 0 {
        return Vec::new();
    }
    if points == 1 {
        return vec![lo];
    }
    let step = (hi - lo) / (points - 1) as f64;
    (0..points).map(|i| lo + step * i as f64).collect()
}

/// `points` log-spaced values covering `[lo, hi]`; requires `0 < lo <= hi`.
pub fn log_grid(lo: f64, hi: f64, points: usize) -> Vec<f64> {
    assert!(lo > 0.0 && hi >= lo, "log grid requires 0 < lo <= hi");
    if points == 0 {
        return Vec::new();
    }
    if points == 1 {
        return vec![lo];
    }
    let (llo, lhi) = (lo.ln(), hi.ln());
    let step = (lhi - llo) / (points - 1) as f64;
    (0..points).map(|i| (llo + step * i as f64).exp()).collect()
}

#[cfg(test)]
// Exact equality below asserts deterministically-computed values reproduce
// bit-for-bit; approximate comparison would mask a determinism regression.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    #[test]
    fn eval_basics() {
        let c = Ccdf::from_samples([1.0, 2.0, 2.0, 5.0]);
        assert_eq!(c.eval(0.5), 1.0);
        assert_eq!(c.eval(1.0), 0.75);
        assert_eq!(c.eval(2.0), 0.25);
        assert_eq!(c.eval(5.0), 0.0);
        assert_eq!(c.eval(10.0), 0.0);
    }

    #[test]
    fn empty_ccdf() {
        let c = Ccdf::from_samples(std::iter::empty());
        assert!(c.is_empty());
        assert_eq!(c.eval(1.0), 0.0);
        assert_eq!(c.median(), None);
    }

    #[test]
    fn monotone_nonincreasing() {
        let c = Ccdf::from_samples((0..100).map(|i| (i as f64 * 17.0) % 31.0));
        let mut prev = 1.0;
        for (_, p) in c.linear_series(0.0, 31.0, 64) {
            assert!(p <= prev + 1e-12);
            prev = p;
        }
    }

    #[test]
    fn quantile_exceeding_is_inverse() {
        let c = Ccdf::from_samples((1..=100).map(|i| i as f64));
        let x = c.quantile_exceeding(0.1).unwrap();
        // About 10% of samples exceed x.
        let p = c.eval(x);
        assert!((p - 0.1).abs() < 0.02, "p = {p}");
    }

    #[test]
    fn median_works() {
        let c = Ccdf::from_samples([1.0, 2.0, 3.0]);
        assert_eq!(c.median(), Some(2.0));
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let even = Ccdf::from_samples([1.0, 2.0, 3.0, 4.0]);
        assert_eq!(even.percentile(50.0), Some(2.5));
        let odd = Ccdf::from_samples([5.0, 1.0, 3.0]);
        assert_eq!(odd.percentile(50.0), Some(3.0));
        assert_eq!(odd.percentile(0.0), Some(1.0));
        assert_eq!(odd.percentile(100.0), Some(5.0));
        assert_eq!(odd.percentile(-1.0), None);
        assert_eq!(odd.percentile(101.0), None);
        assert_eq!(odd.percentile(f64::NAN), None);
    }

    #[test]
    fn percentiles_match_single_calls() {
        let c = Ccdf::from_samples((0..101).map(f64::from));
        let got = c.percentiles(&[10.0, 50.0, 90.0, 99.0]).unwrap();
        assert_eq!(got, vec![10.0, 50.0, 90.0, 99.0]);
        assert_eq!(c.percentiles(&[50.0, 100.5]), None);
        assert_eq!(c.percentiles(&[]), Some(Vec::new()));
    }

    #[test]
    fn top_share_uniform_is_proportional() {
        let s = Ccdf::from_samples(vec![1.0; 100]).top_share(10.0).unwrap();
        assert!((s - 0.10).abs() < 1e-12);
    }

    #[test]
    fn top_share_hog_dominates() {
        let mut xs = vec![0.001; 999];
        xs.push(1000.0);
        let s = Ccdf::from_samples(xs).top_share(0.1).unwrap();
        assert!(s > 0.999, "share = {s}");
    }

    #[test]
    fn top_share_rejects_degenerate_input() {
        let zeros = Ccdf::from_samples([0.0, 0.0]);
        assert_eq!(zeros.top_share(1.0), None);
        let c = Ccdf::from_samples([1.0, 2.0]);
        assert_eq!(c.top_share(-0.1), None);
        assert_eq!(c.top_share(100.1), None);
        // Zero percent selects nobody; any positive percent at least one.
        assert_eq!(c.top_share(0.0), Some(0.0));
        assert_eq!(c.top_share(1e-9), Some(2.0 / 3.0));
    }

    /// Every method on a sample nothing survives the finite filter of:
    /// empty and all-NaN/±inf inputs behave alike.
    #[test]
    fn nothing_retained() {
        for xs in [
            vec![],
            vec![f64::NAN; 3],
            vec![f64::INFINITY, f64::NEG_INFINITY, f64::NAN],
        ] {
            let c = Ccdf::from_samples(xs);
            assert!(c.is_empty());
            assert_eq!(c.len(), 0);
            assert!(c.samples().is_empty());
            assert_eq!(c.eval(0.0), 0.0);
            assert_eq!(c.quantile_exceeding(0.5), None);
            assert_eq!(c.median(), None);
            assert_eq!(c.percentile(50.0), None);
            assert_eq!(c.percentiles(&[50.0]), None);
            assert_eq!(c.percentiles(&[]), None);
            assert_eq!(c.top_share(1.0), None);
            assert!(c.steps().is_empty());
            assert_eq!(c.linear_series(0.0, 1.0, 2), vec![(0.0, 0.0), (1.0, 0.0)]);
            assert_eq!(c.log_series(1.0, 10.0, 1), vec![(1.0, 0.0)]);
        }
    }

    #[test]
    fn single_sample() {
        let c = Ccdf::from_samples([7.0]);
        assert_eq!(c.len(), 1);
        assert_eq!(c.eval(6.0), 1.0);
        assert_eq!(c.eval(7.0), 0.0);
        assert_eq!(c.quantile_exceeding(0.3), Some(7.0));
        assert_eq!(c.median(), Some(7.0));
        assert_eq!(c.percentile(33.0), Some(7.0));
        assert_eq!(c.percentiles(&[0.0, 100.0]), Some(vec![7.0, 7.0]));
        assert_eq!(c.top_share(1.0), Some(1.0));
        assert_eq!(c.steps(), vec![(7.0, 0.0)]);
    }

    /// Non-finite values are dropped; -0.0 is kept, sorts below +0.0 and
    /// compares equal to it.
    #[test]
    fn non_finite_dropped_negative_zero_kept() {
        let c = Ccdf::from_samples([
            3.0,
            f64::NAN,
            0.0,
            f64::INFINITY,
            -0.0,
            f64::NEG_INFINITY,
            1.0,
        ]);
        let bits: Vec<u64> = c.samples().iter().map(|x| x.to_bits()).collect();
        let want = [-0.0f64, 0.0, 1.0, 3.0].map(f64::to_bits);
        assert_eq!(bits, want);
        assert_eq!(c.eval(-0.0), 0.5);
        assert_eq!(c.median(), Some(0.5));
        assert_eq!(c.percentile(100.0), Some(3.0));
        assert_eq!(c.top_share(25.0), Some(0.75));
        assert_eq!(c.steps(), vec![(-0.0, 0.5), (1.0, 0.25), (3.0, 0.0)]);
    }

    /// The upper size hint only sizes the key vector: one far beyond what
    /// can be allocated must not fail the build.
    #[test]
    fn oversized_size_hint_is_only_a_hint() {
        let samples = (0..u64::MAX).map(|i| i as f64).take_while(|&x| x < 3.0);
        assert_eq!(samples.size_hint().1, Some(usize::MAX));
        assert_eq!(Ccdf::from_samples(samples).samples(), [0.0, 1.0, 2.0]);
    }

    #[test]
    fn steps_deduplicate() {
        let c = Ccdf::from_samples([1.0, 1.0, 2.0]);
        let s = c.steps();
        assert_eq!(s.len(), 2);
        assert_eq!(s[0], (1.0, 1.0 / 3.0));
        assert_eq!(s[1], (2.0, 0.0));
    }

    #[test]
    fn log_grid_spans_decades() {
        let g = log_grid(1e-3, 1e3, 7);
        assert_eq!(g.len(), 7);
        assert!((g[0] - 1e-3).abs() < 1e-12);
        assert!((g[6] - 1e3).abs() / 1e3 < 1e-9);
        assert!((g[3] - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "log grid")]
    fn log_grid_rejects_nonpositive() {
        log_grid(0.0, 1.0, 4);
    }

    #[test]
    fn linear_grid_endpoints() {
        let g = linear_grid(2.0, 10.0, 5);
        assert_eq!(g, vec![2.0, 4.0, 6.0, 8.0, 10.0]);
        assert_eq!(linear_grid(1.0, 2.0, 1), vec![1.0]);
        assert!(linear_grid(1.0, 2.0, 0).is_empty());
    }
}
