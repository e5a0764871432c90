//! Test-only reference implementations: the slice-taking order
//! statistics the library had before every one of them moved onto
//! [`borg_analysis::Ccdf`]. Each copies its input, filters it and sorts
//! it on its own, exactly as retired. The bodies are verbatim except
//! that `Lorenz::from_samples`, `TailShare::compute` and
//! `ParetoFit::fit_ccdf_regression` are free functions here (the types
//! stay the library's), and the regression's
//! `Ccdf::from_samples(tail).steps()` is spelled out as [`steps`] so the
//! reference shares no sorting code with the library. One difference in
//! behaviour: an `x_max_percentile` outside `[0, 100]` is not rejected
//! here (above 100 it indexes out of bounds) and is `None` in the
//! library; `differential.rs`, which holds the `Ccdf` forms to these bit
//! for bit, stays in range.
//!
//! [`bucketed_medians`] is the full sort of every bucket the library
//! replaced by selection, body verbatim. It still panics on a
//! non-positive width and wraps the upper edge of the bucket at
//! `i64::MAX`, where the library returns no buckets and adds in floats;
//! the differential cases stay clear of both.

use borg_analysis::correlation::Bucket;
use borg_analysis::lorenz::Lorenz;
use borg_analysis::pareto::{ParetoFit, TailShare};
use borg_analysis::regression::LinearFit;

// ---- percentile.rs ----

/// Computes the `p`-th percentile (0 ≤ `p` ≤ 100) of `xs` with linear
/// interpolation between closest ranks.
///
/// The input slice is copied and sorted internally; call [`percentiles`]
/// when several percentiles of the same data are needed.
///
/// Returns `None` for an empty input or a `p` outside `[0, 100]`.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    let mut sorted: Vec<f64> = xs.iter().copied().filter(|x| x.is_finite()).collect();
    if sorted.is_empty() || !(0.0..=100.0).contains(&p) {
        return None;
    }
    sorted.sort_by(|a, b| a.total_cmp(b));
    Some(percentile_of_sorted(&sorted, p))
}

/// Computes several percentiles of the same data with a single sort.
///
/// Returns `None` if the input is empty or any requested percentile is out
/// of range.
pub fn percentiles(xs: &[f64], ps: &[f64]) -> Option<Vec<f64>> {
    let mut sorted: Vec<f64> = xs.iter().copied().filter(|x| x.is_finite()).collect();
    if sorted.is_empty() || ps.iter().any(|p| !(0.0..=100.0).contains(p)) {
        return None;
    }
    sorted.sort_by(|a, b| a.total_cmp(b));
    Some(
        ps.iter()
            .map(|&p| percentile_of_sorted(&sorted, p))
            .collect(),
    )
}

/// Percentile on an already-sorted, non-empty slice.
///
/// # Panics
///
/// Panics if `sorted` is empty.
pub fn percentile_of_sorted(sorted: &[f64], p: f64) -> f64 {
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

/// The fraction of total mass contributed by the top `top_percent` percent
/// of the largest values.
///
/// This is the paper's "hogs" statistic: in the 2019 trace the top 1% of
/// jobs account for 99.2% of all NCU-hours (Table 2). A value of `1.0` for
/// `top_percent` computes exactly that share.
///
/// Returns `None` on empty input, non-positive totals, or an out-of-range
/// `top_percent`.
pub fn top_share(xs: &[f64], top_percent: f64) -> Option<f64> {
    if xs.is_empty() || !(0.0..=100.0).contains(&top_percent) {
        return None;
    }
    let mut sorted: Vec<f64> = xs.iter().copied().filter(|x| x.is_finite()).collect();
    if sorted.is_empty() {
        return None;
    }
    sorted.sort_by(|a, b| b.total_cmp(a));
    let total: f64 = sorted.iter().sum();
    if total <= 0.0 {
        return None;
    }
    // At least one job belongs to the top group whenever top_percent > 0.
    let k = ((top_percent / 100.0 * sorted.len() as f64).round() as usize)
        .max(usize::from(top_percent > 0.0))
        .min(sorted.len());
    let top: f64 = sorted[..k].iter().sum();
    Some(top / total)
}

// ---- ccdf.rs: `Ccdf::from_samples(tail).steps()` as one function ----

/// The sample `Ccdf::from_samples` keeps, sorted by comparator as it was
/// before the library sorted integer keys.
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut sorted: Vec<f64> = samples.iter().copied().filter(|x| x.is_finite()).collect();
    sorted.sort_by(|a, b| a.total_cmp(b));
    sorted
}

/// The step series `(x_i, P(X > x_i))` of a fresh filter-and-sort of
/// `samples`, one point per distinct value.
#[allow(clippy::float_cmp)]
pub fn steps(samples: &[f64]) -> Vec<(f64, f64)> {
    let mut sorted: Vec<f64> = samples.iter().copied().filter(|x| x.is_finite()).collect();
    sorted.sort_by(|a, b| a.total_cmp(b));
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

// ---- pareto.rs ----

/// `ParetoFit::fit_ccdf_regression` over a raw slice.
pub fn fit_ccdf_regression(
    samples: &[f64],
    x_min: f64,
    x_max_percentile: f64,
) -> Option<ParetoFit> {
    let mut finite: Vec<f64> = samples.iter().copied().filter(|x| x.is_finite()).collect();
    if finite.is_empty() {
        return None;
    }
    finite.sort_by(|a, b| a.total_cmp(b));
    let x_max = percentile_of_sorted(&finite, x_max_percentile);
    let tail: Vec<f64> = finite
        .iter()
        .copied()
        .filter(|&x| x > x_min && x <= x_max)
        .collect();
    if tail.len() < ParetoFit::MIN_TAIL_SAMPLES {
        return None;
    }
    // Regress log P(X > x) on log x at each distinct sample value,
    // skipping the final step where the CCDF reaches exactly zero.
    let points: Vec<(f64, f64)> = steps(&tail)
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
        n_tail: tail.len(),
    })
}

/// `TailShare::compute` over a raw slice.
pub fn tail_share(samples: &[f64]) -> Option<TailShare> {
    Some(TailShare {
        top_1_percent: top_share(samples, 1.0)?,
        top_01_percent: top_share(samples, 0.1)?,
    })
}

// ---- lorenz.rs ----

/// `Lorenz::from_samples` over a raw slice.
pub fn lorenz(xs: &[f64], resolution: usize) -> Option<Lorenz> {
    let mut sorted: Vec<f64> = xs
        .iter()
        .copied()
        .filter(|x| x.is_finite() && *x >= 0.0)
        .collect();
    if sorted.is_empty() || resolution == 0 {
        return None;
    }
    sorted.sort_by(|a, b| a.total_cmp(b));
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

/// `gini` over a raw slice.
pub fn gini(xs: &[f64]) -> Option<f64> {
    let mut sorted: Vec<f64> = xs
        .iter()
        .copied()
        .filter(|x| x.is_finite() && *x >= 0.0)
        .collect();
    if sorted.is_empty() {
        return None;
    }
    sorted.sort_by(|a, b| a.total_cmp(b));
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

// ---- correlation.rs ----

/// `bucketed_medians` with each bucket sorted in full.
pub fn bucketed_medians(pairs: &[(f64, f64)], width: f64) -> Vec<Bucket> {
    assert!(width > 0.0, "bucket width must be positive");
    let mut by_bucket: std::collections::BTreeMap<i64, Vec<f64>> =
        std::collections::BTreeMap::new();
    for &(x, y) in pairs {
        if !x.is_finite() || !y.is_finite() {
            continue;
        }
        let idx = (x / width).floor() as i64;
        by_bucket.entry(idx).or_default().push(y);
    }
    by_bucket
        .into_iter()
        .map(|(idx, mut ys)| {
            ys.sort_by(|a, b| a.total_cmp(b));
            Bucket {
                x_lo: idx as f64 * width,
                x_hi: (idx + 1) as f64 * width,
                median_y: percentile_of_sorted(&ys, 50.0),
                count: ys.len(),
            }
        })
        .collect()
}
