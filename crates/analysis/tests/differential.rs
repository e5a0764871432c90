//! Differential suite: every order statistic read off a [`Ccdf`]
//! against the slice routine it replaced (kept in `reference/`), bit for
//! bit; the integer-key sort behind the `Ccdf` against the comparator
//! sort, and the bucket medians taken by selection against a full sort of
//! each bucket.
//!
//! Inputs are seeded random samples built to hit what the one
//! filter-and-sort must get right: NaN and ±inf (dropped), `-0.0` beside
//! `0.0` (kept, ordered, equal), negatives (in the sample, out of the
//! Lorenz curve), values snapped to a coarse grid so duplicates land
//! exactly on the Pareto window's edges, heavy tails so float sums depend
//! on their order, and lengths 0 and 1. Two mistakes this suite exists to
//! catch: summing `top_share` smallest-first, and fitting the Pareto
//! window over anything but the sorted sample.

mod reference;

use borg_analysis::ccdf::{linear_grid, log_grid, Ccdf};
use borg_analysis::correlation::{bucketed_medians, Bucket};
use borg_analysis::lorenz::{gini, Lorenz};
use borg_analysis::pareto::{ParetoFit, TailShare};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

const LENGTHS: [usize; 10] = [0, 1, 2, 3, 10, 11, 64, 257, 1000, 5000];
const SEEDS: u64 = 12;

/// One raw sample; `style` picks the mix of magnitudes.
fn raw_sample(len: usize, style: u64, rng: &mut StdRng) -> Vec<f64> {
    (0..len)
        .map(|_| {
            let special = rng.random_range(0.0..1.0);
            if special < 0.03 {
                return [f64::NAN, f64::INFINITY, f64::NEG_INFINITY]
                    [rng.random::<u32>() as usize % 3];
            }
            if special < 0.06 {
                return [-0.0, 0.0][rng.random::<u32>() as usize % 2];
            }
            // Log-uniform over 24 decades around 1: the Table 2 regime.
            let heavy = rng.random_range(-12.0..12.0f64).exp();
            match style % 4 {
                0 => heavy,
                // Snapped to halves: runs of duplicates, many exactly 1.0.
                1 => (heavy.min(40.0) * 2.0).round() / 2.0,
                // A fifth negative.
                2 if rng.random_bool(0.2) => -heavy,
                2 => heavy,
                // Narrow and symmetric around zero, duplicates on a grid.
                _ => (rng.random_range(-3.0..3.0f64) * 4.0).round() / 4.0,
            }
        })
        .collect()
}

/// Every `(label, raw sample)` the suite runs over.
fn samples() -> Vec<(String, Vec<f64>)> {
    let mut out = Vec::new();
    for seed in 0..SEEDS {
        let mut rng = StdRng::seed_from_u64(0xD1FF ^ seed);
        for len in LENGTHS {
            out.push((
                format!("seed {seed} len {len}"),
                raw_sample(len, seed, &mut rng),
            ));
        }
    }
    // Nothing but values the filter drops, and nothing but zeros.
    out.push((
        "all non-finite".into(),
        vec![f64::NAN, f64::INFINITY, f64::NEG_INFINITY],
    ));
    out.push(("signed zeros".into(), vec![0.0, -0.0, -0.0, 0.0]));
    out
}

fn bits(v: Option<f64>) -> Option<u64> {
    v.map(f64::to_bits)
}

fn pair_bits(points: &[(f64, f64)]) -> Vec<(u64, u64)> {
    points
        .iter()
        .map(|&(x, y)| (x.to_bits(), y.to_bits()))
        .collect()
}

/// Samples over the whole of `f64`, for the sort alone (their sums
/// overflow): both signs, signed zeros, subnormals, the largest finite
/// magnitudes, runs of duplicates, and NaNs of either sign with a payload.
fn extreme_samples() -> Vec<(String, Vec<f64>)> {
    let specials = [
        0.0,
        -0.0,
        f64::MIN_POSITIVE,
        -f64::MIN_POSITIVE,
        f64::from_bits(1),
        -f64::from_bits(1),
        f64::from_bits(0x000F_FFFF_FFFF_FFFF),
        f64::MAX,
        f64::MIN,
        1.0,
        -1.0,
        f64::NAN,
        -f64::NAN,
        f64::from_bits(0xFFF8_0000_0000_0001),
        f64::INFINITY,
        f64::NEG_INFINITY,
    ];
    let mut rng = StdRng::seed_from_u64(0x50B7);
    let mut out = vec![("specials".to_string(), specials.to_vec())];
    for len in LENGTHS {
        let xs = (0..len)
            .map(|_| match rng.random::<u32>() % 4 {
                0 => specials[rng.random::<u32>() as usize % specials.len()],
                // Any bit pattern at all: half negative, some non-finite.
                1 => f64::from_bits(rng.random::<u64>()),
                // Subnormals of both signs.
                2 => f64::from_bits(rng.random::<u64>() & 0x800F_FFFF_FFFF_FFFF),
                _ => (rng.random_range(-3.0..3.0f64) * 4.0).round() / 4.0,
            })
            .collect();
        out.push((format!("extreme len {len}"), xs));
    }
    out
}

#[test]
fn sorted_view_is_the_reference_total_cmp_sort() {
    let to_bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
    for (label, xs) in samples().into_iter().chain(extreme_samples()) {
        let c = Ccdf::from_samples(xs.iter().copied());
        let want = reference::sorted(&xs);
        assert_eq!(to_bits(c.samples()), to_bits(&want), "{label}");
        assert_eq!(c.len(), want.len(), "{label}");
        assert_eq!(c.is_empty(), want.is_empty(), "{label}");
    }
}

#[test]
fn percentiles_match_reference() {
    let probes = [0.0, 0.1, 25.0, 50.0, 90.0, 99.0, 99.9, 99.99, 100.0];
    let rejected = [-1.0, 100.5, f64::NAN, f64::INFINITY];
    for (label, xs) in samples() {
        let c = Ccdf::from_samples(xs.iter().copied());
        for p in probes.into_iter().chain(rejected) {
            assert_eq!(
                bits(c.percentile(p)),
                bits(reference::percentile(&xs, p)),
                "{label} p {p}"
            );
        }
        assert_eq!(
            bits(c.median()),
            bits(reference::percentile(&xs, 50.0)),
            "{label}"
        );
        for q in [0.0, 0.001, 0.05, 0.5, 1.0] {
            assert_eq!(
                bits(c.quantile_exceeding(q)),
                bits(reference::percentile(&xs, (1.0 - q) * 100.0)),
                "{label} q {q}"
            );
        }
        assert_eq!(c.quantile_exceeding(-0.1), None, "{label}");
        assert_eq!(c.quantile_exceeding(1.1), None, "{label}");
        for ps in [&probes[..], &[], &[50.0, 101.0], &[f64::NAN]] {
            let got = c
                .percentiles(ps)
                .map(|v| v.into_iter().map(f64::to_bits).collect::<Vec<_>>());
            let want = reference::percentiles(&xs, ps)
                .map(|v| v.into_iter().map(f64::to_bits).collect::<Vec<_>>());
            assert_eq!(got, want, "{label} ps {ps:?}");
        }
    }
}

#[test]
fn top_share_and_tail_share_match_reference() {
    for (label, xs) in samples() {
        let c = Ccdf::from_samples(xs.iter().copied());
        for pct in [
            0.0,
            1e-9,
            0.1,
            1.0,
            10.0,
            50.0,
            100.0,
            -0.5,
            101.0,
            f64::NAN,
        ] {
            assert_eq!(
                bits(c.top_share(pct)),
                bits(reference::top_share(&xs, pct)),
                "{label} top {pct}%"
            );
        }
        let got =
            TailShare::compute(&c).map(|t| (t.top_1_percent.to_bits(), t.top_01_percent.to_bits()));
        let want = reference::tail_share(&xs)
            .map(|t| (t.top_1_percent.to_bits(), t.top_01_percent.to_bits()));
        assert_eq!(got, want, "{label}");
    }
}

#[test]
fn steps_eval_and_series_match_a_fresh_sort() {
    for (label, xs) in samples() {
        let c = Ccdf::from_samples(xs.iter().copied());
        assert_eq!(
            pair_bits(&c.steps()),
            pair_bits(&reference::steps(&xs)),
            "{label}"
        );
        // eval against a count over the raw sample.
        let finite: Vec<f64> = xs.iter().copied().filter(|x| x.is_finite()).collect();
        let naive = |x: f64| {
            if finite.is_empty() {
                0.0
            } else {
                finite.iter().filter(|&&v| v > x).count() as f64 / finite.len() as f64
            }
        };
        for x in [-1e13, -1.0, -0.0, 0.0, 0.5, 1.0, 1.5, 40.0, 1e13] {
            assert_eq!(c.eval(x).to_bits(), naive(x).to_bits(), "{label} eval {x}");
        }
        let lin: Vec<(f64, f64)> = linear_grid(-3.0, 40.0, 23)
            .into_iter()
            .map(|x| (x, naive(x)))
            .collect();
        assert_eq!(
            pair_bits(&c.linear_series(-3.0, 40.0, 23)),
            pair_bits(&lin),
            "{label}"
        );
        let log: Vec<(f64, f64)> = log_grid(1e-6, 1e5, 23)
            .into_iter()
            .map(|x| (x, naive(x)))
            .collect();
        assert_eq!(
            pair_bits(&c.log_series(1e-6, 1e5, 23)),
            pair_bits(&log),
            "{label}"
        );
    }
}

#[test]
fn pareto_regression_matches_reference() {
    let fit_bits = |f: Option<ParetoFit>| {
        f.map(|f| {
            (
                f.alpha.to_bits(),
                f.r_squared.to_bits(),
                f.x_min.to_bits(),
                f.x_max.to_bits(),
                f.n_tail,
            )
        })
    };
    let mut fitted = 0;
    for (label, xs) in samples() {
        let c = Ccdf::from_samples(xs.iter().copied());
        // The paper's window, then windows whose edges sit on duplicates
        // (1.0 and 0.5 are grid points), on the maximum, below every
        // sample, and above it.
        for (x_min, pct) in [
            (1.0, 99.99),
            (0.5, 100.0),
            (1e-3, 90.0),
            (-1.0, 50.0),
            (-1e13, 100.0),
            (1e13, 99.99),
            (1.0, 0.0),
        ] {
            let got = ParetoFit::fit_ccdf_regression(&c, x_min, pct);
            fitted += usize::from(got.is_some());
            assert_eq!(
                fit_bits(got),
                fit_bits(reference::fit_ccdf_regression(&xs, x_min, pct)),
                "{label} window ({x_min}, p{pct}]"
            );
        }
    }
    assert!(fitted > 100, "only {fitted} windows produced a fit");
}

#[test]
fn lorenz_and_gini_match_reference() {
    for (label, xs) in samples() {
        let c = Ccdf::from_samples(xs.iter().copied());
        assert_eq!(bits(gini(&c)), bits(reference::gini(&xs)), "{label}");
        for resolution in [0, 1, 7, 100, 6000] {
            let got = Lorenz::from_ccdf(&c, resolution).map(|l| pair_bits(&l.points));
            let want = reference::lorenz(&xs, resolution).map(|l| pair_bits(&l.points));
            assert_eq!(got, want, "{label} resolution {resolution}");
        }
    }
}

#[test]
fn bucketed_medians_match_the_full_sort() {
    let bucket_bits = |buckets: Vec<Bucket>| {
        buckets
            .into_iter()
            .map(|b| {
                (
                    b.x_lo.to_bits(),
                    b.x_hi.to_bits(),
                    b.median_y.to_bits(),
                    b.count,
                )
            })
            .collect::<Vec<_>>()
    };
    let mut rng = StdRng::seed_from_u64(0xB0C4);
    // One bucket per size, `x` anywhere inside it: the sizes where the
    // middle ranks sit differently, then large ones of each parity.
    let sizes = [1, 2, 3, 4, 5, 8, 9, 64, 65, 1000, 1001];
    for style in 0..4u64 {
        let mut pairs = Vec::new();
        for (bucket, &size) in sizes.iter().enumerate() {
            for _ in 0..size {
                let x = bucket as f64 - 3.0 + rng.random_range(0.0..1.0);
                let y = match style {
                    // Heavy-tailed, as Figure 13's memory integrals.
                    0 => rng.random_range(-12.0..12.0f64).exp(),
                    // All equal.
                    1 => 2.5,
                    // Nothing but signed zeros: the middle ranks straddle
                    // the `-0.0` / `+0.0` boundary.
                    2 => [-0.0, 0.0][rng.random::<u32>() as usize % 2],
                    // Both signs, duplicates on a grid, zeros of both signs.
                    _ => (rng.random_range(-1.0..1.0f64) * 4.0).round() / 4.0,
                };
                pairs.push((x, y));
            }
        }
        for width in [1.0, 0.25, 3.0] {
            assert_eq!(
                bucket_bits(bucketed_medians(&pairs, width)),
                bucket_bits(reference::bucketed_medians(&pairs, width)),
                "style {style} width {width}"
            );
        }
    }
    // The raw samples paired up: non-finite on either side dropped,
    // negative `x`, bucket sizes as they fall.
    for (label, xs) in samples() {
        let pairs: Vec<(f64, f64)> = xs.iter().copied().zip(xs.iter().rev().copied()).collect();
        assert_eq!(
            bucket_bits(bucketed_medians(&pairs, 1.0)),
            bucket_bits(reference::bucketed_medians(&pairs, 1.0)),
            "{label}"
        );
    }
}
