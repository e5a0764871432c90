//! Table 2 and Figure 12: the distribution of per-job usage integrals.
//!
//! Statistical mode (see DESIGN.md): the quantities here — medians, means,
//! variances, percentiles, tail shares, C², and Pareto fits — are
//! computed over samples from the calibrated
//! [`borg_workload::integral::IntegralModel`], which is not
//! constrained by the mini-cell's physical capacity the way a bin-packed
//! simulation is.

use borg_analysis::ccdf::{top_count, Ccdf};
use borg_analysis::moments::Moments;
use borg_analysis::pareto::ParetoFit;
use borg_analysis::select::{from_order_key, into_finite_keys, percentiles_by_selection, Rank};
use borg_query::parallel;
use borg_workload::integral::IntegralModel;
use borg_workload::usage_model::splitmix64;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Mutex, PoisonError};

/// One column of Table 2 (one era × one resource dimension).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Table2Column {
    /// Median resource-hours.
    pub median: f64,
    /// Mean resource-hours.
    pub mean: f64,
    /// Sample variance.
    pub variance: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
    /// 99.9th percentile.
    pub p999: f64,
    /// Largest observed value.
    pub maximum: f64,
    /// Load share of the largest 1% of jobs.
    pub top_1_percent_load: f64,
    /// Load share of the largest 0.1% of jobs.
    pub top_01_percent_load: f64,
    /// Squared coefficient of variation.
    pub c_squared: f64,
    /// Fitted Pareto tail index (jobs with >1 resource-hour, below the
    /// 99.99th percentile, as in the paper).
    pub pareto_alpha: f64,
    /// Goodness of fit of the Pareto regression.
    pub r_squared: f64,
}

/// Computes a Table 2 column from raw per-job integrals.
///
/// The moments accumulate over `xs` in its order, because Welford's
/// update rounds differently in a different order; the ranks are read
/// by [`column_with_moments`], in `xs`'s own buffer.
pub fn column_from_samples(xs: Vec<f64>) -> Option<Table2Column> {
    let m: Moments = xs.iter().copied().collect();
    column_with_moments(xs, &m)
}

/// The lower edge of the Pareto window: jobs above one resource-hour.
const PARETO_X_MIN: f64 = 1.0;

/// A Table 2 column from `xs` and its moments `m`, with no full sort:
/// `xs` becomes its finite values' order keys in place, p50 and p90 are
/// selected, then the top — from the lowest rank that p99 or the top 1%
/// reads, about 1% of the sample — is selected above p90 and sorted, and
/// only the Pareto window `(1, p99.99]` is sorted besides. The top-k
/// loads are summed largest first over the sorted top and divided by the
/// sample-order sum `m` kept.
fn column_with_moments(xs: Vec<f64>, m: &Moments) -> Option<Table2Column> {
    let total = m.sum();
    let mut keys = into_finite_keys(xs);
    let n = keys.len();
    if n == 0 || total <= 0.0 {
        return None;
    }
    let [median, p90] = percentiles_by_selection(&mut keys, [50.0, 90.0])?;
    // The kernel left the keys above p90's rank to its right, and the top
    // starts at or above that rank: p90's rank is at most 0.9·(n − 1),
    // p99's is no lower, and `k1` is at most 0.01·n + 1.
    let settled = Rank::of(90.0, n)?.lo + 1;
    let (k1, k01) = (top_count(1.0, n), top_count(0.1, n));
    let cut = Rank::of(99.0, n)?.lo.min(n - k1);
    debug_assert!(cut + 1 >= settled, "the top starts above p90");
    if cut > settled {
        keys[settled..].select_nth_unstable(cut - settled);
    }
    let (lower, top) = keys.split_at_mut(cut);
    top.sort_unstable();
    let top: Vec<f64> = top.iter().map(|&k| from_order_key(k)).collect();
    let at = |p: f64| {
        let rank = Rank::of(p, n)?;
        let i = rank.lo - cut;
        rank.value(top[i], || top.get(i + 1).copied())
    };
    let x_max = at(99.99)?;
    let load = |k: usize| top[top.len() - k..].iter().rev().sum::<f64>() / total;
    // The window: what lies in it below the top, sorted, then the top's
    // own contiguous run.
    let in_window = |x: f64| x > PARETO_X_MIN && x <= x_max;
    let mut below: Vec<u64> = lower
        .iter()
        .copied()
        .filter(|&k| in_window(from_order_key(k)))
        .collect();
    below.sort_unstable();
    let mut window: Vec<f64> = below.into_iter().map(from_order_key).collect();
    let from = top.partition_point(|&x| x <= PARETO_X_MIN);
    let to = top.partition_point(|&x| x <= x_max);
    window.extend_from_slice(top.get(from..to)?);
    let fit = ParetoFit::fit_window(&window, PARETO_X_MIN, x_max)?;
    Some(Table2Column {
        median,
        mean: m.mean(),
        variance: m.sample_variance(),
        p90,
        p99: at(99.0)?,
        p999: at(99.9)?,
        maximum: m.max(),
        top_1_percent_load: load(k1),
        top_01_percent_load: load(k01),
        c_squared: m.c_squared(),
        pareto_alpha: fit.alpha,
        r_squared: fit.r_squared,
    })
}

/// One era's `(cpu, mem)` columns. The two Welford chains run
/// interleaved in one loop, each one's division hiding the other's.
fn era_columns(cpu: Vec<f64>, mem: Vec<f64>) -> [Option<Table2Column>; 2] {
    let (mut m_cpu, mut m_mem) = (Moments::new(), Moments::new());
    for (&c, &m) in cpu.iter().zip(&mem) {
        m_cpu.push(c);
        m_mem.push(m);
    }
    [
        column_with_moments(cpu, &m_cpu),
        column_with_moments(mem, &m_mem),
    ]
}

/// The full Table 2: `(2011 cpu, 2011 mem, 2019 cpu, 2019 mem)`.
///
/// Each era's sample is drawn chunk by chunk on every core
/// ([`era_samples`]), then the two eras' columns are two items of the
/// same loop. Neither step's bits depend on the thread count.
pub fn table2(samples: usize, seed: u64) -> Option<[Table2Column; 4]> {
    table2_on(parallel::num_threads(), samples, seed)
}

/// [`table2`] on `threads` threads (one: everything on the caller).
fn table2_on(threads: usize, samples: usize, seed: u64) -> Option<[Table2Column; 4]> {
    let eras = [
        era_samples_on(threads, &IntegralModel::model_2011(), samples, seed),
        era_samples_on(
            threads,
            &IntegralModel::model_2019(),
            samples,
            seed ^ 0x5eed,
        ),
    ]
    .map(Mutex::new);
    // Each era is claimed by exactly one worker, which moves its columns
    // out (see `era_samples_on` for why the guard is recovered).
    let cols = parallel::map_items(eras.len(), threads, |i| {
        let mut era = eras[i].lock().unwrap_or_else(PoisonError::into_inner);
        let (cpu, mem) = std::mem::take(&mut *era);
        era_columns(cpu, mem)
    });
    match cols[..] {
        [[Some(cpu11), Some(mem11)], [Some(cpu19), Some(mem19)]] => {
            Some([cpu11, mem11, cpu19, mem19])
        }
        _ => None,
    }
}

/// Draws per chunk of a statistical-mode sample. Chunk `i` of a sample
/// is the jobs `i · CHUNK ..` drawn from their own generator, seeded by
/// `chunk_seed(seed, i)`; the last chunk is cut short.
const CHUNK: usize = 1 << 16;

/// The seed of chunk `chunk` of the sample seeded `seed`: output
/// `chunk + 1` of a SplitMix64 stream started at `seed`. Mixing, rather
/// than `seed ^ chunk`, keeps the chunks' generators from starting in
/// near-identical states (`StdRng::seed_from_u64` seeds its own words
/// with SplitMix64 steps from its seed, so seeds one golden-ratio step
/// apart would share three of four words).
fn chunk_seed(seed: u64, chunk: u64) -> u64 {
    splitmix64(seed.wrapping_add(chunk.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
}

/// Samples `(cpu, mem)` integrals for one era: `samples` jobs from
/// `model`, in fixed chunks of 64 Ki (`CHUNK`) seeded from `(seed, chunk)`,
/// filled in place on every core. The bits are a function of `(model,
/// samples, seed)` alone, and a smaller sample is a prefix of a larger
/// one.
pub fn era_samples(model: &IntegralModel, samples: usize, seed: u64) -> (Vec<f64>, Vec<f64>) {
    era_samples_on(parallel::num_threads(), model, samples, seed)
}

/// [`era_samples`] on `threads` threads.
fn era_samples_on(
    threads: usize,
    model: &IntegralModel,
    samples: usize,
    seed: u64,
) -> (Vec<f64>, Vec<f64>) {
    let mut cpu = vec![0.0; samples];
    let mut mem = vec![0.0; samples];
    // Each chunk is claimed by exactly one worker, so its lock is taken
    // once and never contended: it only hands the two disjoint slices
    // over. No other thread can see it poisoned (a worker's panic
    // re-raises on the caller), and the slices hold plain floats, so the
    // guard is recovered rather than unwrapped.
    let chunks: Vec<Mutex<(&mut [f64], &mut [f64])>> = cpu
        .chunks_mut(CHUNK)
        .zip(mem.chunks_mut(CHUNK))
        .map(Mutex::new)
        .collect();
    parallel::map_items(chunks.len(), threads, |i| {
        let mut slot = chunks[i].lock().unwrap_or_else(PoisonError::into_inner);
        let (cpu, mem) = &mut *slot;
        let mut rng = StdRng::seed_from_u64(chunk_seed(seed, i as u64));
        for (c, m) in cpu.iter_mut().zip(mem.iter_mut()) {
            let job = model.sample(&mut rng);
            *c = job.ncu_hours;
            *m = job.nmu_hours;
        }
    });
    drop(chunks);
    (cpu, mem)
}

/// Figure 12: the log-log CCDF series of resource-hours for one sample
/// set, evaluated on a log grid from 1e-6 to 1e5.
pub fn figure12_series(xs: &[f64], points: usize) -> Vec<(f64, f64)> {
    Ccdf::from_samples(xs.iter().copied()).log_series(1e-6, 1e5, points)
}

/// Renders Table 2.
pub fn render_table2(cols: &[Table2Column; 4]) -> String {
    use crate::report::fmt;
    let row = |name: &str, f: &dyn Fn(&Table2Column) -> f64| {
        let mut r = vec![name.to_string()];
        r.extend(cols.iter().map(|c| fmt(f(c))));
        r
    };
    let rows = vec![
        row("median", &|c| c.median),
        row("mean", &|c| c.mean),
        row("variance", &|c| c.variance),
        row("90%ile", &|c| c.p90),
        row("99%ile", &|c| c.p99),
        row("99.9%ile", &|c| c.p999),
        row("maximum", &|c| c.maximum),
        row("top 1% jobs load", &|c| c.top_1_percent_load),
        row("top 0.1% jobs load", &|c| c.top_01_percent_load),
        row("C^2", &|c| c.c_squared),
        row("Pareto(alpha)", &|c| c.pareto_alpha),
        row("R^2", &|c| c.r_squared),
    ];
    crate::report::render_table(
        &[
            "measure",
            "2011 NCU-h",
            "2011 NMU-h",
            "2019 NCU-h",
            "2019 NMU-h",
        ],
        &rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    fn t2() -> &'static [Table2Column; 4] {
        static T: OnceLock<[Table2Column; 4]> = OnceLock::new();
        T.get_or_init(|| table2(200_000, 42).expect("table 2 computes"))
    }

    #[test]
    fn alphas_match_paper() {
        let [cpu11, _, cpu19, mem19] = t2();
        assert!(
            (cpu11.pareto_alpha - 0.77).abs() < 0.12,
            "2011 α = {}",
            cpu11.pareto_alpha
        );
        assert!(
            (cpu19.pareto_alpha - 0.69).abs() < 0.12,
            "2019 α = {}",
            cpu19.pareto_alpha
        );
        assert!(mem19.r_squared > 0.95);
    }

    #[test]
    fn c_squared_ordering_analytic() {
        // Sample C² estimates are dominated by a handful of extreme hog
        // draws, so the era ordering (2019 ≈ 23k above 2011 ≈ 8.4k) is
        // asserted on the models' closed-form moments.
        use borg_workload::integral::IntegralModel;
        let c19 = IntegralModel::model_2019().cpu.c_squared();
        let c11 = IntegralModel::model_2011().cpu.c_squared();
        assert!(c19 > c11, "2019 C² {c19} vs 2011 {c11}");
        assert!((5_000.0..100_000.0).contains(&c19), "2019 C² = {c19}");
        assert!((2_000.0..40_000.0).contains(&c11), "2011 C² = {c11}");
        // The empirical estimate lands in a broad band around it.
        let [_, _, cpu19, _] = t2();
        assert!(cpu19.c_squared > 1_000.0);
    }

    #[test]
    fn hogs_dominate() {
        let [_, _, cpu19, _] = t2();
        assert!(
            cpu19.top_1_percent_load > 0.97,
            "top 1% = {}",
            cpu19.top_1_percent_load
        );
        assert!(cpu19.top_01_percent_load > 0.8);
    }

    #[test]
    fn means_match_paper_scale() {
        use borg_workload::integral::IntegralModel;
        // Analytic model means sit at the paper's scale...
        let m19 = IntegralModel::model_2019().cpu.mean();
        let m11 = IntegralModel::model_2011().cpu.mean();
        assert!(
            (0.5..2.5).contains(&m19),
            "2019 cpu mean {m19} (paper: 1.19)"
        );
        assert!(
            (1.5..5.0).contains(&m11),
            "2011 cpu mean {m11} (paper: 3.0)"
        );
        assert!(m11 > m19, "2011 dominates 2019 stochastically");
        // ...and the sample estimates land within the hog-driven noise.
        let [cpu11, mem11, cpu19, mem19] = t2();
        assert!(
            (0.2..4.0).contains(&cpu19.mean),
            "2019 cpu sample mean {}",
            cpu19.mean
        );
        assert!(
            (0.8..8.0).contains(&cpu11.mean),
            "2011 cpu sample mean {}",
            cpu11.mean
        );
        assert!((mem11.mean / cpu11.mean) > 0.5);
        assert!(mem19.mean < cpu19.mean);
    }

    #[test]
    fn figure12_series_monotone_loglog() {
        let (cpu, _) = era_samples(&IntegralModel::model_2019(), 50_000, 1);
        let series = figure12_series(&cpu, 40);
        assert_eq!(series.len(), 40);
        let mut prev = f64::INFINITY;
        for &(_, p) in &series {
            assert!(p <= prev + 1e-12);
            prev = p;
        }
    }

    #[test]
    fn column_needs_a_fittable_tail() {
        assert_eq!(column_from_samples(vec![]), None);
        assert_eq!(column_from_samples(vec![3.0]), None);
        assert_eq!(column_from_samples(vec![f64::NAN; 8]), None);
        assert_eq!(
            column_from_samples(vec![f64::INFINITY, f64::NEG_INFINITY, -0.0]),
            None
        );
    }

    #[test]
    fn column_ignores_non_finite_samples() {
        let (clean, _) = era_samples(&IntegralModel::model_2019(), 20_000, 9);
        let mut noisy = clean.clone();
        noisy.insert(5, f64::NAN);
        noisy.insert(1_000, f64::INFINITY);
        noisy.push(f64::NEG_INFINITY);
        let col = column_from_samples(clean).expect("20k samples fit");
        assert_eq!(column_from_samples(noisy), Some(col));
    }

    /// Every field of a column as bits, so a `-0.0` or NaN payload that
    /// `==` would let through shows.
    fn column_bits(c: &Table2Column) -> [u64; 12] {
        [
            c.median,
            c.mean,
            c.variance,
            c.p90,
            c.p99,
            c.p999,
            c.maximum,
            c.top_1_percent_load,
            c.top_01_percent_load,
            c.c_squared,
            c.pareto_alpha,
            c.r_squared,
        ]
        .map(f64::to_bits)
    }

    /// The thread count decides where a chunk or a column is computed,
    /// never what: at 1, 2 and 5 threads (the 30 000-draw sample is one
    /// chunk, the 150 000-draw one three), Table 2 is the four columns
    /// composed by hand from `era_samples`.
    #[test]
    fn worker_count_cannot_reach_the_bits() {
        for (samples, seed) in [(30_000, 11), (150_000, 12)] {
            let (cpu11, mem11) = era_samples(&IntegralModel::model_2011(), samples, seed);
            let (cpu19, mem19) = era_samples(&IntegralModel::model_2019(), samples, seed ^ 0x5eed);
            let want = [cpu11, mem11, cpu19, mem19]
                .map(|xs| column_bits(&column_from_samples(xs).expect("samples fit")));
            for threads in [1, 2, 5] {
                let got = table2_on(threads, samples, seed).expect("table 2 computes");
                let got = got.each_ref().map(column_bits);
                assert_eq!(got, want, "{samples} samples, {threads} threads");
            }
            let public = table2(samples, seed).expect("table 2 computes");
            assert_eq!(public.each_ref().map(column_bits), want);
        }
    }

    /// The sort-based column this file computed before the ranks were
    /// taken by selection: one `Ccdf` read for every order statistic,
    /// the top shares over the largest-first sum of the whole sample.
    fn sorted_column(xs: &[f64]) -> Option<Table2Column> {
        let sample = Ccdf::from_samples(xs.iter().copied());
        let ps = sample.percentiles(&[50.0, 90.0, 99.0, 99.9])?;
        let m: Moments = xs.iter().copied().collect();
        let top_1 = sample.top_share(1.0)?;
        let top_01 = sample.top_share(0.1)?;
        let fit = ParetoFit::fit_ccdf_regression(&sample, 1.0, 99.99)?;
        Some(Table2Column {
            median: ps[0],
            mean: m.mean(),
            variance: m.sample_variance(),
            p90: ps[1],
            p99: ps[2],
            p999: ps[3],
            maximum: m.max(),
            top_1_percent_load: top_1,
            top_01_percent_load: top_01,
            c_squared: m.c_squared(),
            pareto_alpha: fit.alpha,
            r_squared: fit.r_squared,
        })
    }

    /// Every field is the sorted column's, bit for bit, but the two top
    /// shares, whose denominator is now the sample-order sum: within
    /// 1e-12 relative. Both eras and resources at four sizes of each
    /// parity, a column with non-finite values in it, ties on the
    /// window's edges and on the cut, and the small samples where the
    /// top is most of the sample.
    #[test]
    fn selection_column_matches_the_sorted_column() {
        let mut cases: Vec<(String, Vec<f64>)> = Vec::new();
        for (era, model) in [
            ("2011", IntegralModel::model_2011()),
            ("2019", IntegralModel::model_2019()),
        ] {
            for samples in [40_000, 40_001, 150_050, 200_000] {
                let (cpu, mem) = era_samples(&model, samples, 31);
                cases.push((format!("{era} cpu {samples}"), cpu));
                cases.push((format!("{era} mem {samples}"), mem));
            }
        }
        let (mut noisy, _) = era_samples(&IntegralModel::model_2019(), 30_000, 32);
        noisy[7] = f64::NAN;
        noisy[900] = f64::NEG_INFINITY;
        noisy.push(f64::INFINITY);
        cases.push(("non-finite".into(), noisy));
        // Snapped to a grid: runs of equal values at 1.0, across the cut
        // and at the window's top.
        let grid = (0..5_000).map(|i| f64::from((i * 7919) % 4_000) / 8.0);
        cases.push(("grid".into(), grid.collect()));
        let pareto = |n: usize| {
            (1..=n)
                .map(|i| ((i as f64 - 0.5) / n as f64).powf(-1.0 / 0.7))
                .collect::<Vec<f64>>()
        };
        for n in [10, 11, 12, 19, 50, 101, 999] {
            cases.push((format!("pareto {n}"), pareto(n)));
        }
        let mut fitted = 0;
        for (label, xs) in cases {
            let want = sorted_column(&xs);
            let got = column_from_samples(xs);
            let (Some(got), Some(want)) = (got, want) else {
                assert_eq!(got, want, "{label}");
                continue;
            };
            fitted += 1;
            let (mut got_bits, mut want_bits) = (column_bits(&got), column_bits(&want));
            for (g, w) in [
                (got.top_1_percent_load, want.top_1_percent_load),
                (got.top_01_percent_load, want.top_01_percent_load),
            ] {
                assert!(
                    (g - w).abs() <= 1e-12 * w.abs(),
                    "{label}: share {g} vs {w}"
                );
            }
            // The shares are fields 7 and 8.
            for bits in [&mut got_bits, &mut want_bits] {
                bits[7] = 0;
                bits[8] = 0;
            }
            assert_eq!(got_bits, want_bits, "{label}");
        }
        assert!(fitted >= 20, "only {fitted} columns fitted");
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    /// The sizes that sit on and beside a chunk edge.
    const EDGE_COUNTS: [usize; 6] = [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 17];

    /// A sample is the same bits at any thread count, and a smaller
    /// sample is a prefix of a larger one.
    #[test]
    fn era_samples_depend_on_model_count_and_seed_alone() {
        let model = IntegralModel::model_2011();
        let (cpu, mem) = era_samples_on(1, &model, 3 * CHUNK + 17, 3);
        for samples in EDGE_COUNTS {
            for threads in [1, 2, 5] {
                let (c, m) = era_samples_on(threads, &model, samples, 3);
                let at = format!("{samples} samples, {threads} threads");
                assert_eq!(bits(&c), bits(&cpu[..samples]), "cpu, {at}");
                assert_eq!(bits(&m), bits(&mem[..samples]), "mem, {at}");
            }
        }
    }

    /// What defines a sample: chunk `i` is `sample_many` on a generator of
    /// its own, seeded `chunk_seed(seed, i)`.
    #[test]
    fn each_chunk_is_its_own_seeded_stream() {
        let model = IntegralModel::model_2019();
        let (cpu, mem) = era_samples(&model, 2 * CHUNK + 5, 8);
        for (chunk, rows) in [
            (0, 0..CHUNK),
            (1, CHUNK..2 * CHUNK),
            (2, 2 * CHUNK..2 * CHUNK + 5),
        ] {
            let mut rng = StdRng::seed_from_u64(chunk_seed(8, chunk));
            let jobs = model.sample_many(rows.len(), &mut rng);
            let want_cpu: Vec<f64> = jobs.iter().map(|j| j.ncu_hours).collect();
            let want_mem: Vec<f64> = jobs.iter().map(|j| j.nmu_hours).collect();
            assert_eq!(bits(&cpu[rows.clone()]), bits(&want_cpu), "chunk {chunk}");
            assert_eq!(bits(&mem[rows]), bits(&want_mem), "chunk {chunk}");
        }
        assert_ne!(chunk_seed(8, 0), chunk_seed(8, 1));
        assert_ne!(chunk_seed(8, 1), chunk_seed(9, 0));
    }

    /// Two-sample Kolmogorov–Smirnov distance: the largest gap between
    /// the two empirical CDFs.
    fn ks_distance(mut a: Vec<f64>, mut b: Vec<f64>) -> f64 {
        a.sort_unstable_by(f64::total_cmp);
        b.sort_unstable_by(f64::total_cmp);
        let (na, nb) = (a.len() as f64, b.len() as f64);
        let (mut i, mut j, mut d) = (0, 0, 0.0f64);
        while i < a.len() && j < b.len() {
            let x = a[i].min(b[j]);
            while i < a.len() && a[i] <= x {
                i += 1;
            }
            while j < b.len() && b[j] <= x {
                j += 1;
            }
            d = d.max((i as f64 / na - j as f64 / nb).abs());
        }
        d
    }

    /// The paired draw has the law of the draw it replaced: for cpu and
    /// mem in both eras, the KS distance between 200 000 new draws and
    /// 200 000 draws of `cpu.sample` then `mem_ratio.sample` (the old
    /// `IntegralModel::sample`, rebuilt here from the unchanged
    /// `BodyTail` and `LogNormal` samplers) is under the α = 0.001
    /// critical value 1.95·√(2/n).
    #[test]
    fn paired_draw_matches_the_old_draw_in_law() {
        use borg_workload::dist::Sample;
        const N: usize = 200_000;
        let critical = 1.95 * (2.0 / N as f64).sqrt();
        for (era, model) in [
            ("2011", IntegralModel::model_2011()),
            ("2019", IntegralModel::model_2019()),
        ] {
            let (cpu, mem) = era_samples(&model, N, 21);
            let mut rng = StdRng::seed_from_u64(22);
            let (old_cpu, old_mem): (Vec<f64>, Vec<f64>) = (0..N)
                .map(|_| {
                    let ncu = model.cpu.sample(&mut rng);
                    (ncu, ncu * model.mem_ratio.sample(&mut rng))
                })
                .unzip();
            for (what, new, old) in [("cpu", cpu, old_cpu), ("mem", mem, old_mem)] {
                let d = ks_distance(new, old);
                assert!(d < critical, "{era} {what}: D = {d} ≥ {critical}");
            }
        }
    }

    /// A column that cannot be fitted comes back as `None`, not as a
    /// panic re-raised on the caller.
    #[test]
    fn unfittable_sample_is_none_on_every_worker_count() {
        for threads in [1, 2] {
            assert_eq!(table2_on(threads, 1, 42), None, "{threads} threads");
            assert_eq!(table2_on(threads, 0, 42), None, "{threads} threads");
        }
        assert_eq!(table2(1, 42), None);
    }

    #[test]
    fn render_contains_rows() {
        let s = render_table2(t2());
        assert!(s.contains("C^2"));
        assert!(s.contains("Pareto(alpha)"));
    }
}
