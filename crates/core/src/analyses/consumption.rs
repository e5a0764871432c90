//! Table 2 and Figure 12: the distribution of per-job usage integrals.
//!
//! Statistical mode (see DESIGN.md): the quantities here — medians, means,
//! variances, percentiles, tail shares, C², and Pareto fits — are
//! computed over samples from the calibrated
//! [`borg_workload::integral::IntegralModel`], which is not
//! constrained by the mini-cell's physical capacity the way a bin-packed
//! simulation is.

use borg_analysis::ccdf::Ccdf;
use borg_analysis::moments::Moments;
use borg_analysis::pareto::{ParetoFit, TailShare};
use borg_sim::WorkerPool;
use borg_workload::integral::IntegralModel;
use rand::rngs::StdRng;
use rand::SeedableRng;

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
/// The column is sorted once, into the [`Ccdf`] every order statistic
/// reads; the moments accumulate over `xs` as given, because Welford's
/// update rounds differently in a different order.
pub fn column_from_samples(xs: &[f64]) -> Option<Table2Column> {
    let sample = Ccdf::from_samples(xs.iter().copied());
    let ps = sample.percentiles(&[50.0, 90.0, 99.0, 99.9])?;
    let m: Moments = xs.iter().copied().collect();
    let tail = TailShare::compute(&sample)?;
    let fit = ParetoFit::fit_ccdf_regression(&sample, 1.0, 99.99)?;
    Some(Table2Column {
        median: ps[0],
        mean: m.mean(),
        variance: m.sample_variance(),
        p90: ps[1],
        p99: ps[2],
        p999: ps[3],
        maximum: m.max(),
        top_1_percent_load: tail.top_1_percent,
        top_01_percent_load: tail.top_01_percent,
        c_squared: m.c_squared(),
        pareto_alpha: fit.alpha,
        r_squared: fit.r_squared,
    })
}

/// The full Table 2: `(2011 cpu, 2011 mem, 2019 cpu, 2019 mem)`.
///
/// The two eras are independent — their own model, their own seed — and
/// run side by side when the host has a second core. Each is computed by
/// the same sequential code either way, so the table does not depend on
/// where it ran.
pub fn table2(samples: usize, seed: u64) -> Option<[Table2Column; 4]> {
    // The calling thread takes one era; the other wants one worker.
    let par = std::thread::available_parallelism().map_or(1, usize::from);
    table2_on(par.saturating_sub(1).min(1), samples, seed)
}

/// One era of Table 2 moved to a pool worker by value: its sample, then
/// its cpu and mem columns.
fn era_columns_job(
    (model, samples, seed): (IntegralModel, usize, u64),
) -> Option<[Table2Column; 2]> {
    let (cpu, mem) = era_samples(&model, samples, seed);
    Some([column_from_samples(&cpu)?, column_from_samples(&mem)?])
}

/// [`table2`] on a pool of `workers` threads beside the caller (zero:
/// one era after the other on the caller).
fn table2_on(workers: usize, samples: usize, seed: u64) -> Option<[Table2Column; 4]> {
    let mut pool = WorkerPool::new(
        workers,
        era_columns_job as fn((IntegralModel, usize, u64)) -> Option<[Table2Column; 2]>,
    );
    let eras = pool.run_batch(vec![
        (IntegralModel::model_2011(), samples, seed),
        (IntegralModel::model_2019(), samples, seed ^ 0x5eed),
    ]);
    match eras[..] {
        [Some([cpu11, mem11]), Some([cpu19, mem19])] => Some([cpu11, mem11, cpu19, mem19]),
        _ => None,
    }
}

/// Samples `(cpu, mem)` integrals for one era.
pub fn era_samples(model: &IntegralModel, samples: usize, seed: u64) -> (Vec<f64>, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut cpu = Vec::with_capacity(samples);
    let mut mem = Vec::with_capacity(samples);
    for _ in 0..samples {
        let job = model.sample(&mut rng);
        cpu.push(job.ncu_hours);
        mem.push(job.nmu_hours);
    }
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
        assert_eq!(column_from_samples(&[]), None);
        assert_eq!(column_from_samples(&[3.0]), None);
        assert_eq!(column_from_samples(&[f64::NAN; 8]), None);
        assert_eq!(
            column_from_samples(&[f64::INFINITY, f64::NEG_INFINITY, -0.0]),
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
        let col = column_from_samples(&clean).expect("20k samples fit");
        assert_eq!(column_from_samples(&noisy), Some(col));
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

    /// The worker count decides where an era runs, never what it computes:
    /// on the caller alone and with one worker, Table 2 is the four
    /// columns composed by hand from `era_samples`.
    #[test]
    fn worker_count_cannot_reach_the_bits() {
        let (samples, seed) = (30_000, 11);
        let (cpu11, mem11) = era_samples(&IntegralModel::model_2011(), samples, seed);
        let (cpu19, mem19) = era_samples(&IntegralModel::model_2019(), samples, seed ^ 0x5eed);
        let want = [&cpu11, &mem11, &cpu19, &mem19]
            .map(|xs| column_bits(&column_from_samples(xs).expect("30k samples fit")));
        for workers in [0, 1] {
            let got = table2_on(workers, samples, seed).expect("table 2 computes");
            assert_eq!(got.each_ref().map(column_bits), want, "{workers} workers");
        }
        let public = table2(samples, seed).expect("table 2 computes");
        assert_eq!(public.each_ref().map(column_bits), want);
    }

    #[test]
    fn era_samples_split_the_sample_many_stream() {
        let model = IntegralModel::model_2011();
        let jobs = model.sample_many(5_000, &mut StdRng::seed_from_u64(3));
        let (cpu, mem) = era_samples(&model, 5_000, 3);
        let bits = |xs: Vec<f64>| xs.into_iter().map(f64::to_bits).collect::<Vec<_>>();
        assert_eq!(bits(cpu), bits(jobs.iter().map(|j| j.ncu_hours).collect()));
        assert_eq!(bits(mem), bits(jobs.iter().map(|j| j.nmu_hours).collect()));
    }

    /// A column that cannot be fitted comes back across the pool as
    /// `None`, not as a panic re-raised on the caller.
    #[test]
    fn unfittable_sample_is_none_on_every_worker_count() {
        for workers in [0, 1] {
            assert_eq!(table2_on(workers, 1, 42), None, "{workers} workers");
            assert_eq!(table2_on(workers, 0, 42), None, "{workers} workers");
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
