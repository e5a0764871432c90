//! Statistical-mode sampler of per-job usage integrals.
//!
//! §7 of the paper characterizes the integral of resource consumption per
//! job (NCU-hours and NMU-hours): a log-normal body of "mice" and a
//! Pareto(α < 1) tail of "hogs" whose top 1% carries ~99% of all load
//! (Table 2, Figure 12). These quantities are invariant to the cell-size
//! scaling the simulator applies, so Table 2 and Figures 12–13 are
//! reproduced from this sampler directly (the "statistical mode" of
//! DESIGN.md) rather than from a bin-packed mini-cell that physically
//! cannot host a 370k NCU-hour job.
//!
//! The preset parameters are solved from the published statistics:
//! medians, 90/99th percentiles, means, variances, tail indices, and
//! maxima of Table 2.

use crate::dist::{standard_normal_pair, BodyTail, BoundedPareto, LogNormal, Sample};
use rand::{Rng, RngExt};

/// One job's lifetime resource consumption.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobIntegral {
    /// CPU consumption in NCU-hours.
    pub ncu_hours: f64,
    /// Memory consumption in NMU-hours.
    pub nmu_hours: f64,
}

/// A generative model of per-job usage integrals with correlated CPU and
/// memory (§7.2: Pearson ≈ 0.97 between bucketed medians).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IntegralModel {
    /// CPU NCU-hours distribution.
    pub cpu: BodyTail,
    /// Memory-to-CPU ratio distribution (`NMU = NCU × ratio`).
    pub mem_ratio: LogNormal,
}

impl IntegralModel {
    /// The 2019 calibration (Table 2, right columns): median 0.05e-3,
    /// mean ≈ 1.2, C² ≈ 2–4 ×10⁴, Pareto α = 0.69, top-1% share ≈ 99%.
    pub fn model_2019() -> IntegralModel {
        IntegralModel {
            cpu: BodyTail::new(
                LogNormal::with_median(0.05e-3, 3.0),
                BoundedPareto::new(0.69, 1.0, 1.4e5),
                0.012,
            ),
            // Memory mean 0.67 vs CPU 1.19 → ratio ≈ 0.56; the spread is
            // kept small enough that Figure 13's bucketed-median
            // correlation stays ≈ 0.97.
            mem_ratio: LogNormal::with_median(0.53, 0.35),
        }
    }

    /// The 2011 calibration (Table 2, left columns): median 0.15e-3,
    /// mean ≈ 3.0, C² ≈ 10⁴, Pareto α = 0.77, top-1% share ≈ 97%.
    pub fn model_2011() -> IntegralModel {
        IntegralModel {
            cpu: BodyTail::new(
                LogNormal::with_median(0.15e-3, 3.0),
                BoundedPareto::new(0.77, 1.0, 1.5e5),
                0.061,
            ),
            // 2011 memory and CPU integrals had equal means.
            mem_ratio: LogNormal::with_median(0.85, 0.5),
        }
    }

    /// Draws one job's integrals from one Box–Muller pair: a uniform
    /// picks body or tail, then the pair's cosine half is the body's
    /// normal and its sine half `mem_ratio`'s, and a tail job draws one
    /// more uniform for its Pareto value. The two halves are independent,
    /// so this is the law of `cpu.sample` and `mem_ratio.sample` drawn one
    /// after the other, at one `ln`, `sqrt` and `sin_cos` a job instead
    /// of two `ln`, `sqrt` and `cos`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> JobIntegral {
        let in_tail = rng.random::<f64>() < self.cpu.tail_prob;
        let (body_z, ratio_z) = standard_normal_pair(rng);
        let ncu = if in_tail {
            self.cpu.tail.sample(rng)
        } else {
            self.cpu.body.at(body_z)
        };
        JobIntegral {
            ncu_hours: ncu,
            nmu_hours: ncu * self.mem_ratio.at(ratio_z),
        }
    }

    /// Draws `n` jobs.
    pub fn sample_many<R: Rng + ?Sized>(&self, n: usize, rng: &mut R) -> Vec<JobIntegral> {
        (0..n).map(|_| self.sample(rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use borg_analysis::moments::Moments;
    use borg_analysis::pareto::ParetoFit;
    use borg_analysis::Ccdf;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const N: usize = 300_000;

    fn cpu_samples(model: &IntegralModel, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        model
            .sample_many(N, &mut rng)
            .iter()
            .map(|j| j.ncu_hours)
            .collect()
    }

    #[test]
    fn cpu_2019_matches_table2_shape() {
        let xs = cpu_samples(&IntegralModel::model_2019(), 1);
        let median = Ccdf::from_samples(xs.iter().copied()).median().unwrap();
        assert!(
            (0.2e-4..2.0e-4).contains(&median),
            "median = {median} (paper: 0.05e-3)"
        );
        let m: Moments = xs.iter().copied().collect();
        assert!(
            (0.5..2.5).contains(&m.mean()),
            "mean = {} (paper: 1.19)",
            m.mean()
        );
        let c2 = m.c_squared();
        assert!(
            (5_000.0..120_000.0).contains(&c2),
            "C² = {c2} (paper: 23312)"
        );
    }

    #[test]
    fn cpu_2019_pareto_tail() {
        let xs = Ccdf::from_samples(cpu_samples(&IntegralModel::model_2019(), 2));
        let fit = ParetoFit::fit_ccdf_regression(&xs, 1.0, 99.99).unwrap();
        assert!(
            (fit.alpha - 0.69).abs() < 0.1,
            "alpha = {} (paper: 0.69)",
            fit.alpha
        );
        assert!(fit.r_squared > 0.97, "R² = {}", fit.r_squared);
    }

    #[test]
    fn cpu_2019_hogs_carry_the_load() {
        let xs = Ccdf::from_samples(cpu_samples(&IntegralModel::model_2019(), 3));
        let top_1 = xs.top_share(1.0).unwrap();
        let top_01 = xs.top_share(0.1).unwrap();
        assert!(top_1 > 0.97, "top 1% share = {top_1} (paper: 0.992)");
        assert!(top_01 > 0.80, "top 0.1% share = {top_01} (paper: 0.931)");
    }

    #[test]
    fn cpu_2011_matches_table2_shape() {
        let xs = cpu_samples(&IntegralModel::model_2011(), 4);
        let m: Moments = xs.iter().copied().collect();
        assert!(
            (1.5..5.0).contains(&m.mean()),
            "mean = {} (paper: 3.0)",
            m.mean()
        );
        let c2 = m.c_squared();
        assert!((3_000.0..30_000.0).contains(&c2), "C² = {c2} (paper: 8375)");
        let fit = ParetoFit::fit_ccdf_regression(&Ccdf::from_samples(xs), 1.0, 99.99).unwrap();
        assert!((fit.alpha - 0.77).abs() < 0.1, "alpha = {}", fit.alpha);
    }

    #[test]
    fn year_2011_stochastically_dominates_2019() {
        // Footnote 1 of the paper: 2011 had higher mean and variance but
        // lower C² — its CCDF lies above 2019's.
        let xs19 = cpu_samples(&IntegralModel::model_2019(), 5);
        let xs11 = cpu_samples(&IntegralModel::model_2011(), 6);
        let m19: Moments = xs19.iter().copied().collect();
        let m11: Moments = xs11.iter().copied().collect();
        assert!(m11.mean() > m19.mean());
        assert!(m11.c_squared() < m19.c_squared());
    }

    /// The bucketed-median Pearson of one 300 000-job sample is a noisy
    /// statistic — the high buckets hold one or two hogs each — and is
    /// 0.9 or below on 3 of seeds 0–39 (seed 7 among them). Its median
    /// over seeds 0–8 is what the model promises.
    #[test]
    fn memory_correlates_with_cpu() {
        let mut rs: Vec<f64> = (0..9)
            .map(|seed| {
                let mut rng = StdRng::seed_from_u64(seed);
                let jobs = IntegralModel::model_2019().sample_many(N, &mut rng);
                let (ncu, nmu): (Vec<f64>, Vec<f64>) =
                    jobs.iter().map(|j| (j.ncu_hours, j.nmu_hours)).unzip();
                let buckets = borg_analysis::correlation::bucketed_medians(&ncu, &nmu, 1.0);
                borg_analysis::correlation::bucketed_median_correlation(&buckets).unwrap()
            })
            .collect();
        rs.sort_by(f64::total_cmp);
        let median = rs[rs.len() / 2];
        assert!(
            median > 0.9,
            "median bucketed-median correlation = {median} over {rs:?} (paper: 0.97)"
        );
    }

    /// The two halves of the paired draw are independent: over 200 000
    /// body jobs (`ncu < 1`; every tail job is ≥ 1), `ln ncu` and
    /// `ln(nmu / ncu)` are uncorrelated (|r| < 0.01, about 4.5 standard
    /// errors), and `ln(nmu / ncu)` has `mem_ratio`'s (μ, σ) within three
    /// standard errors. A ratio that reused the cosine half would make
    /// r = 1.
    #[test]
    fn memory_ratio_is_independent_of_the_body_draw() {
        const BODY: usize = 200_000;
        let model = IntegralModel::model_2019();
        let mut rng = StdRng::seed_from_u64(10);
        let mut logs: Vec<(f64, f64)> = Vec::with_capacity(BODY);
        while logs.len() < BODY {
            let j = model.sample(&mut rng);
            if j.ncu_hours < 1.0 {
                logs.push((j.ncu_hours.ln(), (j.nmu_hours / j.ncu_hours).ln()));
            }
        }
        let r = borg_analysis::correlation::pearson(&logs).unwrap();
        assert!(r.abs() < 0.01, "Pearson(ln ncu, ln ratio) = {r}");
        let m: Moments = logs.iter().map(|&(_, ln_ratio)| ln_ratio).collect();
        let (mean, sd) = (m.mean(), m.sample_variance().sqrt());
        let LogNormal { mu, sigma } = model.mem_ratio;
        let n = BODY as f64;
        let (se_mean, se_sd) = (sigma / n.sqrt(), sigma / (2.0 * n).sqrt());
        assert!((mean - mu).abs() < 3.0 * se_mean, "mean {mean} vs μ {mu}");
        assert!((sd - sigma).abs() < 3.0 * se_sd, "sd {sd} vs σ {sigma}");
    }

    #[test]
    fn memory_mean_below_cpu_in_2019() {
        let mut rng = StdRng::seed_from_u64(8);
        let jobs = IntegralModel::model_2019().sample_many(N, &mut rng);
        let cpu_mean: f64 = jobs.iter().map(|j| j.ncu_hours).sum::<f64>() / N as f64;
        let mem_mean: f64 = jobs.iter().map(|j| j.nmu_hours).sum::<f64>() / N as f64;
        let ratio = mem_mean / cpu_mean;
        assert!(
            (0.4..0.8).contains(&ratio),
            "ratio = {ratio} (paper: 0.67/1.19 = 0.56)"
        );
    }

    #[test]
    fn samples_are_positive_and_bounded() {
        let mut rng = StdRng::seed_from_u64(9);
        for j in IntegralModel::model_2019().sample_many(10_000, &mut rng) {
            assert!(j.ncu_hours > 0.0);
            assert!(j.nmu_hours > 0.0);
            // The bounded tail caps CPU; memory gets ratio noise on top.
            assert!(j.ncu_hours <= 1.4e5 * 1.01);
        }
    }
}
