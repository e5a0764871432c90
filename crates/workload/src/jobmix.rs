//! Per-tier job demographics: priorities and tasks-per-job.
//!
//! §6.3 / Figure 11 of the paper show the tasks-per-job distribution by
//! tier: best-effort batch jobs are much wider than the others (80th
//! percentile 25 tasks, 95th percentile 498), mid-tier reaches 67 at the
//! 95th percentile, free 21, and production jobs are mostly single-task
//! (95th percentile 3). Task counts here follow a
//! `1 + bounded-Pareto` model with a point mass at one task, calibrated
//! to those percentiles.

use crate::dist::{BoundedPareto, Discrete, Sample};
use borg_trace::priority::{Priority, Tier};
use rand::{Rng, RngExt};

/// Tasks-per-job sampler: with probability `p_single` the job has exactly
/// one task, otherwise `1 + floor(BoundedPareto(alpha, 1, max_tasks))`.
/// The tail is built once, in [`TaskCountModel::new`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskCountModel {
    /// Probability of a single-task job.
    p_single: f64,
    /// `BoundedPareto(alpha, 1, max_tasks)`.
    tail: BoundedPareto,
    /// Largest task count.
    max_tasks: u32,
}

impl TaskCountModel {
    /// Creates a model: a single task with probability `p_single`,
    /// otherwise a tail of index `alpha` up to `max_tasks`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range parameters.
    pub fn new(p_single: f64, alpha: f64, max_tasks: u32) -> TaskCountModel {
        assert!(
            (0.0..=1.0).contains(&p_single),
            "p_single must be a probability"
        );
        assert!(alpha > 0.0 && max_tasks >= 2, "bad task-count parameters");
        TaskCountModel {
            p_single,
            tail: BoundedPareto::new(alpha, 1.0, f64::from(max_tasks)),
            max_tasks,
        }
    }

    /// The Figure 11 calibration for a tier.
    pub fn for_tier(tier: Tier) -> TaskCountModel {
        match tier {
            // 80%ile 25 tasks, 95%ile ~498 tasks.
            Tier::BestEffortBatch => TaskCountModel::new(0.13, 0.42, 10_000),
            // 80%ile 1 task, 95%ile ~67 tasks.
            Tier::Mid => TaskCountModel::new(0.83, 0.24, 20_000),
            // 80%ile 1 task, 95%ile ~21 tasks.
            Tier::Free => TaskCountModel::new(0.83, 0.35, 5_000),
            // 80%ile 1 task, 95%ile ~3 tasks; production jobs are mostly
            // single replicas plus some wide services.
            Tier::Production | Tier::Monitoring => TaskCountModel::new(0.82, 1.60, 2_000),
        }
    }

    /// The model's mean task count, optionally with samples clipped at
    /// `cap` (matching [`TaskCountModel::sample_capped`] semantics).
    pub fn mean(&self, cap: Option<u32>) -> f64 {
        self.capped_moments(cap).0
    }

    /// `(E[N], E[sqrt(N)])` of the capped model, computed by deterministic
    /// quadrature over the sampler's inverse CDF — used by the simulator's
    /// size calibration, where the Jensen gap between `E[sqrt(N)]` and
    /// `sqrt(E[N])` matters for heavy-tailed tiers.
    pub fn capped_moments(&self, cap: Option<u32>) -> (f64, f64) {
        let cap = cap.unwrap_or(self.max_tasks).min(self.max_tasks).max(1);
        let quantiles = 4000;
        let mut sum = 0.0;
        let mut sum_sqrt = 0.0;
        for i in 0..quantiles {
            let u = (i as f64 + 0.5) / quantiles as f64;
            let n = if u < self.p_single {
                1.0
            } else {
                // Inverse CDF of the bounded Pareto at the rescaled
                // quantile, floored and clipped exactly like the sampler.
                let v = (u - self.p_single) / (1.0 - self.p_single);
                let x = self.tail.inverse_cdf(v);
                (1.0 + x.floor()).min(cap as f64)
            };
            sum += n;
            sum_sqrt += n.sqrt();
        }
        (sum / quantiles as f64, sum_sqrt / quantiles as f64)
    }

    /// Draws a task count (at least 1), optionally capped.
    pub fn sample_capped<R: Rng + ?Sized>(&self, rng: &mut R, cap: Option<u32>) -> u32 {
        let n = self.sample(rng);
        cap.map_or(n, |c| n.min(c.max(1)))
    }

    /// Draws a task count (at least 1).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u32 {
        if rng.random::<f64>() < self.p_single {
            return 1;
        }
        let n = 1 + self.tail.sample(rng).floor() as u32;
        n.min(self.max_tasks)
    }
}

/// Priority sampler per tier, producing raw 2019-style priorities inside
/// the tier's band (§2).
pub fn priority_sampler(tier: Tier) -> Discrete<u16> {
    match tier {
        Tier::Free => Discrete::new(vec![(0, 2.0), (25, 6.0), (50, 1.0), (99, 1.0)]),
        Tier::BestEffortBatch => Discrete::new(vec![
            (110, 1.0),
            (111, 0.5),
            (112, 3.0),
            (113, 0.5),
            (114, 1.0),
            (115, 2.0),
        ]),
        Tier::Mid => Discrete::new(vec![(116, 2.0), (117, 3.0), (118, 1.0), (119, 2.0)]),
        Tier::Production => Discrete::new(vec![
            (120, 1.0),
            (200, 6.0),
            (210, 1.0),
            (300, 1.0),
            (359, 0.5),
        ]),
        Tier::Monitoring => Discrete::new(vec![(360, 3.0), (450, 1.0)]),
    }
}

/// Draws a raw priority for a tier.
pub fn sample_priority<R: Rng + ?Sized>(tier: Tier, rng: &mut R) -> Priority {
    Priority::new(priority_sampler(tier).sample(rng))
}

#[cfg(test)]
// Exact equality below asserts deterministically-computed values reproduce
// bit-for-bit; approximate comparison would mask a determinism regression.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn percentile_of(model: TaskCountModel, p: f64) -> f64 {
        let mut rng = StdRng::seed_from_u64(99);
        let mut xs: Vec<u32> = (0..60_000).map(|_| model.sample(&mut rng)).collect();
        xs.sort_unstable();
        xs[(p / 100.0 * (xs.len() - 1) as f64) as usize] as f64
    }

    #[test]
    fn beb_matches_figure_11() {
        let m = TaskCountModel::for_tier(Tier::BestEffortBatch);
        let p80 = percentile_of(m, 80.0);
        let p95 = percentile_of(m, 95.0);
        assert!((15.0..40.0).contains(&p80), "beb p80 = {p80}");
        assert!((300.0..800.0).contains(&p95), "beb p95 = {p95}");
    }

    #[test]
    fn mid_matches_figure_11() {
        let m = TaskCountModel::for_tier(Tier::Mid);
        assert_eq!(percentile_of(m, 80.0), 1.0, "mid 80%ile is one task");
        let p95 = percentile_of(m, 95.0);
        assert!((40.0..110.0).contains(&p95), "mid p95 = {p95}");
    }

    #[test]
    fn free_matches_figure_11() {
        let p95 = percentile_of(TaskCountModel::for_tier(Tier::Free), 95.0);
        assert!((12.0..35.0).contains(&p95), "free p95 = {p95}");
    }

    #[test]
    fn prod_matches_figure_11() {
        let m = TaskCountModel::for_tier(Tier::Production);
        let p80 = percentile_of(m, 80.0);
        let p95 = percentile_of(m, 95.0);
        assert_eq!(p80, 1.0, "prod jobs are mostly single-task");
        assert!((2.0..6.0).contains(&p95), "prod p95 = {p95}");
    }

    #[test]
    fn ordering_between_tiers() {
        // Figure 11: beb > mid > free > prod in the tail.
        let p95 = |t| percentile_of(TaskCountModel::for_tier(t), 95.0);
        assert!(p95(Tier::BestEffortBatch) > p95(Tier::Mid));
        assert!(p95(Tier::Mid) > p95(Tier::Free));
        assert!(p95(Tier::Free) > p95(Tier::Production));
    }

    #[test]
    fn task_counts_at_least_one_and_capped() {
        let m = TaskCountModel::new(0.0, 0.3, 100);
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..5000 {
            let n = m.sample(&mut rng);
            assert!((1..=100).contains(&n));
        }
    }

    #[test]
    fn mean_matches_empirical() {
        let m = TaskCountModel::for_tier(Tier::Free);
        let mut rng = StdRng::seed_from_u64(11);
        let n = 200_000;
        let emp: f64 = (0..n).map(|_| m.sample(&mut rng) as f64).sum::<f64>() / n as f64;
        let analytic = m.mean(None);
        assert!(
            (emp - analytic).abs() / analytic < 0.1,
            "empirical {emp} vs analytic {analytic}"
        );
    }

    #[test]
    fn capped_sampling_respects_cap() {
        let m = TaskCountModel::for_tier(Tier::BestEffortBatch);
        let mut rng = StdRng::seed_from_u64(12);
        for _ in 0..5000 {
            assert!(m.sample_capped(&mut rng, Some(500)) <= 500);
        }
        assert!(m.mean(Some(500)) < m.mean(None));
    }

    #[test]
    fn priorities_land_in_their_tier() {
        let mut rng = StdRng::seed_from_u64(3);
        for tier in Tier::ALL {
            for _ in 0..500 {
                let p = sample_priority(tier, &mut rng);
                assert_eq!(p.tier(), tier, "priority {p} for {tier}");
            }
        }
    }
}
