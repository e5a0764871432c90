//! Figure 11: tasks per job by tier, from the calibrated model itself
//! (exact Figure 11 reproduction at any sample size, uncapped). A
//! simulated trace gives each job's count as `CollectionInfo::tasks`,
//! its tail capped by `SimConfig::task_cap`.

use borg_analysis::ccdf::Ccdf;
use borg_trace::priority::Tier;
use borg_workload::jobmix::TaskCountModel;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;

/// Model-based tasks-per-job CCDF for one tier (uncapped).
pub fn model_ccdf(tier: Tier, samples: usize, seed: u64) -> Ccdf {
    let model = TaskCountModel::for_tier(tier);
    let mut rng = StdRng::seed_from_u64(seed);
    Ccdf::from_samples((0..samples).map(|_| f64::from(model.sample(&mut rng))))
}

/// Model-based CCDFs for the four reporting tiers.
pub fn model_ccdfs(samples: usize, seed: u64) -> BTreeMap<Tier, Ccdf> {
    Tier::REPORTING
        .iter()
        .map(|&t| (t, model_ccdf(t, samples, seed ^ t as u64)))
        .collect()
}

#[cfg(test)]
// Exact equality below asserts deterministically-computed values reproduce
// bit-for-bit; approximate comparison would mask a determinism regression.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    #[test]
    fn model_percentiles_match_figure_11() {
        let ccdfs = model_ccdfs(60_000, 3);
        let p = |t: Tier, q: f64| ccdfs[&t].quantile_exceeding(1.0 - q).unwrap();
        // 95th percentiles: 498 (beb), ~67 (mid), ~21 (free), ~3 (prod).
        assert!((250.0..900.0).contains(&p(Tier::BestEffortBatch, 0.95)));
        assert!((30.0..120.0).contains(&p(Tier::Mid, 0.95)));
        assert!((10.0..40.0).contains(&p(Tier::Free, 0.95)));
        assert!((2.0..7.0).contains(&p(Tier::Production, 0.95)));
        // 80th percentile: beb 25 tasks, others 1.
        assert!((12.0..45.0).contains(&p(Tier::BestEffortBatch, 0.80)));
        assert_eq!(p(Tier::Production, 0.80), 1.0);
    }

    #[test]
    fn trace_view_orders_tiers() {
        use crate::pipeline::{simulate_cell, SimScale};
        use borg_trace::collection::CollectionType;
        use borg_workload::cells::CellProfile;
        let o = simulate_cell(&CellProfile::cell_2019('b'), SimScale::Tiny, 14);
        let infos = o.trace.collections().by_id;
        let p95 = |tier: Tier| {
            let jobs = infos.values().filter(|c| {
                c.collection_type == CollectionType::Job
                    && c.tasks > 0
                    && c.priority.reporting_tier() == tier
            });
            let tasks = Ccdf::from_samples(jobs.map(|c| f64::from(c.tasks)));
            tasks.quantile_exceeding(0.05).unwrap()
        };
        let (beb, prod) = (p95(Tier::BestEffortBatch), p95(Tier::Production));
        assert!(beb > prod, "beb p95 {beb} vs prod p95 {prod}");
    }
}
