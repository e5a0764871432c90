//! Figure 10: job scheduling delay.
//!
//! The delay is measured from a job entering the *ready* state (after any
//! batch-queue wait) until its first task is running — deliberately
//! excluding batch queueing (§6.3); the trace's collection rows give both
//! ends (`Trace::scheduling_delays`). The paper finds medians of a few
//! seconds, improved for production since 2011, with a longer tail for
//! best-effort batch and mid-tier jobs because they have more tasks.

use borg_analysis::ccdf::Ccdf;
use borg_sim::CellOutcome;
use borg_trace::priority::Tier;
use std::collections::BTreeMap;

/// One cell's delays in seconds, with their tiers.
fn delays(outcome: &CellOutcome) -> impl Iterator<Item = (Tier, f64)> {
    let delays = outcome.trace.scheduling_delays().into_iter();
    delays.map(|(tier, d)| (tier, d.as_secs_f64()))
}

/// CCDF of per-job scheduling delays (seconds) for one cell.
pub fn delay_ccdf(outcome: &CellOutcome) -> Ccdf {
    Ccdf::from_samples(delays(outcome).map(|(_, d)| d))
}

/// CCDF of delays pooled across cells.
pub fn pooled_delay_ccdf(outcomes: &[&CellOutcome]) -> Ccdf {
    Ccdf::from_samples(outcomes.iter().flat_map(|o| delays(o).map(|(_, d)| d)))
}

/// Per-tier delay CCDFs pooled across cells (Figure 10b).
pub fn delay_ccdfs_by_tier(outcomes: &[&CellOutcome]) -> BTreeMap<Tier, Ccdf> {
    let mut by_tier: BTreeMap<Tier, Vec<f64>> = BTreeMap::new();
    for (tier, d) in outcomes.iter().flat_map(|o| delays(o)) {
        by_tier.entry(tier).or_default().push(d);
    }
    by_tier
        .into_iter()
        .map(|(t, xs)| (t, Ccdf::from_samples(xs)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{simulate_cell, SimScale};
    use borg_workload::cells::CellProfile;
    use std::sync::OnceLock;

    fn outcome() -> &'static borg_sim::CellOutcome {
        static O: OnceLock<borg_sim::CellOutcome> = OnceLock::new();
        O.get_or_init(|| simulate_cell(&CellProfile::cell_2019('f'), SimScale::Tiny, 13))
    }

    #[test]
    fn median_delay_in_seconds() {
        let c = delay_ccdf(outcome());
        let m = c.median().unwrap();
        assert!((0.001..60.0).contains(&m), "median = {m}s");
    }

    #[test]
    fn per_tier_ccdfs_are_present_and_sane() {
        // Tier *ordering* claims (beb's long tail, §6.3) are asserted at
        // realistic scale by the experiment battery; a 2-day mini-cell is
        // too noisy for them. Here: every reporting tier produced delay
        // samples, and no delay is negative.
        let by_tier = delay_ccdfs_by_tier(&[outcome()]);
        for tier in [
            Tier::Free,
            Tier::BestEffortBatch,
            Tier::Mid,
            Tier::Production,
        ] {
            let ccdf = by_tier
                .get(&tier)
                .unwrap_or_else(|| panic!("no delays for {tier}"));
            assert!(!ccdf.is_empty());
            assert!(ccdf.samples().iter().all(|&d| d >= 0.0));
        }
    }

    #[test]
    fn pooled_matches_single() {
        let single = delay_ccdf(outcome());
        let pooled = pooled_delay_ccdf(&[outcome()]);
        assert_eq!(single.len(), pooled.len());
    }
}
