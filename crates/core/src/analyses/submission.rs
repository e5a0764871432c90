//! Figures 8 and 9: job and task submission rates.
//!
//! Figure 8 is the CCDF of jobs submitted per hour per cell (median
//! 885/hour in 2011 vs 3309 in 2019, a 3.7× growth). Figure 9 is the
//! CCDF of task submissions per hour, for new tasks and for all tasks
//! including rescheduled ones; the reschedule:new ratio grew from 0.66:1
//! to 2.26:1. Both count the trace's `Submit` rows
//! (`Trace::job_submits_per_hour`, `Trace::task_submits_per_hour`).

use borg_analysis::ccdf::Ccdf;
use borg_sim::CellOutcome;

/// Hourly counts rescaled to full-cell rates (counts ÷ scale).
fn rates(hours: &[u64], scale: f64) -> Ccdf {
    Ccdf::from_samples(hours.iter().map(|&c| c as f64 / scale))
}

/// CCDF of hourly job-submission counts for one cell, rescaled to
/// full-cell rates (counts ÷ scale) so eras with different simulation
/// scales compare directly.
pub fn job_rate_ccdf(outcome: &CellOutcome, scale: f64) -> Ccdf {
    rates(&outcome.trace.job_submits_per_hour(), scale)
}

/// CCDF of hourly job submissions aggregated across cells (each hour's
/// counts from all cells averaged, as the paper's "2019 - aggregate").
pub fn aggregate_job_rate_ccdf(outcomes: &[CellOutcome], scale: f64) -> Ccdf {
    // The first cell's hours size the average.
    let mut avg: Option<Vec<f64>> = None;
    for o in outcomes {
        let hours = o.trace.job_submits_per_hour();
        let avg = avg.get_or_insert_with(|| vec![0.0; hours.len()]);
        for (a, c) in avg.iter_mut().zip(hours) {
            *a += c as f64 / (scale * outcomes.len() as f64);
        }
    }
    Ccdf::from_samples(avg.unwrap_or_default())
}

/// Task-rate CCDFs `(new, all)` for one cell, rescaled by `scale`.
pub fn task_rate_ccdfs(outcome: &CellOutcome, scale: f64) -> (Ccdf, Ccdf) {
    let (new, all) = outcome.trace.task_submits_per_hour();
    (rates(&new, scale), rates(&all, scale))
}

/// The reschedule churn ratio: `(all − new) / new` over the whole trace
/// (paper: 0.66 in 2011, 2.26 in 2019).
pub fn churn_ratio(outcome: &CellOutcome) -> f64 {
    let (new, all) = outcome.trace.task_submits_per_hour();
    let new = new.iter().sum::<u64>() as f64;
    let all = all.iter().sum::<u64>() as f64;
    if new == 0.0 {
        0.0
    } else {
        (all - new) / new
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{simulate_2011, simulate_cell, SimScale};
    use borg_workload::cells::CellProfile;
    use std::sync::OnceLock;

    fn outcomes() -> &'static (borg_sim::CellOutcome, borg_sim::CellOutcome) {
        static O: OnceLock<(borg_sim::CellOutcome, borg_sim::CellOutcome)> = OnceLock::new();
        O.get_or_init(|| {
            (
                simulate_2011(SimScale::Tiny, 11),
                simulate_cell(&CellProfile::cell_2019('e'), SimScale::Tiny, 11),
            )
        })
    }

    #[test]
    fn job_rate_grew_between_eras() {
        let (y2011, y2019) = outcomes();
        let scale = SimScale::Tiny.config(0).scale;
        let m11 = job_rate_ccdf(y2011, scale).median().unwrap();
        let m19 = job_rate_ccdf(y2019, scale).median().unwrap();
        let growth = m19 / m11;
        // Paper: 3.7× median growth. Small scale + resident churn gives a
        // broad band.
        assert!(
            (1.5..8.0).contains(&growth),
            "median growth = {growth} ({m11} → {m19})"
        );
    }

    #[test]
    fn all_tasks_dominate_new_tasks() {
        let (_, y2019) = outcomes();
        let (new, all) = task_rate_ccdfs(y2019, 1.0);
        assert!(all.median().unwrap() >= new.median().unwrap());
        assert!(churn_ratio(y2019) > 0.0);
    }

    #[test]
    fn churn_higher_in_2019() {
        let (y2011, y2019) = outcomes();
        // Paper: 0.66 (2011) vs 2.26 (2019); directionally 2019 > 2011.
        assert!(
            churn_ratio(y2019) > churn_ratio(y2011),
            "2019 churn {} vs 2011 {}",
            churn_ratio(y2019),
            churn_ratio(y2011)
        );
    }

    #[test]
    fn aggregate_ccdf_smooths() {
        let (_, y2019) = outcomes();
        let agg = aggregate_job_rate_ccdf(std::slice::from_ref(y2019), 1.0);
        assert_eq!(agg.len(), y2019.trace.job_submits_per_hour().len());
        assert!(aggregate_job_rate_ccdf(&[], 1.0).is_empty());
    }
}
