//! Figure 14: peak NCU slack by vertical-scaling mode (§8).

use borg_analysis::ccdf::Ccdf;
use borg_analysis::select::{into_finite_keys, percentiles_by_selection};
use borg_sim::CellOutcome;
use borg_trace::collection::VerticalScalingMode;
use std::collections::BTreeMap;

/// Slack CCDFs per autopilot mode, pooled across cells; slack is in
/// percent (0–100) as in the paper's x-axis.
pub fn slack_ccdfs(outcomes: &[&CellOutcome]) -> BTreeMap<VerticalScalingMode, Ccdf> {
    let mut by_mode: BTreeMap<VerticalScalingMode, Vec<f64>> = BTreeMap::new();
    for (mode, slack) in slack_percent(outcomes) {
        by_mode.entry(mode).or_default().push(slack);
    }
    by_mode
        .into_iter()
        .map(|(mode, xs)| (mode, Ccdf::from_samples(xs)))
        .collect()
}

/// Every job's peak slack in percent, with its mode, cell by cell.
fn slack_percent<'a>(
    outcomes: &'a [&CellOutcome],
) -> impl Iterator<Item = (VerticalScalingMode, f64)> + 'a {
    outcomes
        .iter()
        .flat_map(|o| &o.metrics.slack)
        .map(|s| (s.mode, s.slack * 100.0))
}

/// Median slack reduction of fully autoscaled jobs vs manual ones, in
/// percentage points (paper: "more than 25%"). The two medians are
/// [`slack_ccdfs`]' medians, taken by selection.
pub fn full_vs_manual_median_reduction(outcomes: &[&CellOutcome]) -> Option<f64> {
    let median = |mode| {
        let xs = slack_percent(outcomes)
            .filter(|&(m, _)| m == mode)
            .map(|(_, slack)| slack)
            .collect();
        let [median] = percentiles_by_selection(&mut into_finite_keys(xs), [50.0])?;
        Some(median)
    };
    let full = median(VerticalScalingMode::Full)?;
    let off = median(VerticalScalingMode::Off)?;
    Some(off - full)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{simulate_cell, SimScale};
    use borg_workload::cells::CellProfile;
    use std::sync::OnceLock;

    fn outcome() -> &'static CellOutcome {
        static O: OnceLock<CellOutcome> = OnceLock::new();
        O.get_or_init(|| simulate_cell(&CellProfile::cell_2019('a'), SimScale::Tiny, 21))
    }

    #[test]
    fn all_modes_present_in_2019() {
        let ccdfs = slack_ccdfs(&[outcome()]);
        assert_eq!(ccdfs.len(), 3);
    }

    #[test]
    fn full_autoscaling_wins() {
        let reduction = full_vs_manual_median_reduction(&[outcome()]).unwrap();
        assert!(
            reduction > 10.0,
            "median slack reduction = {reduction} points (paper: >25)"
        );
    }

    /// The medians by selection are the CCDFs' medians, bit for bit.
    #[test]
    fn reduction_is_the_ccdfs_median_gap() {
        let ccdfs = slack_ccdfs(&[outcome()]);
        let median = |mode| ccdfs[&mode].median().expect("mode has jobs");
        let want = median(VerticalScalingMode::Off) - median(VerticalScalingMode::Full);
        let got = full_vs_manual_median_reduction(&[outcome()]).expect("both modes ran");
        assert_eq!(got.to_bits(), want.to_bits());
    }

    #[test]
    fn slack_in_percent_range() {
        for ccdf in slack_ccdfs(&[outcome()]).values() {
            for &x in ccdf.samples() {
                assert!((0.0..=100.0).contains(&x));
            }
        }
    }
}
