//! Figures 2–5: resource usage and allocation by tier.
//!
//! Figure 2 plots the fraction of cell capacity *used* per hour per tier;
//! Figure 4 plots the fraction *allocated* (requested limits); Figures 3
//! and 5 are the whole-trace averages per cell. All four come straight
//! from the simulator's per-tier hour buckets, normalized by the trace's
//! nominal capacity.

use borg_sim::CellOutcome;
use borg_trace::priority::Tier;
use std::collections::BTreeMap;

/// Which quantity to chart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Quantity {
    /// Observed usage (Figures 2 and 3).
    Usage,
    /// Requested limits (Figures 4 and 5).
    Allocation,
}

/// Which resource dimension to chart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dimension {
    /// Normalized compute units.
    Cpu,
    /// Normalized memory units.
    Memory,
}

/// The hourly series for one cell: per tier, the fraction of cell
/// capacity per hour-long interval.
pub fn hourly_fractions(
    outcome: &CellOutcome,
    q: Quantity,
    d: Dimension,
) -> BTreeMap<Tier, Vec<f64>> {
    let nominal = outcome.trace.nominal_capacity();
    let capacity = match d {
        Dimension::Cpu => nominal.cpu,
        Dimension::Memory => nominal.mem,
    };
    outcome
        .metrics
        .tiers
        .iter()
        .map(|(&tier, series)| {
            let buckets = match (q, d) {
                (Quantity::Usage, Dimension::Cpu) => &series.usage_cpu,
                (Quantity::Usage, Dimension::Memory) => &series.usage_mem,
                (Quantity::Allocation, Dimension::Cpu) => &series.alloc_cpu,
                (Quantity::Allocation, Dimension::Memory) => &series.alloc_mem,
            };
            let fractions = buckets
                .average_rates()
                .into_iter()
                .map(|r| r / capacity)
                .collect();
            (tier, fractions)
        })
        .collect()
}

/// Averages the hourly fractions of several cells element-wise — the
/// "averaged across all 8 cells" panels of Figures 2b/2d/4b/4d.
pub fn averaged_hourly_fractions(
    outcomes: &[CellOutcome],
    q: Quantity,
    d: Dimension,
) -> BTreeMap<Tier, Vec<f64>> {
    let mut acc: BTreeMap<Tier, Vec<f64>> = BTreeMap::new();
    for outcome in outcomes {
        for (tier, series) in hourly_fractions(outcome, q, d) {
            let entry = acc.entry(tier).or_insert_with(|| vec![0.0; series.len()]);
            for (a, v) in entry.iter_mut().zip(&series) {
                *a += v / outcomes.len() as f64;
            }
        }
    }
    acc
}

/// Whole-trace average fraction per tier — one bar group of Figure 3/5.
pub fn average_fractions(outcome: &CellOutcome, q: Quantity, d: Dimension) -> BTreeMap<Tier, f64> {
    hourly_fractions(outcome, q, d)
        .into_iter()
        .map(|(tier, series)| {
            let mean = if series.is_empty() {
                0.0
            } else {
                series.iter().sum::<f64>() / series.len() as f64
            };
            (tier, mean)
        })
        .collect()
}

/// Renders a Figure 3/5-style table: one row per cell, one column per
/// tier plus the total.
pub fn render_per_cell_bars(
    labelled: &[(&str, &CellOutcome)],
    q: Quantity,
    d: Dimension,
) -> String {
    let mut rows = Vec::new();
    for (label, outcome) in labelled {
        let f = average_fractions(outcome, q, d);
        let total: f64 = f.values().sum();
        let cell = |t: Tier| f.get(&t).map_or("-".into(), |v| format!("{v:.3}"));
        rows.push(vec![
            label.to_string(),
            cell(Tier::Free),
            cell(Tier::BestEffortBatch),
            cell(Tier::Mid),
            cell(Tier::Production),
            format!("{total:.3}"),
        ]);
    }
    crate::report::render_table(&["cell", "free", "beb", "mid", "prod", "total"], &rows)
}

/// Diurnal strength and peak hour of a cell's total CPU usage: the
/// 24-hour Fourier component of the summed hourly fractions (§4.1's
/// "diurnal cycle in the loads"; cell g peaks at a shifted hour because
/// it is in Singapore).
pub fn diurnal_cycle(outcome: &CellOutcome) -> Option<(f64, f64)> {
    let per_tier = hourly_fractions(outcome, Quantity::Usage, Dimension::Cpu);
    let hours = per_tier.values().next()?.len();
    let mut total = vec![0.0; hours];
    for series in per_tier.values() {
        for (t, v) in total.iter_mut().zip(series) {
            *t += v;
        }
    }
    borg_analysis::timeseries::periodic_component(&total, 24)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{simulate_cell, SimScale};
    use borg_workload::cells::CellProfile;
    use std::sync::OnceLock;

    fn outcome() -> &'static CellOutcome {
        static O: OnceLock<CellOutcome> = OnceLock::new();
        O.get_or_init(|| simulate_cell(&CellProfile::cell_2019('b'), SimScale::Tiny, 5))
    }

    #[test]
    fn hourly_series_cover_horizon() {
        let f = hourly_fractions(outcome(), Quantity::Usage, Dimension::Cpu);
        let hours = outcome().trace.horizon.as_hours_f64() as usize;
        for series in f.values() {
            assert_eq!(series.len(), hours);
            assert!(series.iter().all(|&v| (0.0..=2.5).contains(&v)));
        }
    }

    #[test]
    fn allocation_above_usage() {
        let u = average_fractions(outcome(), Quantity::Usage, Dimension::Cpu);
        let a = average_fractions(outcome(), Quantity::Allocation, Dimension::Cpu);
        let ut: f64 = u.values().sum();
        let at: f64 = a.values().sum();
        assert!(at > ut, "allocation {at} vs usage {ut}");
    }

    #[test]
    fn beb_dominates_cell_b() {
        // Cell b is the beb-heaviest cell (Figure 3).
        let u = average_fractions(outcome(), Quantity::Usage, Dimension::Cpu);
        assert!(u[&Tier::BestEffortBatch] > u[&Tier::Free]);
    }

    #[test]
    fn averaging_two_copies_is_identity() {
        let one = hourly_fractions(outcome(), Quantity::Usage, Dimension::Cpu);
        let outcomes = vec![simulate_cell(
            &CellProfile::cell_2019('b'),
            SimScale::Tiny,
            5,
        )];
        let avg = averaged_hourly_fractions(&outcomes, Quantity::Usage, Dimension::Cpu);
        for (tier, series) in &one {
            for (a, b) in series.iter().zip(&avg[tier]) {
                assert!((a - b).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn diurnal_cycle_visible_and_cell_g_shifted() {
        let (s, phase_b) = diurnal_cycle(outcome()).expect("cycle computes");
        assert!(s > 0.02, "diurnal strength = {s}");
        assert!((0.0..24.0).contains(&phase_b));
        // Cell g (Singapore) peaks at a different wall-clock hour.
        let g = simulate_cell(&CellProfile::cell_2019('g'), SimScale::Tiny, 5);
        let (_, phase_g) = diurnal_cycle(&g).expect("cycle computes");
        let shift = (phase_g - phase_b)
            .rem_euclid(24.0)
            .min((phase_b - phase_g).rem_euclid(24.0));
        assert!(shift > 2.0, "cell g phase shift = {shift}h");
    }

    #[test]
    fn render_has_all_columns() {
        let s = render_per_cell_bars(&[("b", outcome())], Quantity::Usage, Dimension::Cpu);
        assert!(s.contains("prod"));
        assert!(s.contains("total"));
    }
}
