//! Pre-aggregated simulation metrics.
//!
//! A month of a real cell produces billions of usage samples; the paper's
//! analyses reduce them to hourly tier aggregates (Figures 2–5), one
//! machine-utilization snapshot (Figure 6), slack samples (Figure 14) and
//! the §5.1 fill. [`SimMetrics`] accumulates exactly those reductions
//! online, because the trace's usage table is thinned
//! (`SimConfig::keep_usage_every`), and it keeps the scheduler internals
//! the trace does not carry: preemptions, stalls, eviction causes and
//! index stats. Everything the event tables determine is counted from
//! them instead: Figure 7 (`borg_trace::count_transitions`), Figures 8–10
//! (`Trace::job_submits_per_hour`, `task_submits_per_hour`,
//! `scheduling_delays`), machine failures and repairs
//! (`Trace::machine_failures`, `machine_repairs`), each collection's
//! evictions, the lost tasks and the §5.1 alloc-set hours
//! (`Trace::collections`) and the capacity every fraction is taken of
//! (`Trace::nominal_capacity`).

use borg_analysis::timeseries::HourBuckets;
use borg_trace::collection::VerticalScalingMode;
use borg_trace::priority::Tier;
use borg_trace::resources::Resources;
use borg_trace::time::{Micros, MICROS_PER_HOUR};
use std::collections::BTreeMap;

/// One peak-slack observation (Figure 14).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlackSample {
    /// Autopilot mode of the owning job.
    pub mode: VerticalScalingMode,
    /// Peak NCU slack in `[0, 1]`.
    pub slack: f64,
}

/// A machine's utilization in the Figure 6 snapshot window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineSnapshot {
    /// CPU usage ÷ capacity.
    pub cpu_utilization: f64,
    /// Memory usage ÷ capacity.
    pub mem_utilization: f64,
}

/// Per-tier hourly usage and allocation series.
#[derive(Debug, Clone, PartialEq)]
pub struct TierSeries {
    /// CPU usage (NCU·time per bucket).
    pub usage_cpu: HourBuckets,
    /// Memory usage.
    pub usage_mem: HourBuckets,
    /// CPU allocation (requested limits of running instances).
    pub alloc_cpu: HourBuckets,
    /// Memory allocation.
    pub alloc_mem: HourBuckets,
}

impl TierSeries {
    fn new(horizon: Micros) -> TierSeries {
        let w = MICROS_PER_HOUR;
        TierSeries {
            usage_cpu: HourBuckets::new(w, horizon.as_micros()),
            usage_mem: HourBuckets::new(w, horizon.as_micros()),
            alloc_cpu: HourBuckets::new(w, horizon.as_micros()),
            alloc_mem: HourBuckets::new(w, horizon.as_micros()),
        }
    }
}

/// Aggregate statistics of average usage ÷ limit, split by alloc-set
/// membership (§5.1: 73% vs 41% memory utilization).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FillStats {
    /// Sum of memory usage/limit ratios.
    pub mem_ratio_sum: f64,
    /// Number of observations.
    pub count: u64,
}

impl FillStats {
    /// Adds one observation.
    pub fn push(&mut self, ratio: f64) {
        if ratio.is_finite() {
            self.mem_ratio_sum += ratio;
            self.count += 1;
        }
    }

    /// Mean ratio.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mem_ratio_sum / self.count as f64
        }
    }
}

/// All metric accumulators for one simulated cell.
#[derive(Debug, Clone, PartialEq)]
pub struct SimMetrics {
    /// Cell name. Stays only because the benchmark's paper workload
    /// names it; the trace carries it as `Trace::cell_name`.
    pub cell_name: String,
    /// Per-tier hourly usage/allocation (Figures 2–5).
    pub tiers: BTreeMap<Tier, TierSeries>,
    /// Job submissions per hour. Figure 8 counts the trace's rows
    /// (`Trace::job_submits_per_hour`); this counter stays only because
    /// the benchmark's SQL battery compares against it.
    pub job_submissions: HourBuckets,
    /// Peak-slack samples (Figure 14), bounded reservoir.
    pub slack: Vec<SlackSample>,
    /// Per-machine utilization at the snapshot window (Figure 6).
    pub machine_snapshots: Vec<MachineSnapshot>,
    /// Memory fill of tasks inside alloc sets (§5.1).
    pub fill_in_alloc: FillStats,
    /// Memory fill of tasks outside alloc sets (§5.1).
    pub fill_outside_alloc: FillStats,
    /// Total task-placement attempts that required preemption.
    pub preemptions: u64,
    /// Placement attempts that found no machine (stalled), by tier.
    pub stalls_by_tier: BTreeMap<Tier, u64>,
    /// Evictions by cause ("maintenance", "overcommit", "preemption",
    /// "alloc_teardown").
    pub evictions_by_cause: BTreeMap<&'static str, u64>,
    /// Placement-index hit/miss/scan counters: how the index, the one
    /// placement path, answered this run's queries.
    pub index: crate::index::IndexStats,
}

/// Cap on stored slack samples (reservoir; deterministic thinning).
const MAX_SLACK_SAMPLES: usize = 400_000;

impl SimMetrics {
    /// Fresh accumulators for a cell.
    pub fn new(cell_name: &str, horizon: Micros, tiers: &[Tier]) -> SimMetrics {
        SimMetrics {
            cell_name: cell_name.to_string(),
            tiers: tiers
                .iter()
                .map(|&t| (t, TierSeries::new(horizon)))
                .collect(),
            job_submissions: HourBuckets::new(MICROS_PER_HOUR, horizon.as_micros()),
            slack: Vec::new(),
            machine_snapshots: Vec::new(),
            fill_in_alloc: FillStats::default(),
            fill_outside_alloc: FillStats::default(),
            preemptions: 0,
            stalls_by_tier: BTreeMap::new(),
            evictions_by_cause: BTreeMap::new(),
            index: crate::index::IndexStats::default(),
        }
    }

    /// Records a usage contribution for a tier over a window.
    pub fn add_usage(&mut self, tier: Tier, start: Micros, end: Micros, usage: Resources) {
        let t = tier_key(tier);
        if let Some(series) = self.tiers.get_mut(&t) {
            HourBuckets::add_interval_pair(
                &mut series.usage_cpu,
                &mut series.usage_mem,
                start.as_micros(),
                end.as_micros(),
                usage.cpu,
                usage.mem,
            );
        }
    }

    /// Records an allocation (limit) contribution for a tier over an
    /// occupancy interval.
    pub fn add_allocation(&mut self, tier: Tier, start: Micros, end: Micros, request: Resources) {
        let t = tier_key(tier);
        if let Some(series) = self.tiers.get_mut(&t) {
            HourBuckets::add_interval_pair(
                &mut series.alloc_cpu,
                &mut series.alloc_mem,
                start.as_micros(),
                end.as_micros(),
                request.cpu,
                request.mem,
            );
        }
    }

    /// Records a slack sample, thinning deterministically once full.
    pub fn add_slack(&mut self, mode: VerticalScalingMode, slack: f64, tick: u64) {
        if self.slack.len() >= MAX_SLACK_SAMPLES {
            // Deterministic 1-in-16 thinning keyed on the tick.
            if !tick.is_multiple_of(16) {
                return;
            }
            let idx = (tick as usize * 2654435761) % MAX_SLACK_SAMPLES;
            self.slack[idx] = SlackSample { mode, slack };
        } else {
            self.slack.push(SlackSample { mode, slack });
        }
    }
}

impl crate::CellOutcome {
    /// The average utilization (fraction of the trace's nominal CPU
    /// capacity) per tier — the Figure 3 bars.
    pub fn average_cpu_util_by_tier(&self) -> BTreeMap<Tier, f64> {
        let cpu = self.trace.nominal_capacity().cpu;
        self.metrics
            .tiers
            .iter()
            .map(|(&t, s)| (t, s.usage_cpu.overall_average_rate() / cpu))
            .collect()
    }

    /// The average allocation (fraction of the trace's nominal CPU
    /// capacity) per tier — the Figure 5 bars.
    pub fn average_cpu_alloc_by_tier(&self) -> BTreeMap<Tier, f64> {
        let cpu = self.trace.nominal_capacity().cpu;
        self.metrics
            .tiers
            .iter()
            .map(|(&t, s)| (t, s.alloc_cpu.overall_average_rate() / cpu))
            .collect()
    }

    /// An "explainable scheduling" report (research direction #1 of §10):
    /// a human-readable account of what the scheduler did and why work
    /// waited — placements (the trace's `Schedule` rows), stalls per tier,
    /// evictions per cause, and preemptions.
    pub fn explain_scheduling(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let (m, t) = (&self.metrics, &self.trace);
        let schedule = borg_trace::state::EventType::Schedule;
        let events = &t.instance_events;
        let placements = events.iter().filter(|e| e.event_type == schedule).count();
        writeln!(out, "scheduling report for cell {}", m.cell_name).ok();
        writeln!(out, "  placements: {placements}").ok();
        writeln!(out, "  preemptions by production work: {}", m.preemptions).ok();
        if m.stalls_by_tier.is_empty() {
            writeln!(out, "  no placement attempt ever failed").ok();
        } else {
            writeln!(
                out,
                "  failed placement attempts (cell full for that request):"
            )
            .ok();
            for (tier, n) in &m.stalls_by_tier {
                writeln!(out, "    {tier:>5}: {n}").ok();
            }
        }
        if m.evictions_by_cause.is_empty() {
            writeln!(out, "  no evictions").ok();
        } else {
            writeln!(out, "  evictions by cause:").ok();
            for (cause, n) in &m.evictions_by_cause {
                writeln!(out, "    {cause:>14}: {n}").ok();
            }
        }
        let collections = t.collections();
        let affected = collections
            .by_id
            .values()
            .filter(|c| c.evictions > 0)
            .count();
        writeln!(out, "  collections touched by eviction: {affected}").ok();
        let failures = t.machine_failures();
        if failures > 0 {
            writeln!(
                out,
                "  machine failures: {failures} ({} repaired in-window, {} tasks lost)",
                t.machine_repairs(),
                collections.tasks_lost
            )
            .ok();
        }
        let ix = &m.index;
        let answered = ix.cache_hits + ix.negative_hits + ix.cache_misses;
        if answered > 0 {
            writeln!(
                out,
                "  placement index: {} hits / {} negative hits / {} misses \
                 ({} machines scored, {} preemption probes)",
                ix.cache_hits,
                ix.negative_hits,
                ix.cache_misses,
                ix.leaves_scanned,
                ix.preempt_probes
            )
            .ok();
        }
        out
    }
}

/// Monitoring folds into production for reporting (§2).
pub fn tier_key(tier: Tier) -> Tier {
    if tier == Tier::Monitoring {
        Tier::Production
    } else {
        tier
    }
}

#[cfg(test)]
// Exact equality below asserts deterministically-computed values reproduce
// bit-for-bit; approximate comparison would mask a determinism regression.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    fn metrics() -> SimMetrics {
        SimMetrics::new("t", Micros::from_hours(2), &Tier::REPORTING)
    }

    /// `m` with a trace of one machine of capacity 10 from time zero.
    fn outcome(metrics: SimMetrics) -> crate::CellOutcome {
        use borg_trace::machine::{MachineEvent, MachineId, Platform};
        use borg_trace::trace::{SchemaVersion, Trace};
        let mut trace = Trace::new("t", SchemaVersion::V3Trace2019, Micros::from_hours(2));
        trace.machine_events.push(MachineEvent::add(
            Micros::ZERO,
            MachineId(0),
            Resources::new(10.0, 10.0),
            Platform(0),
        ));
        crate::CellOutcome {
            trace,
            metrics,
            telemetry: Default::default(),
        }
    }

    #[test]
    fn usage_accumulates_per_tier() {
        let mut m = metrics();
        m.add_usage(
            Tier::Production,
            Micros::ZERO,
            Micros::from_hours(2),
            Resources::new(5.0, 2.0),
        );
        let util = outcome(m).average_cpu_util_by_tier();
        assert!((util[&Tier::Production] - 0.5).abs() < 1e-12);
        assert_eq!(util[&Tier::Free], 0.0);
    }

    #[test]
    fn monitoring_folds_into_production() {
        let mut m = metrics();
        m.add_usage(
            Tier::Monitoring,
            Micros::ZERO,
            Micros::from_hours(2),
            Resources::new(1.0, 1.0),
        );
        assert!(outcome(m).average_cpu_util_by_tier()[&Tier::Production] > 0.0);
    }

    #[test]
    fn allocation_separate_from_usage() {
        let mut m = metrics();
        m.add_allocation(
            Tier::BestEffortBatch,
            Micros::ZERO,
            Micros::from_hours(1),
            Resources::new(4.0, 4.0),
        );
        let o = outcome(m);
        let alloc = o.average_cpu_alloc_by_tier();
        // 4 NCU for 1 of 2 hours = 2 NCU average = 0.2 of capacity.
        assert!((alloc[&Tier::BestEffortBatch] - 0.2).abs() < 1e-12);
        assert_eq!(o.average_cpu_util_by_tier()[&Tier::BestEffortBatch], 0.0);
    }

    #[test]
    fn slack_reservoir_bounded() {
        let mut m = metrics();
        for i in 0..(MAX_SLACK_SAMPLES as u64 + 1000) {
            m.add_slack(VerticalScalingMode::Full, 0.5, i);
        }
        assert!(m.slack.len() <= MAX_SLACK_SAMPLES);
    }

    #[test]
    fn fill_stats_mean() {
        let mut f = FillStats::default();
        f.push(0.4);
        f.push(0.8);
        f.push(f64::NAN);
        assert!((f.mean() - 0.6).abs() < 1e-12);
        assert_eq!(FillStats::default().mean(), 0.0);
    }
}
