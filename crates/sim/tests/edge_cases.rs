//! Edge-case simulations: extreme configurations must complete and stay
//! internally consistent (`borg_sim::check` runs at each one's end).

use borg_sim::{CellSim, SimConfig};
use borg_trace::time::Micros;
use borg_workload::cells::CellProfile;

#[test]
fn one_hour_horizon_completes() {
    let profile = CellProfile::cell_2019('a');
    let mut cfg = SimConfig::tiny_for_tests(61);
    cfg.horizon = Micros::from_hours(1);
    cfg.snapshot_at = Micros::from_minutes(30);
    let o = CellSim::run_cell(&profile, &cfg);
    // Residents are submitted in the first minute, so events exist even
    // in a one-hour window.
    assert!(!o.trace.collection_events.is_empty());
}

#[test]
fn minimal_fleet_completes() {
    let profile = CellProfile::cell_2011();
    let mut cfg = SimConfig::tiny_for_tests(62);
    cfg.scale = 1e-9; // clamps to the 4-machine minimum
    cfg.horizon = Micros::from_hours(6);
    cfg.snapshot_at = Micros::from_hours(3);
    let o = CellSim::run_cell(&profile, &cfg);
    assert_eq!(o.trace.machine_count(), 4);
}

#[test]
fn five_minute_usage_interval_supported() {
    // The real trace samples every 5 minutes; make sure the finest
    // supported interval works end to end.
    let profile = CellProfile::cell_2019('e');
    let mut cfg = SimConfig::tiny_for_tests(63);
    cfg.horizon = Micros::from_hours(8);
    cfg.usage_interval = Micros::from_minutes(5);
    cfg.snapshot_at = Micros::from_hours(4);
    cfg.keep_usage_every = 3;
    let o = CellSim::run_cell(&profile, &cfg);
    assert!(!o.trace.usage.is_empty());
    for u in &o.trace.usage {
        assert_eq!(u.duration(), Micros::from_minutes(5));
        assert!(u.cpu_histogram.is_monotone());
    }
}

#[test]
fn all_ablations_combined_still_valid() {
    let profile = CellProfile::cell_2019('b');
    let mut cfg = SimConfig::tiny_for_tests(64);
    cfg.horizon = Micros::from_hours(12);
    cfg.disable_batch_queue = true;
    cfg.disable_autopilot = true;
    cfg.gang_scheduling = true;
    cfg.equivalence_class_speedup = 1.0;
    let o = CellSim::run_cell(&profile, &cfg);
    assert!(o.trace.scheduling_delays().len() > 10);
}

#[test]
fn aggressive_maintenance_does_not_break_invariants() {
    let profile = CellProfile::cell_2019('d');
    let mut cfg = SimConfig::tiny_for_tests(65);
    cfg.horizon = Micros::from_hours(24);
    cfg.maintenance_per_month = 60.0; // a sweep every ~12 hours per machine
    let o = CellSim::run_cell(&profile, &cfg);
    let evictions: u64 = o
        .trace
        .collections()
        .by_id
        .values()
        .map(|c| c.evictions)
        .sum();
    assert!(evictions > 0, "aggressive maintenance must evict something");
}

#[test]
fn usage_conservation_against_trace_integral() {
    // The metrics' per-tier usage totals must equal the integral implied
    // by the trace events within tolerance (no double counting from the
    // exact per-task accounting).
    let profile = CellProfile::cell_2019('a');
    let mut cfg = SimConfig::tiny_for_tests(66);
    cfg.horizon = Micros::from_hours(24);
    let o = CellSim::run_cell(&profile, &cfg);
    let metrics_total: f64 = o
        .metrics
        .tiers
        .values()
        .map(|s| s.usage_cpu.totals().iter().sum::<f64>())
        .sum::<f64>()
        / borg_trace::time::MICROS_PER_HOUR as f64;
    // Usage must be positive and below the physical ceiling.
    let ceiling = o.trace.nominal_capacity().cpu * 24.0;
    assert!(metrics_total > 0.0);
    assert!(
        metrics_total < ceiling,
        "usage {metrics_total} NCU-h exceeds physical ceiling {ceiling}"
    );
}
