//! Telemetry determinism contracts (DESIGN.md §12).
//!
//! The deterministic plane is a pure function of (seed, config): two
//! runs give byte-identical snapshots, and since it only records *what*
//! the simulation did — never how the engine did it — its bytes are
//! pinned per configuration in `crates/sim/tests/golden.rs` to what the
//! naive scan recorded. Engine-plane counters (index hit/miss)
//! legitimately differ across shard counts and are only stable per
//! config. Disabled telemetry produces an empty snapshot and never
//! perturbs the simulated trace.

use borg_sim::{CellSim, SimConfig};
use borg_telemetry::{chrome_trace_json, validate_json, Plane};
use borg_workload::cells::CellProfile;

fn cfg(seed: u64, telemetry: bool) -> SimConfig {
    SimConfig {
        telemetry,
        ..SimConfig::tiny_for_tests(seed)
    }
}

#[test]
fn deterministic_plane_is_byte_identical_across_runs() {
    let profile = CellProfile::cell_2019('a');
    let a = CellSim::run_cell(&profile, &cfg(7, true)).telemetry;
    let b = CellSim::run_cell(&profile, &cfg(7, true)).telemetry;
    assert!(!a.deterministic_bytes().is_empty());
    assert_eq!(a.deterministic_bytes(), b.deterministic_bytes());
    // Same config ⇒ even the engine plane repeats byte-for-byte.
    assert_eq!(
        a.config_deterministic_bytes(),
        b.config_deterministic_bytes()
    );
}

#[test]
fn disabled_telemetry_is_empty_and_does_not_perturb_the_trace() {
    let profile = CellProfile::cell_2019('a');
    let off = CellSim::run_cell(&profile, &cfg(7, false));
    let on = CellSim::run_cell(&profile, &cfg(7, true));
    assert!(off.telemetry.is_empty());
    assert!(off.telemetry.deterministic_bytes().is_empty());
    assert!(!on.telemetry.is_empty());
    assert_eq!(
        off.trace.instance_events.len(),
        on.trace.instance_events.len()
    );
    assert_eq!(off.trace.usage.len(), on.trace.usage.len());
}

#[test]
fn chrome_trace_export_is_valid_json() {
    let profile = CellProfile::cell_2019('a');
    let snap = CellSim::run_cell(&profile, &cfg(3, true)).telemetry;
    let json = chrome_trace_json(&snap);
    assert!(json.contains("traceEvents"));
    validate_json(&json).expect("chrome trace must parse as JSON");
    // The validator itself must reject malformed output, or the check
    // above is vacuous.
    assert!(validate_json(&json[..json.len() - 1]).is_err());
}

#[test]
fn snapshot_round_trips_through_borg_query() {
    use borg_query::{bridge, col, lit, Agg, Query};
    let profile = CellProfile::cell_2019('a');
    let snap = CellSim::run_cell(&profile, &cfg(3, true)).telemetry;
    let rollup = Query::from(bridge::counters_table(&snap))
        .filter(col("plane").eq(lit("det")))
        .group_by(&[], vec![Agg::sum("value", "total")])
        .run()
        .expect("rollup query");
    let engine_total = rollup
        .value(0, "total")
        .expect("total")
        .as_f64()
        .expect("numeric");
    let direct_total: u64 = snap
        .counters
        .iter()
        .filter(|c| c.plane == Plane::Deterministic)
        .map(|c| c.value)
        .sum();
    assert!(direct_total > 0);
    assert!((engine_total - direct_total as f64).abs() < 0.5);
}
