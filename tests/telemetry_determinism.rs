//! Telemetry determinism contracts (DESIGN.md §12).
//!
//! The deterministic plane is a pure function of (seed, config): two
//! runs give byte-identical snapshots, and since it only records *what*
//! the simulation did — never how the engine did it — its bytes are
//! pinned per configuration in `crates/sim/tests/golden.rs` to what the
//! naive scan recorded. Engine-plane counters (index hit/miss) say how
//! the index answered, not what was decided, and are pinned nowhere.
//! Disabled telemetry produces an empty snapshot and never perturbs the
//! simulated trace.

use borg_sim::{CellSim, SimConfig};
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
    // All four tables, row for row: recording reads the clock, never
    // the simulation's random draws, and changes no decision.
    assert!(!on.trace.usage.is_empty());
    assert_eq!(off.trace.machine_events, on.trace.machine_events);
    assert_eq!(off.trace.collection_events, on.trace.collection_events);
    assert_eq!(off.trace.instance_events, on.trace.instance_events);
    assert_eq!(off.trace.usage, on.trace.usage);
}
