//! Chaos roundtrip: the closed fault loop, end to end.
//!
//! `validate(repair(read_lenient(corrupt(generate_with_faults(...)))))`
//! must come back with zero violations, and every injected fault must be
//! accounted for exactly: duplicates by the repair deduper, garbled
//! lines by the quarantine, drops and truncation by the row-count
//! ledger. Runs over multiple seeds and corruption profiles, plus
//! bit-identity and graceful-degradation checks.

use borg2019::core::pipeline::{load_trace_dir, simulate_cell, simulate_cell_faulty, SimScale};
use borg2019::sim::{
    corrupt_trace, write_trace_dir_lossy, CellSim, CorruptionConfig, SimConfig, TableFaults,
};
use borg2019::trace::csv::{FILE_COLLECTION, FILE_INSTANCE, FILE_MACHINE, FILE_USAGE};
use borg2019::trace::machine::MachineEventType;
use borg2019::trace::state::EventType;
use borg2019::trace::time::Micros;
use borg2019::trace::trace::Trace;
use borg2019::trace::validate::validate;
use borg2019::workload::cells::CellProfile;

/// Seeds whose tiny fault-enabled simulations actually fire machine
/// failures (the tiny window is short relative to the MTBF, so most
/// seeds draw none).
const ACTIVE_SEEDS: [u64; 3] = [6, 13, 25];

fn tmp_dir(tag: &str, seed: u64) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("borg_chaos_{tag}_{seed}_{}", std::process::id()))
}

/// Per-table `(clean_len, corrupted_len, ingested_len, faults)` rows for
/// the ledger arithmetic below.
fn table_rows<'a>(
    clean: &'a Trace,
    corrupted: &'a Trace,
    ingested: &'a Trace,
    ledger: &'a borg2019::sim::FaultLedger,
) -> [(&'static str, usize, usize, usize, &'a TableFaults); 4] {
    [
        (
            FILE_MACHINE,
            clean.machine_events.len(),
            corrupted.machine_events.len(),
            ingested.machine_events.len(),
            &ledger.machine_events,
        ),
        (
            FILE_COLLECTION,
            clean.collection_events.len(),
            corrupted.collection_events.len(),
            ingested.collection_events.len(),
            &ledger.collection_events,
        ),
        (
            FILE_INSTANCE,
            clean.instance_events.len(),
            corrupted.instance_events.len(),
            ingested.instance_events.len(),
            &ledger.instance_events,
        ),
        (
            FILE_USAGE,
            clean.usage.len(),
            corrupted.usage.len(),
            ingested.usage.len(),
            &ledger.usage,
        ),
    ]
}

#[test]
fn chaos_roundtrip_repairs_to_zero_violations() {
    let profile = CellProfile::cell_2019('a');
    for &seed in &ACTIVE_SEEDS {
        let outcome = simulate_cell_faulty(&profile, SimScale::Tiny, seed);
        assert!(
            outcome.metrics.machine_failures > 0,
            "seed {seed} fired no machine failures; pick an active seed"
        );
        for (name, cc) in [
            ("lossy", CorruptionConfig::lossy()),
            ("harsh", CorruptionConfig::harsh()),
        ] {
            let dir = tmp_dir(name, seed);
            std::fs::create_dir_all(&dir).expect("mkdir");
            let (corrupted, mut ledger) = corrupt_trace(&outcome.trace, &cc, seed);
            write_trace_dir_lossy(&corrupted, &dir, &cc, seed, &mut ledger).expect("lossy write");

            // Lenient read, then repair (inside load_trace_dir).
            let (repaired, quality) = load_trace_dir(&dir);
            let violations = validate(&repaired);
            assert!(
                violations.is_empty(),
                "seed {seed} profile {name}: {} violations after repair; first: {}",
                violations.len(),
                violations[0]
            );

            // Re-read leniently (without repair) so ingested lengths are
            // observable before the repairer rewrites the tables.
            let (ingested, quarantine) = borg2019::trace::csv::read_trace_dir_lenient(&dir);
            for (file, clean_len, corr_len, ing_len, tf) in
                table_rows(&outcome.trace, &corrupted, &ingested, &ledger)
            {
                // Row-count ledger arithmetic, exact per table.
                assert_eq!(
                    corr_len as u64,
                    clean_len as u64 - tf.truncated - tf.dropped + tf.duplicated,
                    "seed {seed} profile {name}: {file} corrupted-length equation"
                );
                assert_eq!(
                    ing_len as u64,
                    corr_len as u64 - tf.garbled,
                    "seed {seed} profile {name}: {file} ingested-length equation"
                );
                // Every garbled line quarantined, nothing else.
                assert_eq!(
                    quarantine.count_for(file),
                    tf.garbled,
                    "seed {seed} profile {name}: {file} quarantine vs garbled"
                );
            }

            if name == "lossy" {
                // No jitter and no garbling in this profile, so the
                // repair deduper must remove exactly the injected
                // duplicates — per table.
                let q = &quality.repair;
                assert_eq!(q.machine_events.deduped, ledger.machine_events.duplicated);
                assert_eq!(
                    q.collection_events.deduped,
                    ledger.collection_events.duplicated
                );
                assert_eq!(q.instance_events.deduped, ledger.instance_events.duplicated);
                assert_eq!(q.usage.deduped, ledger.usage.duplicated);
            }
            assert!(!quality.is_pristine(), "corruption left no trace?");
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

#[test]
fn faulty_trace_records_failures_and_losses() {
    let outcome = simulate_cell_faulty(&CellProfile::cell_2019('a'), SimScale::Tiny, 13);
    let removes = outcome
        .trace
        .machine_events
        .iter()
        .filter(|e| e.event_type == MachineEventType::Remove)
        .count() as u64;
    let adds_after_start = outcome
        .trace
        .machine_events
        .iter()
        .filter(|e| e.event_type == MachineEventType::Add && e.time > Micros::ZERO)
        .count() as u64;
    assert_eq!(removes, outcome.metrics.machine_failures);
    assert_eq!(adds_after_start, outcome.metrics.machine_repairs);
    let lost = outcome
        .trace
        .instance_events
        .iter()
        .filter(|e| e.event_type == EventType::Lost)
        .count() as u64;
    assert!(
        lost >= outcome.metrics.tasks_lost,
        "lost events undercounted"
    );
    // The fault-enabled trace still satisfies every §9 invariant.
    assert!(validate(&outcome.trace).is_empty());
}

#[test]
fn graceful_degradation_analyses_still_complete() {
    // 5% drops plus a truncated tail — the ISSUE's degradation scenario.
    let cc = CorruptionConfig {
        drop_fraction: 0.05,
        duplicate_fraction: 0.0,
        reorder_fraction: 0.0,
        jitter_fraction: 0.0,
        max_jitter: Micros::ZERO,
        truncate_tail: Some(Micros::from_hours(12)),
        garble_fraction: 0.0,
    };
    let outcome = simulate_cell(&CellProfile::cell_2019('b'), SimScale::Tiny, 7);
    let dir = tmp_dir("degrade", 7);
    std::fs::create_dir_all(&dir).expect("mkdir");
    let (corrupted, mut ledger) = corrupt_trace(&outcome.trace, &cc, 7);
    write_trace_dir_lossy(&corrupted, &dir, &cc, 7, &mut ledger).expect("write");
    let (trace, quality) = load_trace_dir(&dir);
    std::fs::remove_dir_all(&dir).ok();

    assert!(!quality.is_pristine());
    assert!(quality.annotation().starts_with("data quality:"));
    assert!(quality.fraction_affected() > 0.0);

    // The summarize-style analyses all complete without panicking.
    let infos = trace.collections();
    assert!(!infos.is_empty());
    let census = borg2019::trace::machine::shape_census(&trace.machine_events);
    assert!(census.adds > 0);
    let _ = trace.nominal_capacity();
    let mean_cpu =
        trace.usage.iter().map(|u| u.avg_usage.cpu).sum::<f64>() / trace.usage.len().max(1) as f64;
    assert!(mean_cpu.is_finite());
    assert!(validate(&trace).is_empty());
}

#[test]
fn low_fault_rates_preserve_headline_statistics() {
    // At 1% corruption, repaired headline statistics must track the
    // clean trace closely — degradation is graceful, not cliff-edged.
    let cc = CorruptionConfig {
        drop_fraction: 0.01,
        duplicate_fraction: 0.01,
        reorder_fraction: 0.01,
        jitter_fraction: 0.0,
        max_jitter: Micros::ZERO,
        truncate_tail: None,
        garble_fraction: 0.0,
    };
    let outcome = simulate_cell(&CellProfile::cell_2019('c'), SimScale::Tiny, 9);
    let dir = tmp_dir("tolerance", 9);
    std::fs::create_dir_all(&dir).expect("mkdir");
    let (corrupted, mut ledger) = corrupt_trace(&outcome.trace, &cc, 9);
    write_trace_dir_lossy(&corrupted, &dir, &cc, 9, &mut ledger).expect("write");
    let (repaired, _) = load_trace_dir(&dir);
    std::fs::remove_dir_all(&dir).ok();

    let submits = |t: &Trace| {
        t.instance_events
            .iter()
            .filter(|e| e.event_type == EventType::Submit)
            .count() as f64
    };
    let mean_cpu = |t: &Trace| {
        t.usage.iter().map(|u| u.avg_usage.cpu).sum::<f64>() / t.usage.len().max(1) as f64
    };
    let rel = |a: f64, b: f64| (a - b).abs() / a.max(1e-12);

    assert!(
        rel(submits(&outcome.trace), submits(&repaired)) < 0.05,
        "task submissions drifted more than 5%"
    );
    assert!(
        rel(
            outcome.trace.collections().len() as f64,
            repaired.collections().len() as f64
        ) < 0.05,
        "collection count drifted more than 5%"
    );
    assert!(
        rel(mean_cpu(&outcome.trace), mean_cpu(&repaired)) < 0.05,
        "mean task CPU usage drifted more than 5%"
    );
}

#[test]
fn faults_disabled_is_deterministic_and_fault_free() {
    let cfg = SimConfig::tiny_for_tests(42);
    assert!(cfg.faults.is_none(), "presets must default to no faults");
    let a = CellSim::run_cell(&CellProfile::cell_2019('a'), &cfg);
    let b = CellSim::run_cell(&CellProfile::cell_2019('a'), &cfg);
    assert_eq!(a.metrics.machine_failures, 0);
    assert_eq!(a.trace.machine_events, b.trace.machine_events);
    assert_eq!(a.trace.instance_events, b.trace.instance_events);
    assert!(a
        .trace
        .machine_events
        .iter()
        .all(|e| e.event_type != MachineEventType::Remove));
}
