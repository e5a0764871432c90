//! Trace-layer throughput: validation, CSV round trips, state machines,
//! and relational-table conversion.

use borg_core::pipeline::{simulate_cell, SimScale};
use borg_core::tables;
use borg_sim::{corrupt_trace, write_trace_dir_lossy, CellSim, CorruptionConfig, SimConfig};
use borg_trace::csv::{read_trace_dir_lenient, write_trace_dir};
use borg_trace::repair::repair;
use borg_trace::state::{EventType, StateMachine};
use borg_trace::time::Micros;
use borg_trace::validate::validate;
use borg_workload::cells::CellProfile;
use criterion::{criterion_group, criterion_main, Criterion};

fn bench_validate(c: &mut Criterion) {
    let outcome = simulate_cell(&CellProfile::cell_2019('e'), SimScale::Tiny, 5);
    let mut group = c.benchmark_group("trace");
    group.sample_size(10);
    group.bench_function("validate_cell_2days", |b| {
        b.iter(|| validate(&outcome.trace));
    });
    group.bench_function("csv_write_cell_2days", |b| {
        b.iter(|| {
            let mut buf = Vec::new();
            borg_trace::csv::write_instance_events(&mut buf, &outcome.trace.instance_events)
                .unwrap();
            buf.len()
        });
    });
    group.bench_function("to_relational_tables", |b| {
        b.iter(|| tables::instance_events_table(&outcome.trace).unwrap());
    });
    group.bench_function("collections_summary", |b| {
        b.iter(|| outcome.trace.collections());
    });
    group.finish();
}

/// The round trip `pipeline-bench`'s `trace_roundtrip` workload times,
/// kernel by kernel, on its input: cell `d` cut to 512 machines for one
/// day (seed 2019), clean and through `CorruptionConfig::lossy()`.
fn bench_round_trip(c: &mut Criterion) {
    let profile = CellProfile::cell_2019('d');
    let mut cfg = SimConfig::tiny_for_tests(2019);
    cfg.scale = 512.0 / profile.machine_count as f64;
    cfg.horizon = Micros::from_hours(24);
    cfg.snapshot_at = Micros::from_hours(12);
    let clean = CellSim::run_cell(&profile, &cfg).trace;

    let scratch = std::env::temp_dir().join(format!("borg_bench_trace_{}", std::process::id()));
    let (clean_dir, lossy_dir) = (scratch.join("clean"), scratch.join("lossy"));
    let lossy = CorruptionConfig::lossy();
    let (damaged, mut ledger) = corrupt_trace(&clean, &lossy, 2019);
    write_trace_dir_lossy(&damaged, &lossy_dir, &lossy, 2019, &mut ledger).unwrap();
    write_trace_dir(&clean, &clean_dir).unwrap();
    let (reread, _) = read_trace_dir_lenient(&clean_dir);
    let (ingested, _) = read_trace_dir_lenient(&lossy_dir);
    let mut repaired = ingested.clone();
    repair(&mut repaired);

    let mut group = c.benchmark_group("trace_512");
    group.sample_size(10);
    group.bench_function("csv_write_dir", |b| {
        b.iter(|| write_trace_dir(&clean, &clean_dir).unwrap());
    });
    group.bench_function("csv_read_dir_lenient", |b| {
        b.iter(|| read_trace_dir_lenient(&clean_dir));
    });
    // The clones are part of both repair timings; they cost the same.
    group.bench_function("repair_clean", |b| {
        b.iter(|| repair(&mut reread.clone()));
    });
    group.bench_function("repair_lossy", |b| {
        b.iter(|| repair(&mut ingested.clone()));
    });
    group.bench_function("validate", |b| {
        b.iter(|| validate(&repaired));
    });
    group.finish();
    let _ = std::fs::remove_dir_all(&scratch);
}

fn bench_state_machine(c: &mut Criterion) {
    use std::hint::black_box;
    c.bench_function("state_machine_lifecycle_x1000", |b| {
        b.iter(|| {
            let mut ok = 0;
            for i in 0..1000 {
                let mut sm = StateMachine::new();
                // black_box defeats constant folding of the fixed event
                // sequence.
                ok += sm.apply(black_box(EventType::Submit)).is_ok() as u32;
                ok += sm.apply(black_box(EventType::Schedule)).is_ok() as u32;
                ok += sm.apply(black_box(EventType::Evict)).is_ok() as u32;
                ok += sm.apply(black_box(EventType::Submit)).is_ok() as u32;
                ok += sm.apply(black_box(EventType::Schedule)).is_ok() as u32;
                ok += sm.apply(black_box(EventType::Finish)).is_ok() as u32;
                let _ = black_box(i);
            }
            black_box(ok)
        });
    });
}

criterion_group!(
    benches,
    bench_validate,
    bench_round_trip,
    bench_state_machine
);
criterion_main!(benches);
