//! Trace-layer throughput on a Tiny two-day cell: validation, CSV
//! writing, relational-table conversion, and the state machine. The
//! 512-machine round trip kernel by kernel is pipeline-bench's
//! `trace.*_ms` rows (`trace_roundtrip --traced`).

use borg_core::pipeline::{simulate_cell, SimScale};
use borg_core::tables;
use borg_trace::state::{EventType, StateMachine};
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

criterion_group!(benches, bench_validate, bench_state_machine);
criterion_main!(benches);
