//! Trace-layer throughput on a Tiny two-day cell: validation, CSV
//! writing and reading, relational-table conversion, and the state
//! machine. The 512-machine round trip kernel by kernel is
//! pipeline-bench's `trace.*_ms` rows (`trace_roundtrip --traced`); the
//! rows here are the routes that ledger cannot show: a directory with
//! garbled lines (the benchmark's `lossy()` garbles none), and the
//! grouping sort at each of its key widths.

use borg_core::pipeline::{simulate_cell, SimScale};
use borg_core::tables;
use borg_sim::{write_trace_dir_lossy, CellSim, CorruptionConfig, FaultLedger, SimConfig};
use borg_trace::collection::CollectionId;
use borg_trace::csv::{read_trace_dir_lenient, write_trace_dir};
use borg_trace::state::{EventType, StateMachine};
use borg_trace::time::Micros;
use borg_trace::trace::Trace;
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
    // The table the `f32` bucket writer serves: 21 buckets a row that
    // never come back, beside the instance table's memoized requests.
    group.bench_function("csv_write_usage_cell_2days", |b| {
        b.iter(|| {
            let mut buf = Vec::new();
            borg_trace::csv::write_usage(&mut buf, &outcome.trace.usage).unwrap();
            buf.len()
        });
    });
    // The lenient directory read, of the cell as written and of the same
    // bytes with `harsh()`'s share of lines garbled: those take the
    // reader's whole error route (recogniser, `parse`, `Quarantine`).
    let dir = std::env::temp_dir().join(format!("borg_bench_csv_{}", std::process::id()));
    let (clean, garbled) = (dir.join("clean"), dir.join("garbled"));
    write_trace_dir(&outcome.trace, &clean).unwrap();
    let only_garbles = CorruptionConfig {
        drop_fraction: 0.0,
        duplicate_fraction: 0.0,
        reorder_fraction: 0.0,
        jitter_fraction: 0.0,
        truncate_tail: None,
        ..CorruptionConfig::harsh()
    };
    let mut ledger = FaultLedger::default();
    write_trace_dir_lossy(&outcome.trace, &garbled, &only_garbles, 5, &mut ledger).unwrap();
    group.bench_function("csv_read_cell_2days", |b| {
        b.iter(|| read_trace_dir_lenient(&clean).0.instance_events.len());
    });
    group.bench_function("csv_read_garbled_cell_2days", |b| {
        b.iter(|| {
            let (trace, quarantine) = read_trace_dir_lenient(&garbled);
            assert_eq!(quarantine.total_lines(), ledger.garbled());
            trace.instance_events.len()
        });
    });
    std::fs::remove_dir_all(&dir).ok();
    group.bench_function("to_relational_tables", |b| {
        b.iter(|| tables::instance_events_table(&outcome.trace).unwrap());
    });
    group.bench_function("collections_summary", |b| {
        b.iter(|| outcome.trace.collections());
    });
    group.finish();
}

/// `borg_trace`'s grouping sort (`group::entity_order`, private) on the
/// 373,898 instance events of pipeline-bench's 512-machine cell-day,
/// driven through `validate` of a trace that holds nothing else: the
/// sort, then one lifecycle walk over its output, the same in every row.
/// The rows are the sort's three arms: a table in time order (ids and
/// positions fit a `u64`), the same with one adjacent pair in fifty
/// swapped as a lossy writer leaves it (the time joins the key: `u128`),
/// and the swapped table with its ids spread over their whole types (too
/// wide for 128 bits: the comparator sort).
fn bench_entity_order(c: &mut Criterion) {
    let profile = CellProfile::cell_2019('d');
    let mut cfg = SimConfig::tiny_for_tests(2019);
    cfg.scale = 512.0 / profile.machine_count as f64;
    cfg.horizon = Micros::from_hours(24);
    cfg.snapshot_at = Micros::from_hours(12);
    let simulated = CellSim::run_cell(&profile, &cfg).trace;
    let only_instances = |instance_events| Trace {
        instance_events,
        ..Trace::new("bench", simulated.schema.unwrap(), simulated.horizon)
    };
    let mut events = simulated.instance_events.clone();
    let time_ordered = only_instances(events.clone());
    for pair in events.chunks_exact_mut(2).step_by(25) {
        pair.swap(0, 1);
    }
    let swapped = only_instances(events.clone());
    // Multiplying by an odd number is a bijection: the same groups.
    for e in &mut events {
        let id = &mut e.instance_id;
        id.collection = CollectionId(id.collection.0.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        id.index = id.index.wrapping_mul(0x9E37_79B9);
    }
    let wide_ids = only_instances(events);
    let mut group = c.benchmark_group("entity_order_374k");
    group.sample_size(10);
    for (name, trace) in [
        ("time_ordered", &time_ordered),
        ("swapped", &swapped),
        ("wide_ids", &wide_ids),
    ] {
        group.bench_function(name, |b| b.iter(|| validate(trace).len()));
    }
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

criterion_group!(
    benches,
    bench_validate,
    bench_entity_order,
    bench_state_machine
);
criterion_main!(benches);
