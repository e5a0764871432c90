//! Query-engine operator throughput on trace-shaped tables with string
//! keys. The 360k-row integer-key group-by, join and table clone are
//! pipeline-bench's `query.q_*_ms` / `query.table_clone_ms` rows
//! (`sql_battery --traced`); `tables_cell_day_512` and
//! `take_rows_instance` time that workload's table build and its sort's
//! row gather alone, on the same cell-day.

use borg_core::tables;
use borg_query::prelude::*;
use borg_query::{Agg, Column};
use borg_sim::{CellSim, SimConfig};
use borg_trace::time::Micros;
use borg_workload::cells::CellProfile;
use criterion::{criterion_group, criterion_main, Criterion};

fn trace_shaped_table(rows: usize) -> Table {
    let mut t = Table::new(vec![
        ("time", DataType::Int),
        ("tier", DataType::Str),
        ("event", DataType::Str),
        ("cpu", DataType::Float),
    ]);
    let tiers = ["free", "beb", "mid", "prod"];
    let events = ["submit", "schedule", "finish", "kill"];
    for i in 0..rows {
        t.push_row(vec![
            Value::Int(i as i64),
            Value::str(tiers[i % 4]),
            Value::str(events[(i / 3) % 4]),
            Value::Float((i % 100) as f64 / 100.0),
        ])
        .unwrap();
    }
    t
}

fn bench_filter(c: &mut Criterion) {
    let t = trace_shaped_table(100_000);
    c.bench_function("filter_100k_rows", |b| {
        b.iter(|| {
            Query::from(t.clone())
                .filter(
                    col("event")
                        .eq(lit("schedule"))
                        .and(col("cpu").gt(lit(0.5))),
                )
                .run()
                .unwrap()
        });
    });
}

fn bench_group_by(c: &mut Criterion) {
    let t = trace_shaped_table(100_000);
    c.bench_function("group_by_100k_rows", |b| {
        b.iter(|| {
            Query::from(t.clone())
                .group_by(
                    &["tier", "event"],
                    vec![
                        Agg::sum("cpu", "total"),
                        Agg::count_all("n"),
                        Agg::percentile("cpu", 99.0, "p99"),
                    ],
                )
                .run()
                .unwrap()
        });
    });
}

fn bench_join(c: &mut Criterion) {
    let left = trace_shaped_table(50_000);
    let mut right = Table::new(vec![("tier", DataType::Str), ("weight", DataType::Float)]);
    for (t, w) in [("free", 0.0), ("beb", 0.2), ("mid", 0.5), ("prod", 1.0)] {
        right
            .push_row(vec![Value::str(t), Value::Float(w)])
            .unwrap();
    }
    c.bench_function("join_50k_rows", |b| {
        b.iter(|| {
            Query::from(left.clone())
                .join(right.clone(), &["tier"], &["tier"])
                .run()
                .unwrap()
        });
    });
}

fn bench_group_by_1m(c: &mut Criterion) {
    // The acceptance benchmark for the vectorized engine: a 1M-row table
    // grouped on two string key columns.
    let t = trace_shaped_table(1_000_000);
    c.bench_function("group_by_1m_string_keys", |b| {
        b.iter(|| {
            Query::from(t.clone())
                .group_by(
                    &["tier", "event"],
                    vec![Agg::sum("cpu", "total"), Agg::count_all("n")],
                )
                .run()
                .unwrap()
        });
    });
}

fn bench_sort(c: &mut Criterion) {
    let t = trace_shaped_table(100_000);
    c.bench_function("sort_100k_rows", |b| {
        b.iter(|| {
            Query::from(t.clone())
                .sort_by_many(&[
                    ("tier", SortOrder::Ascending),
                    ("cpu", SortOrder::Descending),
                ])
                .run()
                .unwrap()
        });
    });
}

fn bench_sort_wide_keys(c: &mut Criterion) {
    // `sort_100k_rows` packs into one u128 and `sql_battery`'s sort into
    // one u64; this is the third route. Two float keys of about 62 bits
    // each, 17 bits of time and 17 of row number do not fit 128 bits, so
    // the kernel runs twice: (mem, time) first, then cpu.
    let t = trace_shaped_table(100_000);
    let mem = (0..t.num_rows())
        .map(|i| Some((i * 7919 % 1000) as f64 / 1000.0))
        .collect();
    let t = t.with_column("mem", Column::Float(mem)).unwrap();
    c.bench_function("sort_100k_rows_wide_keys", |b| {
        b.iter(|| {
            Query::from(t.clone())
                .sort_by_many(&[
                    ("cpu", SortOrder::Descending),
                    ("mem", SortOrder::Ascending),
                    ("time", SortOrder::Ascending),
                ])
                .run()
                .unwrap()
        });
    });
}

/// The cell-day `sql_battery` runs: 512 machines of cell 2019d for 24
/// simulated hours (about 374k instance rows, 40k usage rows).
fn cell_day_512() -> borg_trace::trace::Trace {
    let profile = CellProfile::cell_2019('d');
    let mut cfg = SimConfig::tiny_for_tests(2019);
    cfg.scale = (512.0 / profile.machine_count as f64).min(1.0);
    cfg.horizon = Micros::from_hours(24);
    cfg.snapshot_at = Micros::from_hours(12);
    CellSim::run_cell(&profile, &cfg).trace
}

fn bench_trace_tables(c: &mut Criterion) {
    // The four `core::tables` builders (`core.tables_ms`), then the row
    // gather of `q_sort_tier_time` on its own: the instance table taken
    // through its `(tier, time desc)` permutation.
    let trace = cell_day_512();
    c.bench_function("tables_cell_day_512", |b| {
        b.iter(|| {
            (
                tables::collection_events_table(&trace).unwrap(),
                tables::instance_events_table(&trace).unwrap(),
                tables::machine_events_table(&trace).unwrap(),
                tables::usage_table(&trace).unwrap(),
            )
        });
    });
    let inst = tables::instance_events_table(&trace).unwrap();
    let rows = Column::Int((0..inst.num_rows() as i64).map(Some).collect());
    let numbered = inst.clone().with_column("row", rows).unwrap();
    let sorted = Query::from(numbered)
        .sort_by_many(&[
            ("tier", SortOrder::Ascending),
            ("time", SortOrder::Descending),
        ])
        .run()
        .unwrap();
    let perm: Vec<u32> = (0..sorted.num_rows())
        .map(|r| sorted.value(r, "row").unwrap().as_i64().unwrap() as u32)
        .collect();
    c.bench_function("take_rows_instance", |b| b.iter(|| inst.take_rows(&perm)));
}

criterion_group!(
    benches,
    bench_filter,
    bench_group_by,
    bench_group_by_1m,
    bench_join,
    bench_sort,
    bench_sort_wide_keys,
    bench_trace_tables
);
criterion_main!(benches);
