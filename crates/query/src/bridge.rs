//! Telemetry → [`Table`] bridge: turn a [`Snapshot`] into query-engine
//! tables so metrics are analyzed with the same operators as trace data
//! ("self-queryable" observability — the profile numbers round-trip
//! through the engine they describe).
//!
//! Lives here rather than in `borg-telemetry` to keep that crate
//! dependency-free (everything else depends on it).

use crate::column::Column;
use crate::dict::StrVec;
use crate::table::Table;
use borg_telemetry::Snapshot;

fn ints<T>(rows: &[T], cell: impl Fn(&T) -> u64) -> Column {
    let values: Vec<i64> = rows
        .iter()
        .map(|r| i64::try_from(cell(r)).unwrap_or(i64::MAX))
        .collect();
    Column::Int(values.into())
}

fn strs<'a, T>(rows: &'a [T], cell: impl Fn(&'a T) -> &'a str) -> Column {
    Column::Str(rows.iter().map(|r| Some(cell(r))).collect::<StrVec>())
}

/// Names the columns; each was built from the same slice, so the
/// lengths agree.
fn table(columns: Vec<(&str, Column)>) -> Table {
    // lint: library-panic-ok (distinct literal names, equal lengths by construction) unwind-across-pool-ok (serve pool worker contains unwinds via catch_unwind)
    Table::from_columns(columns).expect("bridge columns line up")
}

/// The snapshot's counters as a table: `name`, `plane`
/// (`det`/`eng`/`tim`), `value`.
pub fn counters_table(snap: &Snapshot) -> Table {
    let rows = &snap.counters;
    table(vec![
        ("name", strs(rows, |c| &c.name)),
        ("plane", strs(rows, |c| plane_tag(c.plane))),
        ("value", ints(rows, |c| c.value)),
    ])
}

/// The snapshot's span tree as a table in depth-first order: `path`,
/// `name`, `depth`, `count`, `total_ns`.
pub fn spans_table(snap: &Snapshot) -> Table {
    let rows = &snap.spans;
    table(vec![
        ("path", strs(rows, |s| &s.path)),
        ("name", strs(rows, |s| &s.name)),
        ("depth", ints(rows, |s| u64::from(s.depth))),
        ("count", ints(rows, |s| s.count)),
        ("total_ns", ints(rows, |s| s.total_ns)),
    ])
}

fn plane_tag(p: borg_telemetry::Plane) -> &'static str {
    match p {
        borg_telemetry::Plane::Deterministic => "det",
        borg_telemetry::Plane::Engine => "eng",
        borg_telemetry::Plane::Timing => "tim",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{col, lit};
    use crate::query::Query;
    use crate::value::Value;
    use borg_telemetry::{Plane, Telemetry};

    #[test]
    fn snapshot_round_trips_through_the_engine() {
        let mut tel = Telemetry::enabled();
        let root = tel.span_enter("root");
        tel.count("a.hits", Plane::Deterministic, 5);
        tel.count("a.misses", Plane::Engine, 2);
        tel.span_exit(root);
        let snap = tel.snapshot();

        let counters = counters_table(&snap);
        // Query the metrics with the engine itself: deterministic-plane
        // rows only, by value.
        let det = Query::from(counters)
            .filter(col("plane").eq(lit("det")))
            .run()
            .unwrap();
        assert_eq!(det.num_rows(), 1);
        assert_eq!(det.value(0, "name").unwrap(), Value::str("a.hits"));
        assert_eq!(det.value(0, "value").unwrap(), Value::Int(5));

        let spans = spans_table(&snap);
        assert_eq!(spans.num_rows(), 1);
        assert_eq!(spans.value(0, "path").unwrap(), Value::str("root"));
    }

    #[test]
    fn empty_snapshot_gives_empty_tables() {
        let snap = Snapshot::default();
        assert_eq!(counters_table(&snap).num_rows(), 0);
        assert_eq!(spans_table(&snap).num_rows(), 0);
    }
}
