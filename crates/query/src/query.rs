//! Fluent query builder.
//!
//! [`Query`] chains the relational operators into a lazily executed plan,
//! mirroring how the paper's BigQuery SQL composes `WHERE`, `GROUP BY`,
//! and `ORDER BY`.
//!
//! Before running, [`Query::run_with`] walks the plan backwards to find,
//! for every step, the columns a later step can still observe; the
//! row-moving steps (filter, join, sort, limit) then gather only those.
//! Everything upstream of a `GroupBy` or `Project` is pruned to what
//! that step names; downstream of the last one, every column is live.

use crate::error::QueryError;
use crate::expr::Expr;
use crate::groupby::{Agg, AggKind};
use crate::join::JoinKind;
use crate::sort::SortOrder;
use crate::table::Table;
use borg_telemetry::{Plane, Telemetry};
use std::collections::BTreeSet;

/// The columns a later step can observe; `None` means all of them.
type Live = Option<BTreeSet<String>>;

enum Step {
    Filter(Expr),
    Project(Vec<String>),
    Derive(String, Expr),
    GroupBy(Vec<String>, Vec<Agg>),
    Sort(Vec<(String, SortOrder)>),
    Join {
        right: Table,
        left_keys: Vec<String>,
        right_keys: Vec<String>,
        kind: JoinKind,
    },
    Limit(usize),
}

impl Step {
    /// Operator name for telemetry metric/span labels.
    fn name(&self) -> &'static str {
        match self {
            Step::Filter(_) => "filter",
            Step::Project(_) => "project",
            Step::Derive(..) => "derive",
            Step::GroupBy(..) => "group_by",
            Step::Sort(_) => "sort",
            Step::Join { .. } => "join",
            Step::Limit(_) => "limit",
        }
    }

    /// True for operators whose expression evaluation runs as parallel
    /// block scans (`crate::parallel`).
    fn is_scan(&self) -> bool {
        matches!(self, Step::Filter(_) | Step::Derive(..))
    }

    /// The input columns this step must be given so that it and every
    /// later step produce what they would on the full table — the same
    /// values, names and errors — when only `out` is observable in its
    /// output. A step keeps every column it names itself, present or
    /// not, so an unknown one is still reported by the step that reads
    /// it.
    fn live_in(&self, out: &Live) -> Live {
        match self {
            Step::Project(cols) => Some(cols.iter().cloned().collect()),
            Step::GroupBy(keys, aggs) => Some(
                keys.iter()
                    .chain(
                        aggs.iter()
                            .filter(|a| a.kind != AggKind::CountAll)
                            .map(|a| &a.input),
                    )
                    .cloned()
                    .collect(),
            ),
            Step::Limit(_) => out.clone(),
            Step::Filter(predicate) => out.clone().map(|mut live| {
                predicate.collect_columns(&mut live);
                live
            }),
            Step::Derive(name, expr) => out.clone().map(|mut live| {
                live.remove(name);
                expr.collect_columns(&mut live);
                live
            }),
            Step::Sort(keys) => out.clone().map(|mut live| {
                live.extend(keys.iter().map(|(c, _)| c.clone()));
                live
            }),
            Step::Join {
                right, left_keys, ..
            } => out.clone().map(|mut live| {
                live.extend(left_keys.iter().cloned());
                live.extend(crate::join::naming_columns(right));
                live
            }),
        }
    }
}

/// Total dictionary entries across a table's string columns — the
/// telemetry proxy for dictionary-encoding behavior (growth across a
/// join/group_by means codes were remapped into a merged dictionary).
fn dict_entries(t: &Table) -> u64 {
    (0..t.num_columns())
        .filter_map(|i| t.column_at(i).str_vec())
        .map(|sv| sv.dict_len() as u64)
        .sum()
}

/// A lazily executed query plan over one source table.
pub struct Query {
    source: Table,
    steps: Vec<Step>,
    cancel: Option<crate::cancel::CancelToken>,
}

impl Query {
    /// Starts a query over `table`.
    pub fn from(table: Table) -> Query {
        Query {
            source: table,
            steps: Vec::new(),
            cancel: None,
        }
    }

    /// Attaches a cooperative cancellation token: execution checks it
    /// between plan steps, at block boundaries inside scan and group-by
    /// operators, and between the phases and gathered columns of sort
    /// and join, returning [`QueryError::Cancelled`] once it is set.
    /// borg-serve arms one per admitted query with the query's deadline
    /// budget.
    pub fn with_cancel(mut self, token: crate::cancel::CancelToken) -> Query {
        self.cancel = Some(token);
        self
    }

    /// Keeps rows where `predicate` is true.
    pub fn filter(mut self, predicate: Expr) -> Query {
        self.steps.push(Step::Filter(predicate));
        self
    }

    /// Keeps only the named columns.
    pub fn select(mut self, columns: &[&str]) -> Query {
        self.steps.push(Step::Project(
            columns.iter().map(|s| s.to_string()).collect(),
        ));
        self
    }

    /// Adds a computed column.
    pub fn derive(mut self, name: impl Into<String>, expr: Expr) -> Query {
        self.steps.push(Step::Derive(name.into(), expr));
        self
    }

    /// Groups by key columns and aggregates.
    pub fn group_by(mut self, keys: &[&str], aggs: Vec<Agg>) -> Query {
        self.steps.push(Step::GroupBy(
            keys.iter().map(|s| s.to_string()).collect(),
            aggs,
        ));
        self
    }

    /// Sorts by one column.
    pub fn sort_by(mut self, column: &str, order: SortOrder) -> Query {
        self.steps
            .push(Step::Sort(vec![(column.to_string(), order)]));
        self
    }

    /// Sorts by several columns, earlier keys first.
    pub fn sort_by_many(mut self, keys: &[(&str, SortOrder)]) -> Query {
        self.steps.push(Step::Sort(
            keys.iter().map(|(c, o)| (c.to_string(), *o)).collect(),
        ));
        self
    }

    /// Inner-joins with `right` on pairwise key equality.
    pub fn join(mut self, right: Table, left_keys: &[&str], right_keys: &[&str]) -> Query {
        self.steps.push(Step::Join {
            right,
            left_keys: left_keys.iter().map(|s| s.to_string()).collect(),
            right_keys: right_keys.iter().map(|s| s.to_string()).collect(),
            kind: JoinKind::Inner,
        });
        self
    }

    /// Left-outer-joins with `right` on pairwise key equality.
    pub fn left_join(mut self, right: Table, left_keys: &[&str], right_keys: &[&str]) -> Query {
        self.steps.push(Step::Join {
            right,
            left_keys: left_keys.iter().map(|s| s.to_string()).collect(),
            right_keys: right_keys.iter().map(|s| s.to_string()).collect(),
            kind: JoinKind::LeftOuter,
        });
        self
    }

    /// Keeps only the first `n` rows.
    pub fn limit(mut self, n: usize) -> Query {
        self.steps.push(Step::Limit(n));
        self
    }

    /// Executes the plan.
    pub fn run(self) -> Result<Table, QueryError> {
        self.run_with(&mut Telemetry::disabled())
    }

    /// Executes the plan, recording per-operator telemetry into `tel`:
    /// one span per step (timing plane) nested under the caller's open
    /// span, rows in/out and step counts (deterministic plane), and
    /// scan-block / parallel-fan-out / dictionary-size counters and the
    /// path group-by and join took (engine plane — implementation detail,
    /// excluded from the cross-strategy byte contract). [`Query::run`] is
    /// this with a disabled instance.
    pub fn run_with(self, tel: &mut Telemetry) -> Result<Table, QueryError> {
        // Backward pass: `live[i]` is what is observable after step `i`,
        // i.e. what step `i + 1` must be given.
        let mut live: Vec<Live> = Vec::with_capacity(self.steps.len());
        let mut observable: Live = None;
        for step in self.steps.iter().rev() {
            let needed = step.live_in(&observable);
            live.push(std::mem::replace(&mut observable, needed));
        }
        live.reverse();
        let mut t = self.source.keep(observable.as_ref());
        let cancel = self.cancel.as_ref();
        for (step, live) in self.steps.into_iter().zip(live) {
            let live = live.as_ref();
            crate::cancel::check(cancel)?;
            let name = step.name();
            let rows_in = t.num_rows() as u64;
            let span = tel.span_enter(&format!("query.{name}"));
            if tel.is_enabled() {
                tel.count(&format!("query.op.{name}.steps"), Plane::Deterministic, 1);
                tel.count(
                    &format!("query.op.{name}.rows_in"),
                    Plane::Deterministic,
                    rows_in,
                );
                if step.is_scan() {
                    let blocks = rows_in.div_ceil(crate::parallel::BLOCK_ROWS as u64).max(1);
                    let fanout = blocks.min(crate::parallel::num_threads() as u64);
                    tel.count(&format!("query.op.{name}.blocks"), Plane::Engine, blocks);
                    tel.count(&format!("query.op.{name}.fanout"), Plane::Engine, fanout);
                }
            }
            t = match step {
                Step::Filter(p) => {
                    let mask = p.eval_mask_cancel(&t, cancel)?;
                    t.keep(live).filter_rows(&mask)
                }
                Step::Project(cols) => {
                    let names: Vec<&str> = cols.iter().map(String::as_str).collect();
                    crate::ops::project(&t, &names)?
                }
                Step::Derive(name, expr) => crate::ops::derive(t, &name, &expr)?,
                Step::GroupBy(keys, aggs) => {
                    let names: Vec<&str> = keys.iter().map(String::as_str).collect();
                    let (out, path) = crate::groupby::group_by_cancel(&t, &names, &aggs, cancel)?;
                    if tel.is_enabled() {
                        let blocks = rows_in.div_ceil(crate::parallel::BLOCK_ROWS as u64);
                        tel.count(
                            &format!("query.op.{name}.{path}_blocks"),
                            Plane::Engine,
                            blocks,
                        );
                    }
                    out
                }
                Step::Sort(keys) => {
                    let pairs: Vec<(&str, SortOrder)> =
                        keys.iter().map(|(c, o)| (c.as_str(), *o)).collect();
                    let order = crate::sort::sort_indices(&t, &pairs, cancel)?;
                    t.keep(live).take_rows_cancel(&order, cancel)?
                }
                Step::Join {
                    right,
                    left_keys,
                    right_keys,
                    kind,
                } => {
                    let lk: Vec<&str> = left_keys.iter().map(String::as_str).collect();
                    let rk: Vec<&str> = right_keys.iter().map(String::as_str).collect();
                    let (out, path) =
                        crate::join::join_live(&t, &right, &lk, &rk, kind, live, cancel)?;
                    if tel.is_enabled() {
                        tel.count(&format!("query.op.{name}.{path}_builds"), Plane::Engine, 1);
                    }
                    out
                }
                Step::Limit(n) => t.keep(live).head(n),
            };
            if tel.is_enabled() {
                tel.count(
                    &format!("query.op.{name}.rows_out"),
                    Plane::Deterministic,
                    t.num_rows() as u64,
                );
                tel.count(
                    &format!("query.op.{name}.dict_entries_out"),
                    Plane::Engine,
                    dict_entries(&t),
                );
                let h = tel.hist("query.op.rows_out", Plane::Deterministic);
                tel.record(h, t.num_rows() as u64);
            }
            tel.span_exit(span);
        }
        Ok(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::{Column, DataType};
    use crate::expr::{col, lit};
    use crate::value::Value;

    fn usage_table() -> Table {
        let mut t = Table::new(vec![
            ("cell", DataType::Str),
            ("tier", DataType::Str),
            ("cpu", DataType::Float),
        ]);
        for (cell, tier, cpu) in [
            ("a", "prod", 0.4),
            ("a", "beb", 0.2),
            ("b", "prod", 0.1),
            ("b", "beb", 0.5),
            ("a", "prod", 0.6),
        ] {
            t.push_row(vec![Value::str(cell), Value::str(tier), Value::Float(cpu)])
                .unwrap();
        }
        t
    }

    #[test]
    fn full_pipeline() {
        let out = Query::from(usage_table())
            .filter(col("cpu").gt(lit(0.15)))
            .group_by(&["cell", "tier"], vec![Agg::sum("cpu", "total")])
            .sort_by_many(&[
                ("cell", SortOrder::Ascending),
                ("total", SortOrder::Descending),
            ])
            .run()
            .unwrap();
        assert_eq!(out.num_rows(), 3);
        assert_eq!(out.value(0, "cell").unwrap(), Value::str("a"));
        assert_eq!(out.value(0, "total").unwrap(), Value::Float(1.0));
        assert_eq!(out.value(2, "cell").unwrap(), Value::str("b"));
    }

    #[test]
    fn derive_then_filter() {
        let out = Query::from(usage_table())
            .derive("double", col("cpu").mul(lit(2.0)))
            .filter(col("double").ge(lit(1.0)))
            .run()
            .unwrap();
        assert_eq!(out.num_rows(), 2);
    }

    #[test]
    fn select_and_limit() {
        let out = Query::from(usage_table())
            .select(&["cpu"])
            .limit(2)
            .run()
            .unwrap();
        assert_eq!(out.num_rows(), 2);
        assert_eq!(out.num_columns(), 1);
    }

    #[test]
    fn join_in_pipeline() {
        let mut weights = Table::new(vec![("tier", DataType::Str), ("w", DataType::Float)]);
        weights
            .push_row(vec![Value::str("prod"), Value::Float(1.0)])
            .unwrap();
        weights
            .push_row(vec![Value::str("beb"), Value::Float(0.1)])
            .unwrap();
        let out = Query::from(usage_table())
            .join(weights, &["tier"], &["tier"])
            .derive("weighted", col("cpu").mul(col("w")))
            .group_by(&[], vec![Agg::sum("weighted", "total")])
            .run()
            .unwrap();
        let total = out.value(0, "total").unwrap().as_f64().unwrap();
        assert!((total - (0.4 + 0.1 + 0.6 + 0.02 + 0.05)).abs() < 1e-12);
    }

    #[test]
    fn run_with_records_operator_stats() {
        let mut tel = Telemetry::enabled();
        let out = Query::from(usage_table())
            .filter(col("cpu").gt(lit(0.15)))
            .select(&["cell", "cpu"])
            .run_with(&mut tel)
            .unwrap();
        assert_eq!(out.num_rows(), 4);
        let snap = tel.snapshot();
        let get = |name: &str| {
            snap.counters
                .iter()
                .find(|c| c.name == name)
                .map(|c| c.value)
        };
        assert_eq!(get("query.op.filter.rows_in"), Some(5));
        assert_eq!(get("query.op.filter.rows_out"), Some(4));
        assert_eq!(get("query.op.filter.steps"), Some(1));
        assert_eq!(get("query.op.project.rows_out"), Some(4));
        // Scan ops report engine-plane block/fan-out counters.
        assert_eq!(get("query.op.filter.blocks"), Some(1));
        assert!(snap.spans.iter().any(|s| s.path == "query.filter"));
        assert!(snap
            .hists
            .iter()
            .any(|h| h.name == "query.op.rows_out" && h.hist.count == 2));
    }

    #[test]
    fn run_with_counts_each_joins_build_path() {
        let ids = |xs: &[i64]| {
            Table::from_columns(vec![(
                "id",
                Column::Int(xs.iter().map(|&x| Some(x)).collect()),
            )])
            .unwrap()
        };
        let mut tel = Telemetry::enabled();
        // A key past 2^53 sends the second build down the hashed path.
        let out = Query::from(ids(&[1, 2, 3, 3]))
            .join(ids(&[2, 3, 4]), &["id"], &["id"])
            .left_join(ids(&[3, 1 << 60]), &["id"], &["id"])
            .run_with(&mut tel)
            .unwrap();
        assert_eq!(out.num_rows(), 3);
        let snap = tel.snapshot();
        let get = |name: &str| snap.counters.iter().find(|c| c.name == name);
        let dense = get("query.op.join.dense_builds").unwrap();
        let hashed = get("query.op.join.hashed_builds").unwrap();
        assert_eq!((dense.value, hashed.value), (1, 1));
        assert_eq!(dense.plane, Plane::Engine);
    }

    #[test]
    fn errors_propagate() {
        assert!(Query::from(usage_table())
            .filter(col("nope").gt(lit(0.0)))
            .run()
            .is_err());
    }
}
