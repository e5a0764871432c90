//! Declarative query plans: hashable, replayable descriptions of the
//! queries the service accepts.
//!
//! The service cannot cache or deduplicate opaque closures, so requests
//! carry a [`PlanSpec`] — a small declarative subset of the
//! `borg_query` pipeline (filter → group-by → sort → limit) over one of
//! the four trace tables. A spec is `Hash`, so `(epoch seq, plan
//! fingerprint)` keys the single-flight result cache, and it is plain
//! data, so the chaos harness can replay the exact same workload from a
//! seed.

use crate::epoch::TableId;
use borg_query::fxhash::FxHasher;
use borg_query::prelude::*;
use borg_query::{Agg, CancelToken, QueryError};
use std::hash::{Hash, Hasher};

/// Comparison operator for a [`PlanSpec`] filter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `column >= value`
    Ge,
    /// `column > value`
    Gt,
    /// `column <= value`
    Le,
    /// `column < value`
    Lt,
    /// `column == value`
    Eq,
}

/// `column <op> literal` over an integer column.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FilterSpec {
    /// Column to compare.
    pub column: String,
    /// Comparison operator.
    pub op: CmpOp,
    /// Integer literal to compare against.
    pub value: i64,
}

/// Aggregation over the grouped rows.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum AggSpec {
    /// Row count per group, output column `n`.
    CountAll,
    /// Sum of a column per group, output column `total`.
    Sum(String),
    /// Maximum of a column per group, output column `peak`.
    Max(String),
}

/// `group_by(keys)` plus one aggregate.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct GroupSpec {
    /// Grouping key columns.
    pub keys: Vec<String>,
    /// The aggregate to compute.
    pub agg: AggSpec,
}

/// A declarative query over one epoch table.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PlanSpec {
    /// Which trace table the pipeline starts from.
    pub table: TableId,
    /// Optional row filter.
    pub filter: Option<FilterSpec>,
    /// Optional group-by + aggregate.
    pub group: Option<GroupSpec>,
    /// Optional sort: `(column, descending)`. Always applied when a
    /// group stage exists so output row order is canonical.
    pub sort: Option<(String, bool)>,
    /// Optional row limit, applied last.
    pub limit: Option<usize>,
}

impl PlanSpec {
    /// A full-table scan (the cheapest useful plan).
    pub fn scan(table: TableId) -> PlanSpec {
        PlanSpec {
            table,
            filter: None,
            group: None,
            sort: None,
            limit: None,
        }
    }

    /// Stable 64-bit identity of this plan, used (with the epoch
    /// sequence number) as the result-cache key. FxHash of the
    /// `#[derive(Hash)]` encoding: no randomized hasher state, so the
    /// value is identical across runs and processes.
    pub fn fingerprint(&self) -> u64 {
        let mut h = FxHasher::default();
        self.hash(&mut h);
        h.finish()
    }

    /// Builds and runs the pipeline over `table`, checking `cancel` at
    /// the engine's block boundaries (deadline propagation).
    pub fn execute(&self, table: Table, cancel: Option<CancelToken>) -> Result<Table, QueryError> {
        let mut q = Query::from(table);
        if let Some(c) = cancel {
            q = q.with_cancel(c);
        }
        if let Some(f) = &self.filter {
            let c = col(f.column.as_str());
            let v = lit(f.value);
            q = q.filter(match f.op {
                CmpOp::Ge => c.ge(v),
                CmpOp::Gt => c.gt(v),
                CmpOp::Le => c.le(v),
                CmpOp::Lt => c.lt(v),
                CmpOp::Eq => c.eq(v),
            });
        }
        if let Some(g) = &self.group {
            let keys: Vec<&str> = g.keys.iter().map(String::as_str).collect();
            let agg = match &g.agg {
                AggSpec::CountAll => Agg::count_all("n"),
                AggSpec::Sum(c) => Agg::sum(c.as_str(), "total"),
                AggSpec::Max(c) => Agg::max(c.as_str(), "peak"),
            };
            q = q.group_by(&keys, vec![agg]);
        }
        if let Some((column, desc)) = &self.sort {
            let order = if *desc {
                SortOrder::Descending
            } else {
                SortOrder::Ascending
            };
            q = q.sort_by(column, order);
        }
        if let Some(n) = self.limit {
            q = q.limit(n);
        }
        q.run()
    }

    /// Virtual service cost in engine blocks: how many 64 Ki-row block
    /// boundaries the scan passes (minimum 1). This is the unit at
    /// which cooperative cancellation is observed, so it is also the
    /// granularity of the virtual-time cost model.
    pub fn cost_blocks(&self, table_rows: usize) -> u64 {
        (table_rows.div_ceil(borg_query::parallel::BLOCK_ROWS)).max(1) as u64
    }
}

/// Canonical byte rendering of a query result, the unit of the service
/// equivalence contract: serving a plan must yield bytes identical to
/// running the same plan directly against the library.
pub fn table_bytes(t: &Table) -> Vec<u8> {
    t.to_string().into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use borg_query::{DataType, Value};

    fn spec() -> PlanSpec {
        PlanSpec {
            table: TableId::InstanceEvents,
            filter: Some(FilterSpec {
                column: "priority".into(),
                op: CmpOp::Ge,
                value: 103,
            }),
            group: Some(GroupSpec {
                keys: vec!["tier".into()],
                agg: AggSpec::CountAll,
            }),
            sort: Some(("n".into(), true)),
            limit: Some(10),
        }
    }

    #[test]
    fn fingerprint_is_stable_and_sensitive() {
        let a = spec();
        let mut b = spec();
        assert_eq!(a.fingerprint(), spec().fingerprint());
        b.limit = Some(11);
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn fingerprint_is_pinned() {
        // The result-cache key and, through it, the serve event log: the
        // value must survive any change to the engine's hash tables.
        assert_eq!(spec().fingerprint(), 0x384f_86da_c9b7_12d6);
        assert_eq!(
            PlanSpec::scan(TableId::Usage).fingerprint(),
            0x6d27_1145_fb93_5c79
        );
    }

    #[test]
    fn execute_matches_hand_built_query() {
        let mut t = Table::new(vec![("tier", DataType::Str), ("priority", DataType::Int)]);
        for (tier, p) in [("prod", 120), ("beb", 30), ("prod", 110), ("mid", 103)] {
            t.push_row(vec![Value::str(tier), Value::Int(p)]).unwrap();
        }
        let got = spec().execute(t.clone(), None).unwrap();
        let want = Query::from(t)
            .filter(col("priority").ge(lit(103i64)))
            .group_by(&["tier"], vec![Agg::count_all("n")])
            .sort_by("n", SortOrder::Descending)
            .limit(10)
            .run()
            .unwrap();
        assert_eq!(table_bytes(&got), table_bytes(&want));
    }

    #[test]
    fn cost_is_block_rounded() {
        let p = PlanSpec::scan(TableId::Usage);
        assert_eq!(p.cost_blocks(0), 1);
        assert_eq!(p.cost_blocks(1), 1);
        let block = borg_query::parallel::BLOCK_ROWS;
        assert_eq!(p.cost_blocks(block), 1);
        assert_eq!(p.cost_blocks(block + 1), 2);
    }
}
