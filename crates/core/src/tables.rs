//! Trace tables as query-engine tables.
//!
//! The paper ran its analyses as SQL over BigQuery tables (§3, §9); this
//! module exposes the in-memory trace in the same relational form so
//! analyses can be written as [`borg_query`] pipelines. Each function
//! mirrors one of the published tables.
//!
//! The builders are columnar: one pass over the events fills one typed
//! vector per column, and the vectors become the table's columns as they
//! are — no per-row `Vec<Value>`, no per-cell `String`. Numeric columns
//! are plain values; only the three optional ids (an instance's
//! `machine_id`, a collection's `parent_id` and `alloc_collection_id`)
//! are [`PrimVec`]s that grow a validity mask at their first null. Every
//! string column here is the label of a small enum, so a cell is written
//! as a dictionary code ([`Labels`]).

use borg_query::{Column, PrimVec, QueryError, StrVec, Table};
use borg_trace::trace::Trace;

/// A string column of enum labels: a label is interned when its variant
/// first appears (so the dictionary is in first-appearance order, as if
/// every row's string had been pushed) and later rows reuse the code.
struct Labels<K> {
    column: StrVec,
    codes: Vec<(K, u32)>,
}

impl<K: Copy + PartialEq> Labels<K> {
    fn with_capacity(rows: usize) -> Labels<K> {
        Labels {
            column: StrVec::with_capacity(rows),
            codes: Vec::new(),
        }
    }

    #[inline]
    fn push(&mut self, variant: K, name: impl FnOnce(K) -> &'static str) {
        let code = match self.codes.iter().find(|(k, _)| *k == variant) {
            Some(&(_, code)) => code,
            None => {
                let code = self.column.intern(name(variant));
                self.codes.push((variant, code));
                code
            }
        };
        self.column.push_code(code);
    }

    fn finish(self) -> Column {
        Column::Str(self.column)
    }
}

/// The collection-events table:
/// `time, collection_id, event, type, priority, tier, scheduler,
/// vertical_scaling, parent_id, alloc_collection_id, user_id`.
pub fn collection_events_table(trace: &Trace) -> Result<Table, QueryError> {
    let n = trace.collection_events.len();
    let mut time = Vec::with_capacity(n);
    let mut collection_id = Vec::with_capacity(n);
    let mut event = Labels::with_capacity(n);
    let mut kind = Labels::with_capacity(n);
    let mut priority = Vec::with_capacity(n);
    let mut tier = Labels::with_capacity(n);
    let mut scheduler = Labels::with_capacity(n);
    let mut vertical_scaling = Labels::with_capacity(n);
    let mut parent_id = PrimVec::with_capacity(n);
    let mut alloc_collection_id = PrimVec::with_capacity(n);
    let mut user_id = Vec::with_capacity(n);
    for ev in &trace.collection_events {
        time.push(ev.time.as_micros() as i64);
        collection_id.push(ev.collection_id.0 as i64);
        event.push(ev.event_type, |e| e.name());
        kind.push(ev.collection_type, |c| c.name());
        priority.push(i64::from(ev.priority.raw()));
        tier.push(ev.priority.reporting_tier(), |t| t.short_name());
        scheduler.push(ev.scheduler, |s| match s {
            borg_trace::collection::SchedulerKind::Default => "default",
            borg_trace::collection::SchedulerKind::Batch => "batch",
        });
        vertical_scaling.push(ev.vertical_scaling, |v| v.name());
        parent_id.push(ev.parent_id.map(|p| p.0 as i64));
        alloc_collection_id.push(ev.alloc_collection_id.map(|p| p.0 as i64));
        user_id.push(i64::from(ev.user_id.0));
    }
    Table::from_columns(vec![
        ("time", Column::Int(time.into())),
        ("collection_id", Column::Int(collection_id.into())),
        ("event", event.finish()),
        ("type", kind.finish()),
        ("priority", Column::Int(priority.into())),
        ("tier", tier.finish()),
        ("scheduler", scheduler.finish()),
        ("vertical_scaling", vertical_scaling.finish()),
        ("parent_id", Column::Int(parent_id)),
        ("alloc_collection_id", Column::Int(alloc_collection_id)),
        ("user_id", Column::Int(user_id.into())),
    ])
}

/// The instance-events table:
/// `time, collection_id, instance_index, event, machine_id, cpu_request,
/// mem_request, priority, tier`.
pub fn instance_events_table(trace: &Trace) -> Result<Table, QueryError> {
    let n = trace.instance_events.len();
    let mut time = Vec::with_capacity(n);
    let mut collection_id = Vec::with_capacity(n);
    let mut instance_index = Vec::with_capacity(n);
    let mut event = Labels::with_capacity(n);
    let mut machine_id = PrimVec::with_capacity(n);
    let mut cpu_request = Vec::with_capacity(n);
    let mut mem_request = Vec::with_capacity(n);
    let mut priority = Vec::with_capacity(n);
    let mut tier = Labels::with_capacity(n);
    for ev in &trace.instance_events {
        time.push(ev.time.as_micros() as i64);
        collection_id.push(ev.instance_id.collection.0 as i64);
        instance_index.push(i64::from(ev.instance_id.index));
        event.push(ev.event_type, |e| e.name());
        machine_id.push(ev.machine_id.map(|m| i64::from(m.0)));
        cpu_request.push(ev.request.cpu);
        mem_request.push(ev.request.mem);
        priority.push(i64::from(ev.priority.raw()));
        tier.push(ev.priority.reporting_tier(), |t| t.short_name());
    }
    Table::from_columns(vec![
        ("time", Column::Int(time.into())),
        ("collection_id", Column::Int(collection_id.into())),
        ("instance_index", Column::Int(instance_index.into())),
        ("event", event.finish()),
        ("machine_id", Column::Int(machine_id)),
        ("cpu_request", Column::Float(cpu_request.into())),
        ("mem_request", Column::Float(mem_request.into())),
        ("priority", Column::Int(priority.into())),
        ("tier", tier.finish()),
    ])
}

/// The machine-events table: `time, machine_id, event, cpu, mem, platform`.
pub fn machine_events_table(trace: &Trace) -> Result<Table, QueryError> {
    let n = trace.machine_events.len();
    let mut time = Vec::with_capacity(n);
    let mut machine_id = Vec::with_capacity(n);
    let mut event = Labels::with_capacity(n);
    let mut cpu = Vec::with_capacity(n);
    let mut mem = Vec::with_capacity(n);
    let mut platform = Vec::with_capacity(n);
    for ev in &trace.machine_events {
        time.push(ev.time.as_micros() as i64);
        machine_id.push(i64::from(ev.machine_id.0));
        event.push(ev.event_type, |e| match e {
            borg_trace::machine::MachineEventType::Add => "add",
            borg_trace::machine::MachineEventType::Remove => "remove",
            borg_trace::machine::MachineEventType::Update => "update",
        });
        cpu.push(ev.capacity.cpu);
        mem.push(ev.capacity.mem);
        platform.push(i64::from(ev.platform.0));
    }
    Table::from_columns(vec![
        ("time", Column::Int(time.into())),
        ("machine_id", Column::Int(machine_id.into())),
        ("event", event.finish()),
        ("cpu", Column::Float(cpu.into())),
        ("mem", Column::Float(mem.into())),
        ("platform", Column::Int(platform.into())),
    ])
}

/// The instance-usage table: `start, end, collection_id, instance_index,
/// machine_id, avg_cpu, avg_mem, max_cpu, limit_cpu, limit_mem`.
pub fn usage_table(trace: &Trace) -> Result<Table, QueryError> {
    let n = trace.usage.len();
    let mut start = Vec::with_capacity(n);
    let mut end = Vec::with_capacity(n);
    let mut collection_id = Vec::with_capacity(n);
    let mut instance_index = Vec::with_capacity(n);
    let mut machine_id = Vec::with_capacity(n);
    let mut avg_cpu = Vec::with_capacity(n);
    let mut avg_mem = Vec::with_capacity(n);
    let mut max_cpu = Vec::with_capacity(n);
    let mut limit_cpu = Vec::with_capacity(n);
    let mut limit_mem = Vec::with_capacity(n);
    for u in &trace.usage {
        start.push(u.start.as_micros() as i64);
        end.push(u.end.as_micros() as i64);
        collection_id.push(u.instance_id.collection.0 as i64);
        instance_index.push(i64::from(u.instance_id.index));
        machine_id.push(i64::from(u.machine_id.0));
        avg_cpu.push(u.avg_usage.cpu);
        avg_mem.push(u.avg_usage.mem);
        max_cpu.push(u.max_usage.cpu);
        limit_cpu.push(u.limit.cpu);
        limit_mem.push(u.limit.mem);
    }
    Table::from_columns(vec![
        ("start", Column::Int(start.into())),
        ("end", Column::Int(end.into())),
        ("collection_id", Column::Int(collection_id.into())),
        ("instance_index", Column::Int(instance_index.into())),
        ("machine_id", Column::Int(machine_id.into())),
        ("avg_cpu", Column::Float(avg_cpu.into())),
        ("avg_mem", Column::Float(avg_mem.into())),
        ("max_cpu", Column::Float(max_cpu.into())),
        ("limit_cpu", Column::Float(limit_cpu.into())),
        ("limit_mem", Column::Float(limit_mem.into())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{simulate_cell, SimScale};
    use borg_query::prelude::*;
    use borg_query::Agg;
    use borg_workload::cells::CellProfile;
    use std::sync::OnceLock;

    fn outcome() -> &'static borg_sim::CellOutcome {
        static O: OnceLock<borg_sim::CellOutcome> = OnceLock::new();
        O.get_or_init(|| simulate_cell(&CellProfile::cell_2019('b'), SimScale::Tiny, 23))
    }

    #[test]
    fn collection_table_roundtrips_counts() {
        let t = collection_events_table(&outcome().trace).unwrap();
        assert_eq!(t.num_rows(), outcome().trace.collection_events.len());
    }

    #[test]
    fn sql_style_kill_rate_by_parent() {
        // The §5.2 analysis as a query pipeline: kill rate of jobs with
        // vs without parents.
        let t = collection_events_table(&outcome().trace).unwrap();
        let result = Query::from(t)
            .filter(col("type").eq(lit("job")).and(col("event").eq(lit("kill"))))
            .derive("has_parent", col("parent_id").is_null().not())
            .group_by(&["has_parent"], vec![Agg::count_all("kills")])
            .run()
            .unwrap();
        assert!(result.num_rows() >= 1);
        let total: i64 = (0..result.num_rows())
            .map(|r| result.value(r, "kills").unwrap().as_i64().unwrap())
            .sum();
        assert!(total > 0, "some jobs are killed");
    }

    #[test]
    fn sql_style_machine_capacity() {
        let t = machine_events_table(&outcome().trace).unwrap();
        let result = Query::from(t)
            .filter(col("event").eq(lit("add")))
            .group_by(
                &[],
                vec![Agg::sum("cpu", "total_cpu"), Agg::count_all("machines")],
            )
            .run()
            .unwrap();
        let total = result.value(0, "total_cpu").unwrap().as_f64().unwrap();
        let cap = outcome().trace.nominal_capacity().cpu;
        assert!((total - cap).abs() < 1e-9);
    }

    #[test]
    fn sql_style_usage_by_tier_joins() {
        // Join usage samples to their collections' tiers and aggregate —
        // the Figure 2 query in relational form.
        let usage = usage_table(&outcome().trace).unwrap();
        let coll = collection_events_table(&outcome().trace).unwrap();
        let submits = Query::from(coll)
            .filter(col("event").eq(lit("submit")))
            .select(&["collection_id", "tier"])
            .run()
            .unwrap();
        let result = Query::from(usage)
            .join(submits, &["collection_id"], &["collection_id"])
            .group_by(&["tier"], vec![Agg::sum("avg_cpu", "cpu")])
            .sort_by("cpu", SortOrder::Descending)
            .run()
            .unwrap();
        assert!(result.num_rows() >= 2);
        // Cell b: best-effort batch leads CPU usage among sampled records
        // or at least appears.
        let tiers: Vec<String> = (0..result.num_rows())
            .map(|r| result.value(r, "tier").unwrap().to_string())
            .collect();
        assert!(tiers.iter().any(|t| t == "beb"));
    }
}
