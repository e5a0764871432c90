//! The SQL battery: eight named queries over the relational trace views,
//! one per kind of work `borg-query` does. `sql_battery` runs it over one
//! big cell, `paper_small` over each of its nine small ones.

use crate::harness::Bench;
use borg_core::analyses::submission;
use borg_core::tables;
use borg_query::prelude::*;
use borg_sim::CellOutcome;
use borg_trace::trace::Trace;
use std::hint::black_box;

const HOUR_US: f64 = 3.6e9;

/// The four trace tables as query-engine tables.
pub struct Tables {
    coll: Table,
    inst: Table,
    mach: Table,
    usage: Table,
}

/// `core::tables::*_table` ×4 under one `core.tables` span.
pub fn build_tables(b: &mut Bench, trace: &Trace) -> Tables {
    let t = b.span("core.tables", |_| Tables {
        coll: tables::collection_events_table(trace).expect("collection table"),
        inst: tables::instance_events_table(trace).expect("instance table"),
        mach: tables::machine_events_table(trace).expect("machine table"),
        usage: tables::usage_table(trace).expect("usage table"),
    });
    let rows = t.coll.num_rows() + t.inst.num_rows() + t.mach.num_rows() + t.usage.num_rows();
    b.add("core.table_rows", rows as f64);
    t
}

/// `Query::from` takes its table by value, so every query pays a clone of
/// its source; the clone gets its own span so a borrowed-source engine
/// would show up as `query.table_clone_ms` going to zero.
fn source(b: &mut Bench, table: &Table) -> Table {
    b.add("query.rows_scanned", table.num_rows() as f64);
    b.span("query.table_clone", |_| table.clone())
}

fn run_query(b: &mut Bench, name: &'static str, q: Query) -> Table {
    let out = b.span(name, |_| q.run().expect("battery query"));
    b.add("query.groups_out", out.num_rows() as f64);
    out
}

/// Runs the eight queries and returns what the two checked ones answered,
/// so the caller can check them outside its timed section.
pub fn run_battery(b: &mut Bench, t: &Tables) -> BatteryAnswers {
    // Filter + bucket + group-by: hourly job submissions.
    let src = source(b, &t.coll);
    let fig8 = run_query(
        b,
        "query.q_fig8_submit_rate",
        Query::from(src)
            .filter(
                col("event")
                    .eq(lit("submit"))
                    .and(col("type").eq(lit("job"))),
            )
            .derive("hour", col("time").bucket(HOUR_US))
            .group_by(&["hour"], vec![Agg::count_all("jobs")]),
    );

    // Filter + two-key group-by with about as many groups as instances.
    let src = source(b, &t.inst);
    let fig9 = run_query(
        b,
        "query.q_fig9_churn",
        Query::from(src)
            .filter(col("event").eq(lit("submit")))
            .group_by(
                &["collection_id", "instance_index"],
                vec![Agg::count_all("submits")],
            ),
    );

    // Low-cardinality dictionary keys.
    let src = source(b, &t.inst);
    black_box(run_query(
        b,
        "query.q_tier_event_counts",
        Query::from(src).group_by(&["tier", "event"], vec![Agg::count_all("n")]),
    ));

    // Count distinct.
    let src = source(b, &t.coll);
    black_box(run_query(
        b,
        "query.q_users_distinct",
        Query::from(src)
            .filter(col("event").eq(lit("submit")))
            .group_by(&["tier"], vec![Agg::count_distinct("user_id", "users")])
            .sort_by("users", SortOrder::Descending),
    ));

    // Two-key sort of the whole instance table.
    let src = source(b, &t.inst);
    black_box(run_query(
        b,
        "query.q_sort_tier_time",
        Query::from(src).sort_by_many(&[
            ("tier", SortOrder::Ascending),
            ("time", SortOrder::Descending),
        ]),
    ));

    // Hash join instance ⋈ collection, then group-by on a joined column.
    let src = source(b, &t.coll);
    let submits = run_query(
        b,
        "query.q_join_inst_coll",
        Query::from(src)
            .filter(col("event").eq(lit("submit")))
            .select(&["collection_id", "scheduler", "vertical_scaling"]),
    );
    let src = source(b, &t.inst);
    black_box(run_query(
        b,
        "query.q_join_inst_coll",
        Query::from(src)
            .join(submits, &["collection_id"], &["collection_id"])
            .group_by(
                &["scheduler", "vertical_scaling"],
                vec![Agg::count_all("events"), Agg::sum("cpu_request", "cpu")],
            ),
    ));

    // Percentile aggregate.
    let src = source(b, &t.usage);
    black_box(run_query(
        b,
        "query.q_usage_p99_by_machine",
        Query::from(src).group_by(
            &["machine_id"],
            vec![Agg::percentile("avg_cpu", 99.0, "p99_cpu")],
        ),
    ));

    // Scan with a rare predicate: one machine's evictions.
    let src = source(b, &t.inst);
    black_box(run_query(
        b,
        "query.q_filter_selective",
        Query::from(src).filter(
            col("machine_id")
                .eq(lit(7i64))
                .and(col("event").eq(lit("evict"))),
        ),
    ));
    black_box(&t.mach);

    let sum = |t: &Table, c: &str| -> i64 {
        (0..t.num_rows())
            .map(|r| t.value(r, c).ok().and_then(|v| v.as_i64()).unwrap_or(0))
            .sum()
    };
    BatteryAnswers {
        job_submits: sum(&fig8, "jobs"),
        instances: fig9.num_rows() as i64,
        instance_submits: sum(&fig9, "submits"),
    }
}

/// What the two checked queries answered.
pub struct BatteryAnswers {
    job_submits: i64,
    instances: i64,
    instance_submits: i64,
}

impl BatteryAnswers {
    /// Checks the answers against the simulator's pre-aggregated metrics:
    /// SQL job submissions within (0.9, 1] of the metric (which also counts
    /// alloc sets), as in `tests/sql_reproduction.rs`, and churn within
    /// (0.9, 1] of `submission::churn_ratio`. The SQL counts alloc
    /// instances, which are never resubmitted, among the instances and the
    /// metric does not, so the SQL figure is lower by their share: up to
    /// 0.018 over 600 cells of 60 seeds. The test's absolute 0.05 holds
    /// for its one cell; a 48-machine cell with a churn above 3 misses it
    /// about once in 500.
    pub fn check(&self, b: &mut Bench, outcome: &CellOutcome) {
        let metric_jobs: f64 = outcome.metrics.job_submissions.totals().iter().sum();
        let sql_jobs = self.job_submits as f64;
        b.check(
            &format!("q_fig8_submit_rate: {sql_jobs} jobs vs metric {metric_jobs}"),
            sql_jobs <= metric_jobs + 0.5 && sql_jobs > metric_jobs * 0.9,
        );
        let sql_churn =
            (self.instance_submits - self.instances) as f64 / self.instances.max(1) as f64;
        let metric_churn = submission::churn_ratio(outcome);
        b.check(
            &format!("q_fig9_churn: {sql_churn} vs metric {metric_churn}"),
            sql_churn <= metric_churn + 1e-9 && sql_churn > metric_churn * 0.9,
        );
    }
}
