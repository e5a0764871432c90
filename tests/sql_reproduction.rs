//! The paper's analyses re-expressed as SQL-style query pipelines over
//! the relational trace views — checked against the native analysis
//! modules on the same simulated cell.

use borg2019::core::analyses::submission;
use borg2019::core::pipeline::{simulate_cell, SimScale};
use borg2019::core::tables;
use borg2019::query::prelude::*;
use borg2019::query::Agg;
use borg2019::sim::CellOutcome;
use borg2019::workload::cells::CellProfile;
use std::sync::OnceLock;

fn outcome() -> &'static CellOutcome {
    static O: OnceLock<CellOutcome> = OnceLock::new();
    O.get_or_init(|| simulate_cell(&CellProfile::cell_2019('e'), SimScale::Tiny, 91))
}

const HOUR_US: f64 = 3.6e9;

#[test]
fn figure8_as_sql_matches_metrics() {
    // SELECT bucket(time, hour) AS hour, COUNT(*) FROM collection_events
    // WHERE event = 'submit' AND type = 'job' GROUP BY hour
    let coll = tables::collection_events_table(&outcome().trace).expect("table");
    let per_hour = Query::from(coll)
        .filter(
            col("event")
                .eq(lit("submit"))
                .and(col("type").eq(lit("job"))),
        )
        .derive("hour", col("time").bucket(HOUR_US))
        .group_by(&["hour"], vec![Agg::count_all("jobs")])
        .run()
        .expect("query");
    let sql_total: i64 = (0..per_hour.num_rows())
        .map(|r| per_hour.value(r, "jobs").unwrap().as_i64().unwrap())
        .sum();
    // Figure 8 counts the same rows.
    let trace_total: u64 = outcome().trace.job_submits_per_hour().iter().sum();
    assert_eq!(sql_total as u64, trace_total);
}

#[test]
fn figure9_churn_as_sql() {
    // Reschedules = submissions beyond the first per instance.
    let inst = tables::instance_events_table(&outcome().trace).expect("table");
    let submits = Query::from(inst)
        .filter(col("event").eq(lit("submit")))
        .group_by(
            &["collection_id", "instance_index"],
            vec![Agg::count_all("submits")],
        )
        .run()
        .expect("query");
    let mut new = 0i64;
    let mut all = 0i64;
    for r in 0..submits.num_rows() {
        let s = submits.value(r, "submits").unwrap().as_i64().unwrap();
        new += 1;
        all += s;
    }
    let sql_churn = (all - new) as f64 / new as f64;
    let metric_churn = submission::churn_ratio(outcome());
    assert!(
        (sql_churn - metric_churn).abs() < 0.05,
        "sql churn {sql_churn} vs metric churn {metric_churn}"
    );
}

#[test]
fn users_analysis_count_distinct() {
    // How many distinct users submit per tier — a COUNT(DISTINCT) query
    // of the kind the paper's accounting discussion implies.
    let coll = tables::collection_events_table(&outcome().trace).expect("table");
    let users = Query::from(coll)
        .filter(col("event").eq(lit("submit")))
        .group_by(&["tier"], vec![Agg::count_distinct("user_id", "users")])
        .sort_by("users", SortOrder::Descending)
        .run()
        .expect("query");
    assert!(users.num_rows() >= 3);
    for r in 0..users.num_rows() {
        let n = users.value(r, "users").unwrap().as_i64().unwrap();
        assert!(n >= 1);
    }
}

#[test]
fn hourly_usage_bucketing_consistent() {
    // Bucket the usage samples by hour and check the totals stay within
    // the trace's sampled usage mass.
    let usage = tables::usage_table(&outcome().trace).expect("table");
    let direct: f64 = outcome().trace.usage.iter().map(|u| u.avg_usage.cpu).sum();
    let per_hour = Query::from(usage)
        .derive("hour", col("start").bucket(HOUR_US))
        .group_by(&["hour"], vec![Agg::sum("avg_cpu", "cpu")])
        .run()
        .expect("query");
    let sql: f64 = (0..per_hour.num_rows())
        .map(|r| per_hour.value(r, "cpu").unwrap().as_f64().unwrap())
        .sum();
    assert!((sql - direct).abs() < 1e-6 * (1.0 + direct));
}
