//! End-to-end integration: profile → workload → simulation → trace →
//! analyses, across crates.

use borg2019::core::analyses::{allocs, delay, submission, summary, terminations, transitions};
use borg2019::core::pipeline::{load_trace_dir, simulate_2011, simulate_cell, SimScale};
use borg2019::core::tables;
use borg2019::query::prelude::*;
use borg2019::query::Agg;
use borg2019::sim::CellOutcome;
use borg2019::trace::priority::Tier;
use borg2019::workload::cells::CellProfile;
use std::sync::OnceLock;

fn cell_b() -> &'static CellOutcome {
    static O: OnceLock<CellOutcome> = OnceLock::new();
    O.get_or_init(|| simulate_cell(&CellProfile::cell_2019('b'), SimScale::Tiny, 77))
}

fn cell_2011() -> &'static CellOutcome {
    static O: OnceLock<CellOutcome> = OnceLock::new();
    O.get_or_init(|| simulate_2011(SimScale::Tiny, 78))
}

#[test]
fn whole_pipeline_produces_valid_traces() {
    for outcome in [cell_b(), cell_2011()] {
        assert!(outcome.trace.collections().len() > 100);
    }
}

#[test]
fn csv_round_trip_of_simulated_trace() {
    let dir = std::env::temp_dir().join(format!("borg_e2e_{}", std::process::id()));
    borg2019::trace::csv::write_trace_dir(&cell_b().trace, &dir).expect("write");
    let (back, q) = borg2019::trace::csv::read_trace_dir_lenient(&dir);
    assert!(q.is_clean(), "{}", q.summary());
    assert_eq!(
        back.collection_events.len(),
        cell_b().trace.collection_events.len()
    );
    assert_eq!(
        back.instance_events.len(),
        cell_b().trace.instance_events.len()
    );
    assert_eq!(back.usage.len(), cell_b().trace.usage.len());
    assert_eq!(back.machine_events, cell_b().trace.machine_events);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn analyses_agree_with_query_engine() {
    // The hand-written §5.2 analysis and the SQL-style pipeline must
    // count the same kills.
    let stats = terminations::termination_stats(&[cell_b()]);
    let coll = tables::collection_events_table(&cell_b().trace).expect("table");
    let killed_jobs = Query::from(coll)
        .filter(col("type").eq(lit("job")).and(col("event").eq(lit("kill"))))
        .group_by(&[], vec![Agg::count_all("kills")])
        .run()
        .expect("query");
    let kills = killed_jobs.value(0, "kills").unwrap().as_i64().unwrap();
    assert!(kills > 0);
    // Sanity: the analysis-level kill rates are consistent with a
    // non-zero kill count.
    assert!(stats.kill_rate_with_parent > 0.0 || stats.kill_rate_without_parent > 0.0);
}

#[test]
fn longitudinal_rates_grow() {
    let scale = SimScale::Tiny.config(0).scale;
    let r2011 = submission::job_rate_ccdf(cell_2011(), scale)
        .median()
        .unwrap();
    let r2019 = submission::job_rate_ccdf(cell_b(), scale).median().unwrap();
    assert!(
        r2019 > r2011 * 1.5,
        "2019 median job rate {r2019} vs 2011 {r2011}"
    );
    // All-task submissions grow with the jobs.
    let task_rate = |o| {
        let (_, all_tasks) = submission::task_rate_ccdfs(o, scale);
        all_tasks.median().unwrap()
    };
    let (t2011, t2019) = (task_rate(cell_2011()), task_rate(cell_b()));
    assert!(
        t2019 > t2011,
        "2019 median task rate {t2019} vs 2011 {t2011}"
    );
    // §4's tier migration: work moves into best-effort batch and out of
    // the free tier.
    let share = |o: &CellOutcome, tier| {
        let by_tier = o.average_cpu_util_by_tier();
        by_tier.get(&tier).copied().unwrap_or(0.0)
    };
    let beb = |o| share(o, Tier::BestEffortBatch);
    let free = |o| share(o, Tier::Free);
    assert!(
        beb(cell_b()) > beb(cell_2011()),
        "best-effort batch share: 2011 {} vs 2019 {}",
        beb(cell_2011()),
        beb(cell_b())
    );
    assert!(
        free(cell_b()) < free(cell_2011()),
        "free share: 2011 {} vs 2019 {}",
        free(cell_2011()),
        free(cell_b())
    );
}

#[test]
fn table1_summary_over_real_outcomes() {
    let s19 = summary::summarize_era("2019", &[cell_b()]);
    let s11 = summary::summarize_era("2011", &[cell_2011()]);
    assert!(s19.has_alloc_sets && !s11.has_alloc_sets);
    assert!(s19.has_batch_queueing && !s11.has_batch_queueing);
    assert!(s19.max_priority >= 360, "monitoring priorities present");
}

#[test]
fn delay_and_transition_metrics_populated() {
    let ccdf = delay::delay_ccdf(cell_b());
    assert!(ccdf.len() > 100);
    assert!(ccdf.median().unwrap() < 120.0, "median delay in seconds");
    let t = transitions::combined_transitions(cell_b());
    assert!(t.total() > 1000);
}

#[test]
fn figure7_counts_survive_a_trace_directory_round_trip() {
    // Repair only reorders rows of different entities within one
    // timestamp, so each lifecycle replays the same: Figure 7 counted from
    // a loaded directory is Figure 7 of the simulated cell.
    for (name, outcome) in [("b", cell_b()), ("2011", cell_2011())] {
        let dir = std::env::temp_dir().join(format!("borg_e2e_fig7_{name}_{}", std::process::id()));
        borg2019::trace::csv::write_trace_dir(&outcome.trace, &dir).expect("write");
        let (back, quality) = load_trace_dir(&dir);
        std::fs::remove_dir_all(&dir).ok();
        assert!(
            quality.quarantine.is_clean(),
            "{}",
            quality.quarantine.summary()
        );
        let [collections, instances] = transitions::table_transitions(&outcome.trace);
        assert!(
            collections.total() > 100 && instances.total() > 1000,
            "cell {name}"
        );
        assert_eq!(
            transitions::table_transitions(&back),
            [collections, instances],
            "cell {name}"
        );
    }
}

#[test]
fn alloc_statistics_consistent_between_views() {
    let stats = allocs::alloc_stats(&[cell_b()]);
    // Trace-level recount of alloc sets must match the analysis.
    let infos = cell_b().trace.collections();
    let alloc_sets = infos
        .values()
        .filter(|c| c.collection_type == borg2019::trace::collection::CollectionType::AllocSet)
        .count();
    let expected = alloc_sets as f64 / infos.len() as f64;
    assert!((stats.alloc_set_collection_fraction - expected).abs() < 1e-12);
}

#[test]
fn tier_usage_sums_to_total() {
    let per_tier = cell_b().average_cpu_util_by_tier();
    let total: f64 = per_tier.values().sum();
    assert!(total > 0.1 && total < 1.0, "total utilization {total}");
    assert!(per_tier.contains_key(&Tier::BestEffortBatch));
    assert!(
        !per_tier.contains_key(&Tier::Monitoring),
        "monitoring folded into prod"
    );
}
