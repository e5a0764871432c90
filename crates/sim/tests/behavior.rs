//! Emergent-behavior tests: simulate a small cell-week and check that the
//! outcomes the paper measures actually emerge.

use borg_sim::{CellSim, SimConfig};
use borg_trace::priority::Tier;
use borg_trace::state::EventType;
use borg_trace::time::Micros;
use borg_workload::cells::CellProfile;

/// One shared week-long simulation: the statistical assertions below all
/// read the same outcome, so the suite pays for a single run.
fn week_outcome(_seed: u64) -> &'static borg_sim::CellOutcome {
    static OUTCOME: std::sync::OnceLock<borg_sim::CellOutcome> = std::sync::OnceLock::new();
    OUTCOME.get_or_init(|| {
        let profile = CellProfile::cell_2019('d');
        let mut cfg = SimConfig::tiny_for_tests(11);
        cfg.scale = 0.004;
        cfg.horizon = Micros::from_days(7);
        cfg.snapshot_at = Micros::from_days(3);
        CellSim::run_cell(&profile, &cfg)
    })
}

#[test]
fn utilization_emerges_near_profile_targets() {
    let outcome = week_outcome(12);
    let profile = CellProfile::cell_2019('d');
    let util = outcome.average_cpu_util_by_tier();
    let total: f64 = util.values().sum();
    let target: f64 = profile.tiers.iter().map(|t| t.target_cpu_util).sum();
    assert!(
        total > target * 0.5 && total < target * 1.6,
        "total util {total:.3} vs target {target:.3}"
    );
    // Production is the largest CPU consumer in cell d.
    assert!(util[&Tier::Production] > util[&Tier::Free]);
}

#[test]
fn allocation_exceeds_usage_overcommit() {
    let outcome = week_outcome(13);
    let util: f64 = outcome.average_cpu_util_by_tier().values().sum();
    let alloc: f64 = outcome.average_cpu_alloc_by_tier().values().sum();
    assert!(
        alloc > util * 1.5,
        "allocation {alloc:.3} should far exceed usage {util:.3}"
    );
}

#[test]
fn scheduling_delays_are_seconds_not_hours() {
    let outcome = week_outcome(14);
    let mut delays: Vec<f64> = outcome
        .trace
        .scheduling_delays()
        .iter()
        .map(|(_, d)| d.as_secs_f64())
        .collect();
    assert!(delays.len() > 100);
    delays.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let median = delays[delays.len() / 2];
    assert!(
        (0.01..60.0).contains(&median),
        "median delay = {median}s (Figure 10 is in seconds)"
    );
}

#[test]
fn batch_jobs_queue_and_enable() {
    let outcome = week_outcome(15);
    let queues = outcome
        .trace
        .collection_events
        .iter()
        .filter(|e| e.event_type == EventType::Queue)
        .count();
    let enables = outcome
        .trace
        .collection_events
        .iter()
        .filter(|e| e.event_type == EventType::Enable)
        .count();
    assert!(queues > 0, "beb jobs must pass through the batch queue");
    assert!(enables > 0 && enables <= queues);
}

#[test]
fn rescheduling_churn_exists() {
    let outcome = week_outcome(16);
    let (new, all) = outcome.trace.task_submits_per_hour();
    let (new, all) = (new.iter().sum::<u64>(), all.iter().sum::<u64>());
    assert!(
        all as f64 > new as f64 * 1.2,
        "resubmissions expected: new {new}, all {all}"
    );
}

#[test]
fn production_collections_rarely_evicted() {
    let outcome = week_outcome(17);
    let collections = outcome.trace.collections().by_id;
    let mut prod_total = 0u64;
    let mut prod_evicted = 0u64;
    let mut nonprod_evicted = 0u64;
    for info in collections.values() {
        let is_prod = info.priority.reporting_tier() == Tier::Production;
        let evicted = info.evictions > 0;
        if is_prod {
            prod_total += 1;
            prod_evicted += evicted as u64;
        } else {
            nonprod_evicted += evicted as u64;
        }
    }
    assert!(prod_total > 0);
    let prod_rate = prod_evicted as f64 / prod_total as f64;
    assert!(
        prod_rate < 0.05,
        "production eviction rate {prod_rate:.4} (paper: <0.002)"
    );
    assert!(
        nonprod_evicted >= prod_evicted,
        "evictions concentrate below production"
    );
}

#[test]
fn slack_orders_by_autopilot_mode() {
    use borg_trace::collection::VerticalScalingMode as M;
    let outcome = week_outcome(18);
    let median_slack = |mode: M| {
        let mut xs: Vec<f64> = outcome
            .metrics
            .slack
            .iter()
            .filter(|s| s.mode == mode)
            .map(|s| s.slack)
            .collect();
        assert!(!xs.is_empty(), "no slack samples for {mode:?}");
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        xs[xs.len() / 2]
    };
    let full = median_slack(M::Full);
    let constrained = median_slack(M::Constrained);
    let off = median_slack(M::Off);
    assert!(
        full < constrained && constrained < off,
        "slack medians: full {full:.3}, constrained {constrained:.3}, off {off:.3}"
    );
    // Figure 14: full autoscaling reduces peak slack by >25% for most jobs.
    assert!(off - full > 0.15, "full {full:.3} vs off {off:.3}");
}

#[test]
fn alloc_sets_present_and_hosting_production() {
    let outcome = week_outcome(19);
    let collections = outcome.trace.collections().by_id;
    let alloc_sets = collections
        .values()
        .filter(|c| c.collection_type == borg_trace::collection::CollectionType::AllocSet)
        .count();
    assert!(alloc_sets > 0);
    let frac = alloc_sets as f64 / collections.len() as f64;
    assert!(frac < 0.06, "alloc sets are a small share: {frac}");
    // Jobs inside allocs use memory harder than the rest (§5.1).
    let inside = outcome.metrics.fill_in_alloc.mean();
    let outside = outcome.metrics.fill_outside_alloc.mean();
    assert!(
        inside > outside,
        "in-alloc fill {inside:.3} vs outside {outside:.3}"
    );
}

#[test]
fn machine_snapshot_recorded() {
    let outcome = week_outcome(20);
    assert!(!outcome.metrics.machine_snapshots.is_empty());
    for s in &outcome.metrics.machine_snapshots {
        assert!((0.0..=1.0).contains(&s.cpu_utilization));
        assert!((0.0..=1.0).contains(&s.mem_utilization));
    }
}

#[test]
fn transitions_cover_common_paths() {
    use borg_trace::state::InstanceState as S;
    let outcome = week_outcome(21);
    let t = borg_trace::count_transitions(&outcome.trace.instance_events, |e| {
        (e.instance_id, e.time, e.event_type)
    });
    assert!(t.get(None, EventType::Submit) > 0);
    assert!(t.get(Some(S::Pending), EventType::Schedule) > 0);
    assert!(t.get(Some(S::Running), EventType::Finish) > 0);
    assert!(t.get(Some(S::Running), EventType::Kill) > 0);
    // Common paths are orders of magnitude more frequent than rare ones
    // (Figure 7).
    let common = t.get(Some(S::Pending), EventType::Schedule);
    let rare = t.get(Some(S::Running), EventType::Evict);
    assert!(common > rare);
}

#[test]
fn dependency_cascades_kill_children() {
    let outcome = week_outcome(22);
    let collections = outcome.trace.collections().by_id;
    let mut with_parent_killed = 0u64;
    let mut with_parent = 0u64;
    let mut without_parent_killed = 0u64;
    let mut without_parent = 0u64;
    for c in collections.values() {
        if c.collection_type != borg_trace::collection::CollectionType::Job {
            continue;
        }
        let killed = c.final_event == Some(EventType::Kill);
        if c.parent_id.is_some() {
            with_parent += 1;
            with_parent_killed += killed as u64;
        } else {
            without_parent += 1;
            without_parent_killed += killed as u64;
        }
    }
    assert!(with_parent > 20);
    let kp = with_parent_killed as f64 / with_parent as f64;
    let ko = without_parent_killed as f64 / without_parent as f64;
    assert!(kp > ko, "kill rate with parent {kp:.2} vs without {ko:.2}");
    assert!(
        kp > 0.7,
        "paper: 87% of jobs with parents are killed, got {kp:.2}"
    );
}

#[test]
fn deterministic_given_seed() {
    let profile = CellProfile::cell_2019('a');
    let cfg = SimConfig::tiny_for_tests(33);
    let a = CellSim::run_cell(&profile, &cfg);
    let b = CellSim::run_cell(&profile, &cfg);
    assert_eq!(
        a.trace.collection_events.len(),
        b.trace.collection_events.len()
    );
    assert_eq!(a.trace.instance_events.len(), b.trace.instance_events.len());
    assert_eq!(a.trace.usage.len(), b.trace.usage.len());
    assert_eq!(a.metrics.preemptions, b.metrics.preemptions);
}

#[test]
fn scheduling_explanation_renders() {
    let outcome = week_outcome(23);
    let report = outcome.explain_scheduling();
    assert!(report.contains("placements:"));
    assert!(report.contains("evictions by cause"));
    assert!(report.contains("cell d"));
}

#[test]
fn era_2011_has_no_new_features() {
    let profile = CellProfile::cell_2011();
    let cfg = SimConfig::tiny_for_tests(44);
    let outcome = CellSim::run_cell(&profile, &cfg);
    assert!(outcome
        .trace
        .collection_events
        .iter()
        .all(|e| e.event_type != EventType::Queue));
    assert!(outcome
        .trace
        .collection_events
        .iter()
        .all(|e| e.collection_type == borg_trace::collection::CollectionType::Job));
    assert_eq!(
        outcome.trace.schema,
        Some(borg_trace::trace::SchemaVersion::V2Trace2011)
    );
}
