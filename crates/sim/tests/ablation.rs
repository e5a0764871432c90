//! The ablation knobs change the mechanisms they claim to change.

use borg_sim::{CellSim, SimConfig};
use borg_trace::collection::VerticalScalingMode;
use borg_trace::state::EventType;
use borg_trace::time::Micros;
use borg_workload::cells::CellProfile;

fn cfg(seed: u64) -> SimConfig {
    let mut c = SimConfig::tiny_for_tests(seed);
    c.horizon = Micros::from_days(2);
    c
}

#[test]
fn disabling_batch_queue_removes_queue_events() {
    let profile = CellProfile::cell_2019('b');
    let mut c = cfg(51);
    c.disable_batch_queue = true;
    let o = CellSim::run_cell(&profile, &c);
    assert!(o
        .trace
        .collection_events
        .iter()
        .all(|e| e.event_type != EventType::Queue));

    let baseline = CellSim::run_cell(&profile, &cfg(51));
    assert!(baseline
        .trace
        .collection_events
        .iter()
        .any(|e| e.event_type == EventType::Queue));
}

#[test]
fn disabling_autopilot_leaves_slack_unreclaimed() {
    let profile = CellProfile::cell_2019('a');
    let median = |o: &borg_sim::CellOutcome, mode: VerticalScalingMode| {
        let mut xs: Vec<f64> = o
            .metrics
            .slack
            .iter()
            .filter(|s| s.mode == mode)
            .map(|s| s.slack)
            .collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        xs.get(xs.len() / 2).copied()
    };
    let mut c = cfg(52);
    c.disable_autopilot = true;
    let ablated = CellSim::run_cell(&profile, &c);
    // With autopilot off every sample reports mode Off.
    assert!(ablated
        .metrics
        .slack
        .iter()
        .all(|s| s.mode == VerticalScalingMode::Off));

    let baseline = CellSim::run_cell(&profile, &cfg(52));
    let full = median(&baseline, VerticalScalingMode::Full).expect("full-mode samples");
    let off = median(&ablated, VerticalScalingMode::Off).expect("off-mode samples");
    assert!(
        off > full,
        "unreclaimed slack {off:.3} should exceed autoscaled slack {full:.3}"
    );
}

#[test]
fn equivalence_class_caching_speeds_up_wide_jobs() {
    let profile = CellProfile::cell_2019('b'); // beb-heavy: wide jobs
    let p90 = |o: &borg_sim::CellOutcome| {
        let delays = o.trace.scheduling_delays();
        let mut xs: Vec<f64> = delays.iter().map(|(_, d)| d.as_secs_f64()).collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        xs[(xs.len() as f64 * 0.9) as usize]
    };
    let baseline = CellSim::run_cell(&profile, &cfg(53));
    let mut c = cfg(53);
    c.equivalence_class_speedup = 1.0;
    let ablated = CellSim::run_cell(&profile, &c);
    assert!(
        p90(&ablated) > p90(&baseline),
        "without caching p90 {:.1}s should exceed baseline {:.1}s",
        p90(&ablated),
        p90(&baseline)
    );
}

#[test]
fn gang_scheduling_starts_jobs_whole() {
    use borg_trace::state::InstanceState;
    let profile = CellProfile::cell_2019('b');
    let mut c = cfg(54);
    c.gang_scheduling = true;
    let o = CellSim::run_cell(&profile, &c);
    // Under gang scheduling a job is either fully started or not started:
    // at every point where a job's first task is scheduled, its sibling
    // schedules happen at the same timestamp.
    let mut first_sched: std::collections::BTreeMap<u64, (borg_trace::time::Micros, u32, u32)> =
        Default::default();
    for ev in &o.trace.instance_events {
        if ev.event_type == EventType::Schedule {
            let e =
                first_sched
                    .entry(ev.instance_id.collection.0)
                    .or_insert((ev.time, 0, u32::MAX));
            if ev.time == e.0 {
                e.1 += 1;
            }
        }
    }
    // Many multi-task jobs scheduled ≥2 tasks at one instant.
    let gangs = first_sched.values().filter(|(_, n, _)| *n >= 2).count();
    assert!(gangs > 10, "gang placements observed: {gangs}");
    let _ = InstanceState::Pending;

    // Jobs still run and finish under gang mode.
    assert!(o
        .trace
        .collection_events
        .iter()
        .any(|e| e.event_type == EventType::Finish));
}
