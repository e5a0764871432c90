//! The end-of-run checker. [`CellSim::run_cell`](crate::CellSim::run_cell)
//! calls [`check`] after `finalize` in debug builds and panics listing
//! every finding; release builds run none of it unless built with debug
//! assertions, as `scripts/check.sh --checked` does. It is the one judge
//! of lifecycle legality: the simulator emits every row it builds.
//! Four invariants: the trace passes
//! [`borg_trace::validate::validate`], whose lifecycle walk already
//! rejects a task event out of order; tasks are conserved over the same
//! walk, [`for_each_lifecycle`] (no job task is live at the horizon once
//! its job has ended); each machine's rows, in time order, alternate
//! `Add` and `Remove` from an `Add`, with `Update` only while it is up
//! (`validate` has no machine rule); and each machine's `committed` is
//! its occupants' discounted sum and fits its capacity. One gap is
//! counted, not reported: a job that ends before making its tasks ready
//! leaves each with a lone `Submit` (DESIGN.md §9).

use crate::cell::CellOutcome;
use crate::machine::Machine;
use borg_trace::collection::{CollectionId, CollectionType};
use borg_trace::for_each_lifecycle;
use borg_trace::instance::{InstanceEvent, InstanceId};
use borg_trace::machine::{MachineEvent, MachineEventType, MachineId};
use borg_trace::resources::Resources;
use borg_trace::time::Micros;
use borg_trace::validate::{validate, Violation};
use std::collections::{BTreeMap, BTreeSet};

/// How far, relative to its capacity, a machine's `committed` may stray:
/// it is kept by adding and subtracting floats, so it drifts by rounding.
const COMMIT_TOLERANCE: f64 = 1e-6;

/// One broken invariant.
#[derive(Debug, PartialEq)]
pub enum Finding {
    /// `validate` reports a §9 violation in the trace.
    Trace(Violation),
    /// A task of an ended job still live at the horizon.
    OutlivesJob(InstanceId),
    /// A machine's first row, in time order, that breaks its lifecycle:
    /// an `Add` while up, or a `Remove` or `Update` while down.
    MachineLifecycle(MachineId, Micros, MachineEventType),
    /// A machine's `committed`, then its occupants' sum, which differ.
    CommitDrift(MachineId, Resources, Resources),
    /// A machine's `committed`, then the capacity it exceeds.
    OverCommitted(MachineId, Resources, Resources),
}

/// What [`check`] found in one run.
#[derive(Debug)]
pub struct Report {
    /// Every broken invariant.
    pub findings: Vec<Finding>,
    /// Tasks whose job ended before making them ready: the carve-out.
    pub unreadied_tasks: u64,
    /// The jobs those tasks belong to.
    pub unreadied_jobs: u64,
}

/// Checks a finished run and its machines as the loop left them.
pub fn check(outcome: &CellOutcome, machines: &[Machine]) -> Report {
    let mut report = Report {
        findings: validate(&outcome.trace)
            .into_iter()
            .map(Finding::Trace)
            .collect(),
        unreadied_tasks: 0,
        unreadied_jobs: 0,
    };
    check_tasks_conserved(outcome, &mut report);
    check_machine_lifecycles(&outcome.trace.machine_events, &mut report.findings);
    for m in machines {
        check_commitment(m, &mut report.findings);
    }
    report
}

fn check_tasks_conserved(o: &CellOutcome, report: &mut Report) {
    // Job → has ended.
    let mut jobs: BTreeMap<CollectionId, bool> = BTreeMap::new();
    for e in &o.trace.collection_events {
        if e.collection_type == CollectionType::Job {
            *jobs.entry(e.collection_id).or_default() |= e.event_type.is_terminal();
        }
    }
    let events = &o.trace.instance_events;
    let key = |e: &InstanceEvent| (e.instance_id, e.time);
    let walked = for_each_lifecycle(events, key, &mut [(); 0], |mut side| {
        let (mut outlive, mut unreadied) = (Vec::new(), Vec::new());
        side.walk(|mut task| {
            let Some(&ended) = jobs.get(&task.id.collection) else {
                return; // alloc instance
            };
            let legal = task
                .positions
                .iter()
                .all(|&pos| task.sm.apply(events[pos].event_type).is_ok());
            // An illegal lifecycle is `validate`'s finding.
            let live = legal && task.sm.state().is_some_and(|s| !s.is_dead());
            if !live || !ended {
                return;
            }
            if task.positions.len() == 1 {
                unreadied.push(task.id.collection);
            } else {
                outlive.push(Finding::OutlivesJob(task.id));
            }
        });
        (outlive, unreadied)
    });
    let mut unreadied_jobs = BTreeSet::new();
    for (outlive, unreadied) in walked.sides {
        report.findings.extend(outlive);
        report.unreadied_tasks += unreadied.len() as u64;
        unreadied_jobs.extend(unreadied);
    }
    report.unreadied_jobs = unreadied_jobs.len() as u64;
}

fn check_machine_lifecycles(events: &[MachineEvent], out: &mut Vec<Finding>) {
    let mut rows: Vec<&MachineEvent> = events.iter().collect();
    rows.sort_by_key(|e| (e.machine_id, e.time));
    for machine in rows.chunk_by(|a, b| a.machine_id == b.machine_id) {
        let mut up = false;
        let broken = machine.iter().find(|e| {
            let legal = match e.event_type {
                MachineEventType::Add => !up,
                MachineEventType::Remove | MachineEventType::Update => up,
            };
            up = e.event_type != MachineEventType::Remove;
            !legal
        });
        if let Some(e) = broken {
            out.push(Finding::MachineLifecycle(
                e.machine_id,
                e.time,
                e.event_type,
            ));
        }
    }
}

fn check_commitment(m: &Machine, out: &mut Vec<Finding>) {
    let mut occupants = Resources::ZERO;
    for o in &m.occupants {
        occupants += o.discounted();
    }
    let slack = m.capacity * COMMIT_TOLERANCE;
    let drift = m.committed - occupants;
    if drift.cpu.abs() > slack.cpu || drift.mem.abs() > slack.mem {
        out.push(Finding::CommitDrift(m.id, m.committed, occupants));
    }
    if !m.committed.fits_in(&(m.capacity + slack)) {
        out.push(Finding::OverCommitted(m.id, m.committed, m.capacity));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Occupant;
    use crate::{CellSim, FaultConfig, SimConfig};
    use borg_trace::priority::Tier;
    use borg_trace::state::EventType;
    use borg_workload::cells::CellProfile;
    use std::sync::OnceLock;

    /// Cell a, seed 1, Tiny (`run_cell` has checked it clean), and the
    /// trace positions of a task that ran and finished in a job that
    /// ended: `Submit` first, `Finish` last.
    fn tiny() -> (CellOutcome, InstanceId, Vec<usize>) {
        static OUTCOME: OnceLock<CellOutcome> = OnceLock::new();
        let o = OUTCOME.get_or_init(|| {
            CellSim::run_cell(&CellProfile::cell_2019('a'), &SimConfig::tiny_for_tests(1))
        });
        let events = &o.trace.instance_events;
        let finish = events.iter().find(|e| e.event_type == EventType::Finish);
        let task = finish.expect("a Tiny cell finishes tasks").instance_id;
        let positions = (0..events.len())
            .filter(|&i| events[i].instance_id == task)
            .collect();
        (o.clone(), task, positions)
    }

    fn findings(o: &CellOutcome) -> Vec<Finding> {
        check(o, &[]).findings
    }

    #[test]
    fn the_carve_out_is_counted_not_reported() {
        let (o, _, _) = tiny();
        let report = check(&o, &[]);
        assert_eq!(report.findings, []);
        let (new_tasks, _) = o.trace.task_submits_per_hour();
        assert_eq!(new_tasks.iter().sum::<u64>(), 4713);
        assert_eq!((report.unreadied_tasks, report.unreadied_jobs), (728, 75));
    }

    /// An event before any `Submit`, and a second `Submit` while live:
    /// `validate`'s lifecycle walk rejects both.
    #[test]
    fn an_event_out_of_lifecycle_order() {
        let (o, task, events) = tiny();
        let (mut early, mut twice) = (o.clone(), o);
        early.trace.instance_events.remove(events[0]);
        let submit = twice.trace.instance_events[events[0]];
        twice.trace.instance_events.insert(events[0], submit);
        for broken in [early, twice] {
            let found = findings(&broken);
            assert!(
                found.iter().any(|f| matches!(f,
                    Finding::Trace(Violation::IllegalInstanceTransition { instance, .. })
                        if *instance == task)),
                "{found:?}"
            );
        }
    }

    #[test]
    fn a_task_of_an_ended_job_without_its_terminal() {
        let (mut o, task, events) = tiny();
        assert!(events.len() > 2);
        o.trace.instance_events.remove(events[events.len() - 1]);
        // A lifecycle that stops while running is legal to `validate`.
        assert_eq!(findings(&o), [Finding::OutlivesJob(task)]);
    }

    /// A tiny run whose machines fail and come back is clean; a second
    /// `Add` of a machine 1 µs after its first is not, nor is an
    /// `Update` 1 µs after a machine's `Remove` (1 µs before it, it is).
    #[test]
    fn a_machine_added_twice_or_updated_while_down() {
        let profile = CellProfile::cell_2019('a');
        let cfg = SimConfig {
            faults: Some(FaultConfig::from_model(&profile.failure_model)),
            ..SimConfig::tiny_for_tests(13)
        };
        let o = CellSim::run_cell(&profile, &cfg);
        assert_eq!(findings(&o), []);
        assert!(o.trace.machine_failures() > 0 && o.trace.machine_repairs() > 0);
        let rows = &o.trace.machine_events;
        let first_add = rows[0];
        assert_eq!(first_add.event_type, MachineEventType::Add);
        let remove = rows
            .iter()
            .find(|e| e.event_type == MachineEventType::Remove);
        let remove = remove.expect("a machine failed");
        // At the capacity it was added with, so `validate` sees no change.
        let added = rows.iter().find(|e| e.machine_id == remove.machine_id);
        let update = MachineEvent {
            event_type: MachineEventType::Update,
            time: remove.time,
            ..*added.expect("added before it failed")
        };
        for mut row in [first_add, update] {
            row.time += Micros(1);
            let mut broken = o.clone();
            broken.trace.machine_events.push(row);
            let want = Finding::MachineLifecycle(row.machine_id, row.time, row.event_type);
            assert_eq!(findings(&broken), [want]);
        }
        // The same `Update` 1 µs before the `Remove`, while up, is legal.
        let mut fine = o.clone();
        let before = remove.time - Micros(1);
        fine.trace.machine_events.push(MachineEvent {
            time: before,
            ..update
        });
        assert_eq!(findings(&fine), []);
    }

    /// Machine 3 with production tasks of `cpus` NCU, one per owner, and
    /// `drift` added to its commitment; and what the check finds on it.
    fn machine_findings(cpus: &[f64], drift: f64) -> (Machine, Vec<Finding>) {
        let mut m = Machine::new(MachineId(3), Resources::new(1.0, 1.0));
        for (owner, &cpu) in cpus.iter().enumerate() {
            m.add(Occupant {
                owner,
                index: 0,
                is_alloc_instance: false,
                tier: Tier::Production,
                request: Resources::new(cpu, cpu / 2.0),
            });
        }
        m.committed.cpu += drift;
        let mut out = Vec::new();
        check_commitment(&m, &mut out);
        (m, out)
    }

    #[test]
    fn committed_drifted_from_its_occupants() {
        let (m, found) = machine_findings(&[0.3, 0.2], 0.01);
        assert!(
            matches!(found[..], [Finding::CommitDrift(MachineId(3), c, _)] if c == m.committed),
            "{found:?}"
        );
    }

    #[test]
    fn committed_above_capacity() {
        // `add` does not check the fit: three production tasks of 1.0 NCU
        // commit 1.35.
        let (m, found) = machine_findings(&[1.0; 3], 0.0);
        let over = Finding::OverCommitted(m.id, m.committed, m.capacity);
        assert_eq!(found, [over]);
    }
}
