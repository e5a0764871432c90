//! The trace bundle: all tables of one cell-month.

use crate::collection::{
    CollectionEvent, CollectionId, CollectionType, SchedulerKind, VerticalScalingMode,
};
use crate::instance::{InstanceEvent, InstanceId};
use crate::machine::{MachineEvent, MachineEventType};
use crate::priority::{Priority, Tier};
use crate::resources::Resources;
use crate::state::EventType;
use crate::time::{Micros, MICROS_PER_HOUR};
use std::collections::BTreeMap;

/// Which public trace format the bundle follows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchemaVersion {
    /// The 2011 "v2" trace: one cell, priority bands 0–11, no alloc sets,
    /// no batch queueing, no vertical scaling.
    V2Trace2011,
    /// The 2019 "v3" trace: collections, raw priorities, batch queueing,
    /// dependencies, vertical scaling, CPU histograms.
    V3Trace2019,
}

impl SchemaVersion {
    /// Short name for reports.
    pub const fn name(self) -> &'static str {
        match self {
            SchemaVersion::V2Trace2011 => "v2-2011",
            SchemaVersion::V3Trace2019 => "v3-2019",
        }
    }
}

/// A complete trace of one cell over one observation window.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Cell name ("2011", or "a" through "h" for the 2019 cells).
    pub cell_name: String,
    /// Schema the trace follows.
    pub schema: Option<SchemaVersion>,
    /// Length of the observation window.
    pub horizon: Micros,
    /// Machine add/remove/update events.
    pub machine_events: Vec<MachineEvent>,
    /// Collection (job / alloc set) lifecycle events.
    pub collection_events: Vec<CollectionEvent>,
    /// Instance (task / alloc instance) lifecycle events.
    pub instance_events: Vec<InstanceEvent>,
    /// Five-minute usage samples.
    pub usage: Vec<crate::usage::UsageRecord>,
}

/// Summary of one collection, derived from its events.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CollectionInfo {
    /// Collection id.
    pub id: CollectionId,
    /// Job or alloc set.
    pub collection_type: CollectionType,
    /// Priority.
    pub priority: Priority,
    /// Scheduler kind.
    pub scheduler: SchedulerKind,
    /// Vertical-scaling mode.
    pub vertical_scaling: VerticalScalingMode,
    /// Parent collection, if any.
    pub parent_id: Option<CollectionId>,
    /// Alloc set hosting this job, if any.
    pub alloc_collection_id: Option<CollectionId>,
    /// First submit time.
    pub submit_time: Micros,
    /// Final terminal event observed, if any.
    pub final_event: Option<EventType>,
    /// Time of the final terminal event.
    pub final_time: Option<Micros>,
    /// Its instances (a job's tasks): the highest index of an instance
    /// `Submit` row + 1, or 0 when it has none.
    pub tasks: u32,
    /// Its instances' `Evict` rows. An instance that vanishes with its
    /// machine is `Lost`, not evicted.
    pub evictions: u64,
}

/// What a trace's rows say about its collections: each collection's
/// summary, and the two cell totals the same instance rows give.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Collections {
    /// Every collection with a collection row, by id.
    pub by_id: BTreeMap<CollectionId, CollectionInfo>,
    /// Tasks that vanished with their machine: the `Lost` rows of every
    /// instance outside an alloc set. An alloc instance is not a task.
    pub tasks_lost: u64,
    /// §5.1: what the alloc sets reserved, as (CPU, memory) · hours: each
    /// alloc instance's request from its `Schedule` row to its next
    /// terminal row, or to the horizon. Summed in row order, the
    /// instances open at the horizon last, in id order.
    pub alloc_set_hours: Resources,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new(cell_name: impl Into<String>, schema: SchemaVersion, horizon: Micros) -> Trace {
        Trace {
            cell_name: cell_name.into(),
            schema: Some(schema),
            horizon,
            machine_events: Vec::new(),
            collection_events: Vec::new(),
            instance_events: Vec::new(),
            usage: Vec::new(),
        }
    }

    /// Sorts every table by time (stable, preserving intra-timestamp
    /// emission order).
    pub fn sort(&mut self) {
        self.machine_events.sort_by_key(|e| e.time);
        self.collection_events.sort_by_key(|e| e.time);
        self.instance_events.sort_by_key(|e| e.time);
        self.usage.sort_by_key(|u| u.start);
    }

    /// Number of distinct machines ever added.
    pub fn machine_count(&self) -> usize {
        let mut ids: Vec<_> = self
            .machine_events
            .iter()
            .filter(|e| e.event_type == MachineEventType::Add)
            .map(|e| e.machine_id)
            .collect();
        ids.sort_unstable();
        ids.dedup();
        ids.len()
    }

    /// Total cell capacity at a given time: the sum of the latest
    /// capacity of every machine present at `t`.
    pub fn capacity_at(&self, t: Micros) -> Resources {
        let mut latest: BTreeMap<crate::machine::MachineId, Option<Resources>> = BTreeMap::new();
        for ev in &self.machine_events {
            if ev.time > t {
                // Machine events are expected to be sorted, but do not
                // rely on it.
                continue;
            }
            match ev.event_type {
                MachineEventType::Add | MachineEventType::Update => {
                    latest.insert(ev.machine_id, Some(ev.capacity));
                }
                MachineEventType::Remove => {
                    latest.insert(ev.machine_id, None);
                }
            }
        }
        latest.values().flatten().copied().sum()
    }

    /// Nominal capacity: capacity at trace start (after the initial adds
    /// at time zero).
    pub fn nominal_capacity(&self) -> Resources {
        self.capacity_at(Micros::ZERO)
    }

    /// Groups the collection rows into per-collection summaries, then
    /// reads the instance rows once: for each collection's tasks and
    /// evictions, and for the cell's lost tasks and alloc-set hours.
    pub fn collections(&self) -> Collections {
        let mut out = Collections::default();
        for ev in &self.collection_events {
            let entry = out.by_id.entry(ev.collection_id).or_insert(CollectionInfo {
                id: ev.collection_id,
                collection_type: ev.collection_type,
                priority: ev.priority,
                scheduler: ev.scheduler,
                vertical_scaling: ev.vertical_scaling,
                parent_id: ev.parent_id,
                alloc_collection_id: ev.alloc_collection_id,
                submit_time: ev.time,
                final_event: None,
                final_time: None,
                tasks: 0,
                evictions: 0,
            });
            if ev.event_type == EventType::Submit && ev.time < entry.submit_time {
                entry.submit_time = ev.time;
            }
            if ev.event_type.is_terminal() && entry.final_time.is_none_or(|t| ev.time >= t) {
                entry.final_event = Some(ev.event_type);
                entry.final_time = Some(ev.time);
            }
        }
        let mut find = finder(out.by_id.keys().copied().collect());
        let mut infos: Vec<&mut CollectionInfo> = out.by_id.values_mut().collect();
        let mut open: BTreeMap<InstanceId, (Micros, Resources)> = BTreeMap::new();
        for e in &self.instance_events {
            let info = find(e.instance_id.collection).map(|at| &mut *infos[at]);
            let alloc = matches!(&info, Some(c) if c.collection_type == CollectionType::AllocSet);
            match (e.event_type, info) {
                (EventType::Submit, Some(c)) => c.tasks = c.tasks.max(e.instance_id.index + 1),
                (EventType::Evict, Some(c)) => c.evictions += 1,
                (EventType::Lost, _) if !alloc => out.tasks_lost += 1,
                _ => {}
            }
            if alloc && e.event_type == EventType::Schedule {
                open.insert(e.instance_id, (e.time, e.request));
            } else if alloc && e.event_type.is_terminal() {
                if let Some((from, request)) = open.remove(&e.instance_id) {
                    out.alloc_set_hours += request * e.time.saturating_sub(from).as_hours_f64();
                }
            }
        }
        for (from, request) in open.into_values() {
            out.alloc_set_hours += request * self.horizon.saturating_sub(from).as_hours_f64();
        }
        out
    }

    /// Figure 8: the jobs' collection `Submit` rows per hour, one count
    /// per started hour of `[0, horizon)`. A row counts in the hour its
    /// time falls in — the later one when it is on the boundary — and not
    /// at all past the last hour.
    pub fn job_submits_per_hour(&self) -> Vec<u64> {
        let mut hours = self.hours();
        for e in &self.collection_events {
            if e.collection_type == CollectionType::Job && e.event_type == EventType::Submit {
                count_in_hour(&mut hours, e.time);
            }
        }
        hours
    }

    /// Figure 9: the job tasks' `Submit` rows per hour, binned as in
    /// [`Trace::job_submits_per_hour`], as `(new, all)`:
    /// "new" counts each task's first `Submit`, "all" its resubmissions
    /// too. Alloc instances are not tasks and are not counted.
    pub fn task_submits_per_hour(&self) -> (Vec<u64>, Vec<u64>) {
        let (jobs, mut find) = self.jobs();
        // Per job, which of its tasks have been submitted.
        let mut submitted: Vec<Vec<bool>> = vec![Vec::new(); jobs];
        let (mut new, mut all) = (self.hours(), self.hours());
        for e in &self.instance_events {
            if e.event_type != EventType::Submit {
                continue;
            }
            let Some(seen) = find(e.instance_id.collection).map(|job| &mut submitted[job]) else {
                continue; // an alloc instance
            };
            let task = e.instance_id.index as usize;
            if seen.len() <= task {
                seen.resize(task + 1, false);
            }
            if !std::mem::replace(&mut seen[task], true) {
                count_in_hour(&mut new, e.time);
            }
            count_in_hour(&mut all, e.time);
        }
        (new, all)
    }

    /// Figure 10: each job's scheduling delay and the reporting tier of
    /// its `Schedule` row, in the order of those rows. The delay runs from
    /// the row that made the job ready — its `Submit`, or its `Enable`
    /// when the batch queue held it: the latest of either — to the job's
    /// first collection `Schedule`. A job never scheduled gives none.
    pub fn scheduling_delays(&self) -> Vec<(Tier, Micros)> {
        let (jobs, mut find) = self.jobs();
        // Per job: `None` until it is made ready, then since when, then
        // `Some(None)` once it is scheduled.
        let mut ready: Vec<Option<Option<Micros>>> = vec![None; jobs];
        let mut delays = Vec::new();
        for e in &self.collection_events {
            let job = find(e.collection_id).filter(|_| e.collection_type == CollectionType::Job);
            let Some(job) = job else { continue };
            match e.event_type {
                EventType::Submit | EventType::Enable => {
                    if let Some(since) = ready[job].get_or_insert(Some(e.time)) {
                        *since = e.time;
                    }
                }
                EventType::Schedule => {
                    if let Some(since) = ready[job].as_mut().and_then(Option::take) {
                        let delay = e.time.saturating_sub(since);
                        delays.push((e.priority.reporting_tier(), delay));
                    }
                }
                _ => {}
            }
        }
        delays
    }

    /// Machine failures: the machine `Remove` rows.
    pub fn machine_failures(&self) -> u64 {
        self.machine_events
            .iter()
            .filter(|e| e.event_type == MachineEventType::Remove)
            .count() as u64
    }

    /// Machine repairs within the window: the machine `Add` rows after
    /// time zero. The rows at zero are the initial fleet.
    pub fn machine_repairs(&self) -> u64 {
        self.machine_events
            .iter()
            .filter(|e| e.event_type == MachineEventType::Add && e.time > Micros::ZERO)
            .count() as u64
    }

    /// The number of jobs, and a [`finder`] of their positions.
    fn jobs(&self) -> (usize, impl FnMut(CollectionId) -> Option<usize>) {
        let mut ids: Vec<CollectionId> = self
            .collection_events
            .iter()
            .filter(|e| e.collection_type == CollectionType::Job)
            .map(|e| e.collection_id)
            .collect();
        ids.sort_unstable();
        ids.dedup();
        (ids.len(), finder(ids))
    }

    /// One zero per started hour of `[0, horizon)`.
    fn hours(&self) -> Vec<u64> {
        vec![0; self.horizon.as_micros().div_ceil(MICROS_PER_HOUR) as usize]
    }

    /// Number of distinct instances with at least one event.
    pub fn instance_count(&self) -> usize {
        let mut ids: Vec<_> = self.instance_events.iter().map(|e| e.instance_id).collect();
        ids.sort_unstable();
        ids.dedup();
        ids.len()
    }
}

/// Finds rows' collections among `ids`, sorted and distinct: a row's
/// collection's position, by binary search, skipped while rows keep to the
/// last row's collection, as a job's tasks' instance rows often do.
fn finder(ids: Vec<CollectionId>) -> impl FnMut(CollectionId) -> Option<usize> {
    let mut last = (CollectionId(0), ids.binary_search(&CollectionId(0)).ok());
    move |id| {
        if last.0 != id {
            last = (id, ids.binary_search(&id).ok());
        }
        last.1
    }
}

/// Counts a row at `t` in its hour of `hours`, if the window has it.
fn count_in_hour(hours: &mut [u64], t: Micros) {
    if let Some(n) = hours.get_mut((t.as_micros() / MICROS_PER_HOUR) as usize) {
        *n += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collection::UserId;
    use crate::instance::InstanceId;
    use crate::machine::{MachineId, Platform};

    fn add_machine(trace: &mut Trace, id: u32, cpu: f64, t: Micros) {
        trace.machine_events.push(MachineEvent::add(
            t,
            MachineId(id),
            Resources::new(cpu, cpu / 2.0),
            Platform(0),
        ));
    }

    fn collection_event(id: u64, t: Micros, ty: EventType, parent: Option<u64>) -> CollectionEvent {
        CollectionEvent {
            time: t,
            collection_id: CollectionId(id),
            event_type: ty,
            collection_type: CollectionType::Job,
            priority: Priority::new(200),
            scheduler: SchedulerKind::Default,
            vertical_scaling: VerticalScalingMode::Off,
            parent_id: parent.map(CollectionId),
            alloc_collection_id: None,
            user_id: UserId(0),
        }
    }

    #[test]
    fn capacity_tracks_machine_lifecycle() {
        let mut trace = Trace::new("t", SchemaVersion::V3Trace2019, Micros::from_days(1));
        add_machine(&mut trace, 0, 1.0, Micros::ZERO);
        add_machine(&mut trace, 1, 0.5, Micros::ZERO);
        trace.machine_events.push(MachineEvent {
            time: Micros::from_hours(2),
            machine_id: MachineId(0),
            event_type: MachineEventType::Remove,
            capacity: Resources::ZERO,
            platform: Platform(0),
        });
        assert_eq!(trace.nominal_capacity(), Resources::new(1.5, 0.75));
        assert_eq!(
            trace.capacity_at(Micros::from_hours(3)),
            Resources::new(0.5, 0.25)
        );
        assert_eq!(trace.machine_count(), 2);
    }

    #[test]
    fn collections_summarize_events() {
        let mut trace = Trace::new("t", SchemaVersion::V3Trace2019, Micros::from_days(1));
        trace.collection_events.push(collection_event(
            1,
            Micros::from_secs(10),
            EventType::Submit,
            None,
        ));
        trace.collection_events.push(collection_event(
            1,
            Micros::from_secs(20),
            EventType::Schedule,
            None,
        ));
        trace.collection_events.push(collection_event(
            1,
            Micros::from_secs(90),
            EventType::Finish,
            None,
        ));
        trace.collection_events.push(collection_event(
            2,
            Micros::from_secs(15),
            EventType::Submit,
            Some(1),
        ));
        let infos = trace.collections().by_id;
        assert_eq!(infos.len(), 2);
        let c1 = &infos[&CollectionId(1)];
        assert_eq!(c1.submit_time, Micros::from_secs(10));
        assert_eq!(c1.final_event, Some(EventType::Finish));
        assert_eq!(c1.final_time, Some(Micros::from_secs(90)));
        let c2 = &infos[&CollectionId(2)];
        assert_eq!(c2.parent_id, Some(CollectionId(1)));
        assert_eq!(c2.final_event, None);
    }

    #[test]
    fn sort_orders_all_tables() {
        let mut trace = Trace::new("t", SchemaVersion::V3Trace2019, Micros::from_days(1));
        trace.collection_events.push(collection_event(
            1,
            Micros::from_secs(20),
            EventType::Submit,
            None,
        ));
        trace.collection_events.push(collection_event(
            2,
            Micros::from_secs(10),
            EventType::Submit,
            None,
        ));
        trace.sort();
        assert!(trace.collection_events[0].time <= trace.collection_events[1].time);
    }

    /// Job rows `(id, seconds, event, priority)` and task rows
    /// `(job, task, seconds, event)` over a two-hour window.
    fn trace_of(
        jobs: &[(u64, u64, EventType, u16)],
        tasks: &[(u64, u32, u64, EventType)],
    ) -> Trace {
        let mut trace = Trace::new("t", SchemaVersion::V3Trace2019, Micros::from_hours(2));
        for &(id, secs, ty, priority) in jobs {
            let mut e = collection_event(id, Micros::from_secs(secs), ty, None);
            e.priority = Priority::new(priority);
            trace.collection_events.push(e);
        }
        for &(job, task, secs, ty) in tasks {
            trace.instance_events.push(InstanceEvent {
                time: Micros::from_secs(secs),
                instance_id: InstanceId::new(CollectionId(job), task),
                event_type: ty,
                machine_id: None,
                request: Resources::ZERO,
                priority: Priority::new(200),
                alloc_instance: None,
            });
        }
        trace
    }

    #[test]
    fn a_queued_job_waits_from_enable_and_an_unqueued_one_from_submit() {
        use EventType as E;
        let trace = trace_of(
            &[
                (1, 10, E::Submit, 110),
                (1, 10, E::Queue, 110),
                (2, 20, E::Submit, 200),
                (2, 25, E::Schedule, 200),
                (1, 100, E::Enable, 110),
                (1, 130, E::Schedule, 110),
            ],
            &[],
        );
        assert_eq!(
            trace.scheduling_delays(),
            [
                (Tier::Production, Micros::from_secs(5)),
                (Tier::BestEffortBatch, Micros::from_secs(30)),
            ]
        );
    }

    #[test]
    fn a_job_killed_before_any_schedule_gives_no_delay() {
        use EventType as E;
        let jobs = [
            (1, 10, E::Submit, 110),
            (1, 10, E::Queue, 110),
            (1, 50, E::Kill, 110),
        ];
        assert_eq!(trace_of(&jobs, &[]).scheduling_delays(), []);
    }

    #[test]
    fn an_evicted_and_resubmitted_task_is_new_once_and_in_all_twice() {
        use EventType as E;
        let trace = trace_of(
            &[(1, 0, E::Submit, 200)],
            &[
                (1, 0, 10, E::Submit),
                (1, 0, 20, E::Schedule),
                (1, 0, 3700, E::Evict),
                (1, 0, 3700, E::Submit),
                (1, 0, 3710, E::Schedule),
            ],
        );
        assert_eq!(trace.task_submits_per_hour(), (vec![1, 0], vec![1, 1]));
        let job = trace.collections().by_id[&CollectionId(1)];
        assert_eq!((job.tasks, job.evictions), (1, 1));
    }

    #[test]
    fn alloc_instance_submits_and_lost_rows_are_not_counted() {
        use EventType as E;
        let mut trace = trace_of(
            &[(1, 0, E::Submit, 200), (9, 0, E::Submit, 200)],
            &[
                (1, 0, 10, E::Submit),
                (9, 0, 10, E::Submit),
                (9, 0, 10, E::Schedule),
                (9, 0, 60, E::Lost),
            ],
        );
        trace.collection_events[1].collection_type = CollectionType::AllocSet;
        assert_eq!(trace.task_submits_per_hour(), (vec![1, 0], vec![1, 0]));
        assert_eq!(trace.job_submits_per_hour(), [1, 0]);
        let collections = trace.collections();
        assert!(collections.by_id.values().all(|c| c.evictions == 0));
        assert_eq!(collections.tasks_lost, 0);
    }

    fn remove_machine(trace: &mut Trace, id: u32, t: Micros) {
        trace.machine_events.push(MachineEvent {
            time: t,
            machine_id: MachineId(id),
            event_type: MachineEventType::Remove,
            capacity: Resources::ZERO,
            platform: Platform(0),
        });
    }

    #[test]
    fn initial_adds_at_time_zero_are_not_repairs() {
        let mut trace = Trace::new("t", SchemaVersion::V3Trace2019, Micros::from_days(1));
        add_machine(&mut trace, 0, 1.0, Micros::ZERO);
        add_machine(&mut trace, 1, 1.0, Micros::ZERO);
        remove_machine(&mut trace, 0, Micros::from_hours(2));
        add_machine(&mut trace, 0, 1.0, Micros::from_hours(3));
        assert_eq!(trace.machine_repairs(), 1);
    }

    #[test]
    fn a_remove_with_no_later_add_is_a_failure_but_not_a_repair() {
        let mut trace = Trace::new("t", SchemaVersion::V3Trace2019, Micros::from_days(1));
        add_machine(&mut trace, 0, 1.0, Micros::ZERO);
        remove_machine(&mut trace, 0, Micros::from_hours(2));
        assert_eq!((trace.machine_failures(), trace.machine_repairs()), (1, 0));
    }

    #[test]
    fn an_alloc_instance_lost_is_not_a_lost_task() {
        use EventType as E;
        let mut trace = trace_of(
            &[(1, 0, E::Submit, 200), (9, 0, E::Submit, 200)],
            &[
                (1, 0, 10, E::Schedule),
                (9, 0, 10, E::Schedule),
                (1, 0, 60, E::Lost),
                (9, 0, 60, E::Lost),
            ],
        );
        trace.collection_events[1].collection_type = CollectionType::AllocSet;
        assert_eq!(trace.collections().tasks_lost, 1);
    }

    #[test]
    fn an_alloc_instance_placed_at_the_horizon_is_charged_up_to_the_horizon() {
        use EventType as E;
        // Alloc set 9 over a two-hour window: instance 0 reserves from
        // 0:00 to its `Finish` at 0:30, instance 1 from 1:00 to the end.
        let mut trace = trace_of(
            &[(1, 0, E::Submit, 200), (9, 0, E::Submit, 200)],
            &[
                (9, 0, 0, E::Schedule),
                (1, 0, 0, E::Schedule),
                (9, 0, 1800, E::Finish),
                (9, 1, 3600, E::Schedule),
                (1, 0, 3600, E::Finish),
            ],
        );
        trace.collection_events[1].collection_type = CollectionType::AllocSet;
        for e in &mut trace.instance_events {
            e.request = Resources::new(0.5, 0.25);
        }
        assert_eq!(
            trace.collections().alloc_set_hours,
            Resources::new(0.75, 0.375)
        );
    }

    #[test]
    fn a_collections_tasks_count_up_to_its_highest_submitted_index() {
        use EventType as E;
        let trace = trace_of(
            &[(1, 0, E::Submit, 200), (2, 0, E::Submit, 200)],
            &[
                (1, 0, 10, E::Submit),
                (1, 3, 10, E::Submit),
                (2, 0, 20, E::Schedule),
            ],
        );
        let tasks: Vec<u32> = trace
            .collections()
            .by_id
            .values()
            .map(|c| c.tasks)
            .collect();
        // Job 2 has a `Schedule` row but no `Submit`.
        assert_eq!(tasks, [4, 0]);
    }

    #[test]
    fn a_submit_on_an_hour_boundary_counts_in_the_later_hour() {
        use EventType as E;
        let trace = trace_of(
            &[(1, 3600, E::Submit, 200), (2, 7200, E::Submit, 200)],
            &[(1, 0, 3600, E::Submit), (2, 0, 7200, E::Submit)],
        );
        // The second job lands on the window's end, past its last hour.
        assert_eq!(trace.job_submits_per_hour(), [0, 1]);
        assert_eq!(trace.task_submits_per_hour(), (vec![0, 1], vec![0, 1]));
    }

    #[test]
    fn counts() {
        let trace = Trace::new("t", SchemaVersion::V2Trace2011, Micros::from_days(1));
        assert_eq!(trace.instance_count(), 0);
        assert_eq!(SchemaVersion::V2Trace2011.name(), "v2-2011");
    }
}
