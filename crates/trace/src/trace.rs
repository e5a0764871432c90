//! The trace bundle: all tables of one cell-month.

use crate::collection::{
    CollectionEvent, CollectionId, CollectionType, SchedulerKind, VerticalScalingMode,
};
use crate::instance::InstanceEvent;
use crate::machine::{MachineEvent, MachineEventType};
use crate::priority::Priority;
use crate::resources::Resources;
use crate::state::EventType;
use crate::time::Micros;
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

    /// Groups collection events into per-collection summaries.
    pub fn collections(&self) -> BTreeMap<CollectionId, CollectionInfo> {
        let mut out: BTreeMap<CollectionId, CollectionInfo> = BTreeMap::new();
        for ev in &self.collection_events {
            let entry = out.entry(ev.collection_id).or_insert(CollectionInfo {
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
            });
            if ev.event_type == EventType::Submit && ev.time < entry.submit_time {
                entry.submit_time = ev.time;
            }
            if ev.event_type.is_terminal() && entry.final_time.is_none_or(|t| ev.time >= t) {
                entry.final_event = Some(ev.event_type);
                entry.final_time = Some(ev.time);
            }
        }
        out
    }

    /// Number of distinct instances with at least one event.
    pub fn instance_count(&self) -> usize {
        let mut ids: Vec<_> = self.instance_events.iter().map(|e| e.instance_id).collect();
        ids.sort_unstable();
        ids.dedup();
        ids.len()
    }

    /// Total number of events across all tables.
    pub fn event_count(&self) -> usize {
        self.machine_events.len()
            + self.collection_events.len()
            + self.instance_events.len()
            + self.usage.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collection::UserId;
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
        let infos = trace.collections();
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

    #[test]
    fn counts() {
        let trace = Trace::new("t", SchemaVersion::V2Trace2011, Micros::from_days(1));
        assert_eq!(trace.instance_count(), 0);
        assert_eq!(trace.event_count(), 0);
        assert_eq!(SchemaVersion::V2Trace2011.name(), "v2-2011");
    }
}
