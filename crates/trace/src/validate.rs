//! Trace validation: the §9 "logical invariants" as an executable check.
//!
//! §9 of the paper describes checking "a raft of logical invariants" such
//! as *the total resource usage of all instances on a machine should be
//! smaller than the machine's capacity* and *a submit event should happen
//! before any termination event*. [`validate`] runs those checks over a
//! trace and returns every violation, so generators can assert their
//! output is internally consistent and analysts can quantify collection
//! noise in external traces.

use crate::group::entity_order;
use crate::machine::{MachineEventType, MachineId};
use crate::resources::Resources;
use crate::state::{EventType, StateMachine};
use crate::time::Micros;
use crate::trace::Trace;
use crate::usage::UsageRecord;
use std::collections::BTreeMap;
use std::fmt;

/// One invariant violation found in a trace.
#[derive(Debug, Clone, PartialEq)]
pub enum Violation {
    /// An instance's event sequence broke the lifecycle state machine.
    IllegalInstanceTransition {
        /// The instance.
        instance: crate::instance::InstanceId,
        /// The event that was illegal.
        event: EventType,
        /// When.
        time: Micros,
    },
    /// A collection's event sequence broke the lifecycle state machine.
    IllegalCollectionTransition {
        /// The collection.
        collection: crate::collection::CollectionId,
        /// The event that was illegal.
        event: EventType,
        /// When.
        time: Micros,
    },
    /// A terminal event preceded the first submit.
    TerminationBeforeSubmit {
        /// The collection.
        collection: crate::collection::CollectionId,
    },
    /// A usage record references a machine never added to the cell.
    UsageOnUnknownMachine {
        /// The machine.
        machine: MachineId,
    },
    /// Summed average usage on a machine exceeded its capacity in some
    /// window by more than the tolerance.
    MachineOverCapacity {
        /// The machine.
        machine: MachineId,
        /// Start of the offending window.
        window: Micros,
        /// Summed CPU usage in the window.
        cpu_used: f64,
        /// The machine's CPU capacity.
        cpu_capacity: f64,
    },
    /// A usage record with a negative or inverted time window.
    BadUsageWindow {
        /// The instance.
        instance: crate::instance::InstanceId,
    },
    /// An instance event references a collection with no events.
    OrphanInstance {
        /// The instance.
        instance: crate::instance::InstanceId,
    },
    /// A usage record's CPU histogram is not monotone.
    NonMonotoneHistogram {
        /// The instance.
        instance: crate::instance::InstanceId,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::IllegalInstanceTransition {
                instance,
                event,
                time,
            } => {
                write!(f, "instance {instance}: illegal event {event} at {time}")
            }
            Violation::IllegalCollectionTransition {
                collection,
                event,
                time,
            } => {
                write!(
                    f,
                    "collection {collection}: illegal event {event} at {time}"
                )
            }
            Violation::TerminationBeforeSubmit { collection } => {
                write!(f, "collection {collection}: terminated before submit")
            }
            Violation::UsageOnUnknownMachine { machine } => {
                write!(f, "usage on unknown machine {machine}")
            }
            Violation::MachineOverCapacity {
                machine,
                window,
                cpu_used,
                cpu_capacity,
            } => {
                write!(
                    f,
                    "machine {machine} over capacity at {window}: used {cpu_used:.3} of {cpu_capacity:.3} NCU"
                )
            }
            Violation::BadUsageWindow { instance } => {
                write!(f, "instance {instance}: inverted usage window")
            }
            Violation::OrphanInstance { instance } => {
                write!(f, "instance {instance}: no owning collection events")
            }
            Violation::NonMonotoneHistogram { instance } => {
                write!(f, "instance {instance}: non-monotone CPU histogram")
            }
        }
    }
}

/// Validation configuration.
#[derive(Debug, Clone, Copy)]
pub struct ValidateConfig {
    /// Allowed over-capacity factor before flagging a machine window
    /// (CPU is work-conserving, so small excursions above capacity are
    /// legitimate; default 1.05).
    pub capacity_tolerance: f64,
    /// Upper bound on reported violations (traces are huge; default 10k).
    pub max_violations: usize,
}

impl Default for ValidateConfig {
    fn default() -> Self {
        ValidateConfig {
            capacity_tolerance: 1.05,
            max_violations: 10_000,
        }
    }
}

/// Runs all invariant checks and returns the violations found.
pub fn validate(trace: &Trace) -> Vec<Violation> {
    validate_with(trace, &ValidateConfig::default())
}

/// Runs all invariant checks with explicit configuration.
pub fn validate_with(trace: &Trace, cfg: &ValidateConfig) -> Vec<Violation> {
    let mut violations = Vec::new();

    check_collection_lifecycles(trace, &mut violations, cfg);
    check_instance_lifecycles(trace, &mut violations, cfg);
    check_usage(trace, &mut violations, cfg);

    violations.truncate(cfg.max_violations);
    violations
}

fn check_collection_lifecycles(trace: &Trace, out: &mut Vec<Violation>, cfg: &ValidateConfig) {
    let events = &trace.collection_events;
    let order = entity_order(events, &|e| (e.collection_id, e.time));
    for group in order.chunk_by(|&a, &b| events[a].collection_id == events[b].collection_id) {
        let id = events[group[0]].collection_id;
        let lifecycle = || group.iter().map(|&pos| &events[pos]);
        if let Some(first_terminal) = lifecycle().find(|e| e.event_type.is_terminal()) {
            if let Some(first_submit) = lifecycle().find(|e| e.event_type == EventType::Submit) {
                if first_terminal.time < first_submit.time {
                    out.push(Violation::TerminationBeforeSubmit { collection: id });
                }
            }
        }
        let mut sm = StateMachine::new();
        for ev in lifecycle() {
            if sm.apply(ev.event_type).is_err() {
                out.push(Violation::IllegalCollectionTransition {
                    collection: id,
                    event: ev.event_type,
                    time: ev.time,
                });
                break;
            }
            if out.len() >= cfg.max_violations {
                return;
            }
        }
    }
}

fn check_instance_lifecycles(trace: &Trace, out: &mut Vec<Violation>, cfg: &ValidateConfig) {
    let mut known_collections: Vec<_> = trace
        .collection_events
        .iter()
        .map(|e| e.collection_id)
        .collect();
    known_collections.sort_unstable();
    known_collections.dedup();
    let events = &trace.instance_events;
    let order = entity_order(events, &|e| (e.instance_id, e.time));
    for group in order.chunk_by(|&a, &b| events[a].instance_id == events[b].instance_id) {
        let id = events[group[0]].instance_id;
        if !known_collections.is_empty() && known_collections.binary_search(&id.collection).is_err()
        {
            out.push(Violation::OrphanInstance { instance: id });
        }
        let mut sm = StateMachine::new();
        for ev in group.iter().map(|&pos| &events[pos]) {
            if sm.apply(ev.event_type).is_err() {
                out.push(Violation::IllegalInstanceTransition {
                    instance: id,
                    event: ev.event_type,
                    time: ev.time,
                });
                break;
            }
        }
        if out.len() >= cfg.max_violations {
            return;
        }
    }
}

fn check_usage(trace: &Trace, out: &mut Vec<Violation>, cfg: &ValidateConfig) {
    // Machine capacities (latest add/update wins; removal handled
    // approximately — validation is a noise detector, not a re-simulation).
    let mut capacity: BTreeMap<MachineId, Resources> = BTreeMap::new();
    for ev in &trace.machine_events {
        match ev.event_type {
            MachineEventType::Add | MachineEventType::Update => {
                capacity.insert(ev.machine_id, ev.capacity);
            }
            MachineEventType::Remove => {}
        }
    }

    // The records that count towards a (machine, window-start) sum.
    let mut windowed: Vec<&UsageRecord> = Vec::with_capacity(trace.usage.len());
    for rec in &trace.usage {
        if rec.end < rec.start {
            out.push(Violation::BadUsageWindow {
                instance: rec.instance_id,
            });
            continue;
        }
        if !rec.cpu_histogram.is_monotone() {
            out.push(Violation::NonMonotoneHistogram {
                instance: rec.instance_id,
            });
        }
        if !capacity.contains_key(&rec.machine_id) && !capacity.is_empty() {
            out.push(Violation::UsageOnUnknownMachine {
                machine: rec.machine_id,
            });
            continue;
        }
        windowed.push(rec);
        if out.len() >= cfg.max_violations {
            return;
        }
    }

    // One sort groups each window's records, still in table order, which
    // is the order their usage is summed in.
    let window_of = |rec: &&UsageRecord| (rec.machine_id, rec.start);
    let order = entity_order(&windowed, &window_of);
    for window in order.chunk_by(|&a, &b| window_of(&windowed[a]) == window_of(&windowed[b])) {
        let (machine, start) = window_of(&windowed[window[0]]);
        let mut used = Resources::ZERO;
        for &pos in window {
            used += windowed[pos].avg_usage;
        }
        if let Some(cap) = capacity.get(&machine) {
            if used.cpu > cap.cpu * cfg.capacity_tolerance {
                out.push(Violation::MachineOverCapacity {
                    machine,
                    window: start,
                    cpu_used: used.cpu,
                    cpu_capacity: cap.cpu,
                });
            }
            if out.len() >= cfg.max_violations {
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collection::{
        CollectionEvent, CollectionId, CollectionType, SchedulerKind, UserId, VerticalScalingMode,
    };
    use crate::instance::{InstanceEvent, InstanceId};
    use crate::machine::{MachineEvent, Platform};
    use crate::priority::Priority;
    use crate::trace::SchemaVersion;
    use crate::usage::{CpuHistogram, UsageRecord};

    fn base_trace() -> Trace {
        let mut t = Trace::new("t", SchemaVersion::V3Trace2019, Micros::from_days(1));
        t.machine_events.push(MachineEvent::add(
            Micros::ZERO,
            MachineId(0),
            Resources::new(1.0, 1.0),
            Platform(0),
        ));
        t
    }

    fn cev(id: u64, time_s: u64, ty: EventType) -> CollectionEvent {
        CollectionEvent {
            time: Micros::from_secs(time_s),
            collection_id: CollectionId(id),
            event_type: ty,
            collection_type: CollectionType::Job,
            priority: Priority::new(200),
            scheduler: SchedulerKind::Default,
            vertical_scaling: VerticalScalingMode::Off,
            parent_id: None,
            alloc_collection_id: None,
            user_id: UserId(0),
        }
    }

    fn iev(id: u64, idx: u32, time_s: u64, ty: EventType) -> InstanceEvent {
        InstanceEvent {
            time: Micros::from_secs(time_s),
            instance_id: InstanceId::new(CollectionId(id), idx),
            event_type: ty,
            machine_id: Some(MachineId(0)),
            request: Resources::new(0.1, 0.1),
            priority: Priority::new(200),
            alloc_instance: None,
        }
    }

    fn usage(id: u64, avg_cpu: f64) -> UsageRecord {
        UsageRecord {
            start: Micros::ZERO,
            end: Micros::from_minutes(5),
            instance_id: InstanceId::new(CollectionId(id), 0),
            machine_id: MachineId(0),
            avg_usage: Resources::new(avg_cpu, 0.1),
            max_usage: Resources::new(avg_cpu, 0.1),
            limit: Resources::new(0.5, 0.2),
            cpu_histogram: CpuHistogram([0.1; 21]),
        }
    }

    #[test]
    fn clean_trace_validates() {
        let mut t = base_trace();
        t.collection_events.push(cev(1, 0, EventType::Submit));
        t.collection_events.push(cev(1, 1, EventType::Schedule));
        t.collection_events.push(cev(1, 100, EventType::Finish));
        t.instance_events.push(iev(1, 0, 0, EventType::Submit));
        t.instance_events.push(iev(1, 0, 1, EventType::Schedule));
        t.instance_events.push(iev(1, 0, 100, EventType::Finish));
        t.usage.push(usage(1, 0.3));
        assert!(validate(&t).is_empty());
    }

    #[test]
    fn detects_illegal_instance_sequence() {
        let mut t = base_trace();
        t.collection_events.push(cev(1, 0, EventType::Submit));
        t.instance_events.push(iev(1, 0, 0, EventType::Schedule)); // no submit
        let v = validate(&t);
        assert!(v
            .iter()
            .any(|x| matches!(x, Violation::IllegalInstanceTransition { .. })));
    }

    #[test]
    fn detects_illegal_collection_sequence() {
        let mut t = base_trace();
        t.collection_events.push(cev(1, 0, EventType::Submit));
        t.collection_events.push(cev(1, 2, EventType::Schedule));
        t.collection_events.push(cev(1, 5, EventType::Finish));
        t.collection_events.push(cev(1, 9, EventType::Schedule)); // after death
        let v = validate(&t);
        assert!(v.iter().any(|x| matches!(
            x,
            Violation::IllegalCollectionTransition {
                event: EventType::Schedule,
                ..
            }
        )));
    }

    #[test]
    fn detects_termination_before_submit() {
        let mut t = base_trace();
        // A kill recorded before the submit (clock skew in collection).
        t.collection_events.push(cev(1, 5, EventType::Submit));
        t.collection_events.push(cev(1, 2, EventType::Kill));
        let v = validate(&t);
        assert!(v
            .iter()
            .any(|x| matches!(x, Violation::TerminationBeforeSubmit { .. })));
    }

    #[test]
    fn detects_over_capacity() {
        let mut t = base_trace();
        t.collection_events.push(cev(1, 0, EventType::Submit));
        t.collection_events.push(cev(2, 0, EventType::Submit));
        t.usage.push(usage(1, 0.7));
        t.usage.push(usage(2, 0.7)); // 1.4 NCU used on a 1.0 NCU machine
        let v = validate(&t);
        assert!(v
            .iter()
            .any(|x| matches!(x, Violation::MachineOverCapacity { .. })));
    }

    #[test]
    fn detects_unknown_machine_and_orphan() {
        let mut t = base_trace();
        t.collection_events.push(cev(1, 0, EventType::Submit));
        let mut rec = usage(1, 0.1);
        rec.machine_id = MachineId(99);
        t.usage.push(rec);
        t.instance_events.push(iev(42, 0, 0, EventType::Submit));
        let v = validate(&t);
        assert!(v
            .iter()
            .any(|x| matches!(x, Violation::UsageOnUnknownMachine { .. })));
        assert!(v
            .iter()
            .any(|x| matches!(x, Violation::OrphanInstance { .. })));
    }

    #[test]
    fn detects_bad_window_and_histogram() {
        let mut t = base_trace();
        t.collection_events.push(cev(1, 0, EventType::Submit));
        let mut rec = usage(1, 0.1);
        rec.end = Micros::ZERO;
        rec.start = Micros::from_minutes(5);
        t.usage.push(rec);
        let mut rec2 = usage(1, 0.1);
        let mut h = [0.1f32; 21];
        h[20] = 0.0; // max below min
        rec2.cpu_histogram = CpuHistogram(h);
        t.usage.push(rec2);
        let v = validate(&t);
        assert!(v
            .iter()
            .any(|x| matches!(x, Violation::BadUsageWindow { .. })));
        assert!(v
            .iter()
            .any(|x| matches!(x, Violation::NonMonotoneHistogram { .. })));
    }

    #[test]
    fn violation_display() {
        let v = Violation::TerminationBeforeSubmit {
            collection: CollectionId(7),
        };
        assert!(v.to_string().contains("c7"));
    }
}
