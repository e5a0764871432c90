//! Trace validation: the §9 "logical invariants" as an executable check.
//!
//! §9 of the paper describes checking "a raft of logical invariants" such
//! as *the total resource usage of all instances on a machine should be
//! smaller than the machine's capacity* and *a submit event should happen
//! before any termination event*. [`validate`] runs those checks over a
//! trace and returns the violations (at most [`MAX_VIOLATIONS`]), so
//! generators can assert their output is internally consistent and
//! analysts can quantify collection noise in external traces.

use crate::collection::{CollectionEvent, CollectionId};
use crate::group::{for_each_lifecycle, Entity};
use crate::machine::{MachineEvent, MachineEventType, MachineId};
use crate::resources::Resources;
use crate::state::EventType;
use crate::time::Micros;
use crate::trace::Trace;
use crate::usage::UsageRecord;
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

/// Allowed over-capacity factor before a machine window is flagged: CPU
/// is work-conserving, so small excursions above capacity are legitimate.
pub const CAPACITY_TOLERANCE: f64 = 1.05;

/// Upper bound on reported violations (traces are huge).
pub const MAX_VIOLATIONS: usize = 10_000;

/// Runs all invariant checks and returns the first [`MAX_VIOLATIONS`]
/// violations found.
pub fn validate(trace: &Trace) -> Vec<Violation> {
    let mut violations = Vec::new();
    let collections = &trace.collection_events;
    check_lifecycles(
        collections,
        |e| (e.collection_id, e.time, e.event_type),
        |collection, event, time| Violation::IllegalCollectionTransition {
            collection,
            event,
            time,
        },
        |collection, group| {
            let lifecycle = || group.iter().map(|&pos| &collections[pos]);
            let terminal = lifecycle().find(|e| e.event_type.is_terminal())?;
            let submit = lifecycle().find(|e| e.event_type == EventType::Submit)?;
            (terminal.time < submit.time)
                .then_some(Violation::TerminationBeforeSubmit { collection })
        },
        &mut violations,
    );
    let known = known_collections(collections);
    check_lifecycles(
        &trace.instance_events,
        |e| (e.instance_id, e.time, e.event_type),
        |instance, event, time| Violation::IllegalInstanceTransition {
            instance,
            event,
            time,
        },
        |instance, _| {
            (!known.is_empty() && known.binary_search(&instance.collection).is_err())
                .then_some(Violation::OrphanInstance { instance })
        },
        &mut violations,
    );
    check_usage(trace, &mut violations);
    violations.truncate(MAX_VIOLATIONS);
    violations
}

/// Walks each entity's rows of one event table, in time order: `hook`
/// sees the entity's row positions first (a table's own rule), then the
/// lifecycle state machine replays every row and `illegal` names the
/// first event it rejects. Each side of the walk stops once it has found
/// what `out` still has room for; the low side's findings go first, and
/// `out` is cut to [`MAX_VIOLATIONS`].
fn check_lifecycles<T: Sync, K: Entity>(
    rows: &[T],
    row: impl Fn(&T) -> (K, Micros, EventType) + Sync,
    illegal: impl Fn(K, EventType, Micros) -> Violation + Sync,
    hook: impl Fn(K, &[usize]) -> Option<Violation> + Sync,
    out: &mut Vec<Violation>,
) {
    let room = MAX_VIOLATIONS.saturating_sub(out.len());
    let key = |r: &T| (row(r).0, row(r).1);
    let walked = for_each_lifecycle(rows, key, &mut [(); 0], |mut side| {
        let mut found = Vec::new();
        side.walk(|mut life| {
            if found.len() >= room {
                return;
            }
            found.extend(hook(life.id, life.positions));
            let mut replayed = life.positions.iter().map(|&pos| row(&rows[pos]));
            let rejected = replayed.find(|&(.., event)| life.sm.apply(event).is_err());
            found.extend(rejected.map(|(id, time, event)| illegal(id, event, time)));
        });
        found
    });
    out.extend(walked.sides.into_iter().flatten());
    out.truncate(MAX_VIOLATIONS);
}

/// Every collection id with an event, sorted, each once.
pub(crate) fn known_collections(events: &[CollectionEvent]) -> Vec<CollectionId> {
    let mut known: Vec<_> = events.iter().map(|e| e.collection_id).collect();
    known.sort_unstable();
    known.dedup();
    known
}

/// Each machine's capacity, sorted by machine for binary search: the
/// latest `Add` or `Update` wins; a removal leaves it (validation is a
/// noise detector, not a re-simulation).
pub(crate) struct Capacities(Vec<(MachineId, Resources)>);

impl Capacities {
    pub(crate) fn of(events: &[MachineEvent]) -> Capacities {
        let mut caps: Vec<_> = events
            .iter()
            .filter(|e| e.event_type != MachineEventType::Remove)
            .map(|e| (e.machine_id, e.capacity))
            .collect();
        // Reversed, the stable sort leaves each machine's latest event
        // first in its run, and the dedup keeps the first.
        caps.reverse();
        caps.sort_by_key(|&(machine, _)| machine);
        caps.dedup_by_key(|&mut (machine, _)| machine);
        Capacities(caps)
    }

    pub(crate) fn get(&self, machine: MachineId) -> Option<&Resources> {
        let at = self.0.binary_search_by_key(&machine, |&(m, _)| m).ok()?;
        Some(&self.0[at].1)
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

/// The summed `avg_usage` of each `(machine, window start)` in `records`,
/// in that order; a window's records are summed in the order given.
pub(crate) fn window_usage(records: &[&UsageRecord]) -> Vec<((MachineId, Micros), Resources)> {
    let window_of = |rec: &&UsageRecord| ((rec.machine_id, rec.start), Micros::ZERO);
    let walked = for_each_lifecycle(records, window_of, &mut [(); 0], |mut side| {
        let mut sums = Vec::new();
        side.walk(|window| {
            let used = window.positions.iter().map(|&pos| records[pos].avg_usage);
            sums.push((window.id, used.sum()));
        });
        sums
    });
    walked.sides.concat()
}

fn check_usage(trace: &Trace, out: &mut Vec<Violation>) {
    let capacity = Capacities::of(&trace.machine_events);
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
        if capacity.get(rec.machine_id).is_none() && !capacity.is_empty() {
            out.push(Violation::UsageOnUnknownMachine {
                machine: rec.machine_id,
            });
            continue;
        }
        windowed.push(rec);
        if out.len() >= MAX_VIOLATIONS {
            return;
        }
    }
    for ((machine, start), used) in window_usage(&windowed) {
        if let Some(cap) = capacity.get(machine) {
            if used.cpu > cap.cpu * CAPACITY_TOLERANCE {
                out.push(Violation::MachineOverCapacity {
                    machine,
                    window: start,
                    cpu_used: used.cpu,
                    cpu_capacity: cap.cpu,
                });
            }
            if out.len() >= MAX_VIOLATIONS {
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
