//! Trace repair: reconstructing a validate-clean trace from damaged input.
//!
//! Real cluster traces ship with holes — §9 of the paper describes the
//! "raft of logical invariants" Google checked precisely because event
//! collection is lossy. [`repair`] is the executable counterpart of that
//! cleaning step: it walks every entity's lifecycle through the
//! [`StateMachine`], synthesizing the minimal legal bridge for events
//! whose predecessors were lost (a dropped `Schedule` before an observed
//! `Finish`, a dropped terminal before a resubmit), dropping events no
//! bridge can legalize, deduplicating exact duplicates, back-filling
//! missing collection submits and machine adds, and inserting `Lost`
//! terminations for instances that vanish along with their machine. The
//! returned [`RepairReport`] counts every action per table so callers
//! (and the chaos round-trip tests) can reconcile repairs against
//! ground-truth fault ledgers.
//!
//! The pass is fully deterministic: ordered containers only, no RNG, and
//! sorts on keys no two rows share, so `repair` of the same bytes yields
//! the same trace on every run.

use crate::collection::{
    CollectionEvent, CollectionId, CollectionType, SchedulerKind, UserId, VerticalScalingMode,
};
use crate::group::{entity_order, Entity};
use crate::instance::InstanceEvent;
use crate::machine::{MachineEvent, MachineEventType, MachineId, Platform};
use crate::priority::Priority;
use crate::resources::Resources;
use crate::state::{EventType, InstanceState, StateMachine, TerminationKind};
use crate::time::Micros;
use crate::trace::Trace;
use std::collections::{BTreeMap, BTreeSet};

/// Repair counts for one table.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TableRepair {
    /// Exact duplicate rows removed.
    pub deduped: u64,
    /// Rows synthesized (lifecycle bridges, back-fills, `Lost` inserts).
    pub synthesized: u64,
    /// Rows dropped because no legal bridge exists.
    pub dropped: u64,
}

impl TableRepair {
    /// Total actions taken on the table.
    pub fn total(&self) -> u64 {
        self.deduped + self.synthesized + self.dropped
    }
}

/// Everything [`repair`] did to a trace, per table plus named counters
/// for the cross-table repairs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RepairReport {
    /// Machine-events table actions.
    pub machine_events: TableRepair,
    /// Collection-events table actions.
    pub collection_events: TableRepair,
    /// Instance-events table actions.
    pub instance_events: TableRepair,
    /// Usage table actions.
    pub usage: TableRepair,
    /// `Lost` terminations inserted for instances still running when
    /// their machine was removed for good (also in
    /// `instance_events.synthesized`).
    pub lost_inserted: u64,
    /// Collection `Submit` rows back-filled for collections referenced
    /// only by instances (also in `collection_events.synthesized`).
    pub submits_backfilled: u64,
    /// Machine `Add` rows back-filled for machines referenced only by
    /// usage (also in `machine_events.synthesized`).
    pub machines_backfilled: u64,
    /// Inverted usage windows whose endpoints were swapped.
    pub windows_swapped: u64,
    /// Non-monotone CPU histograms re-sorted.
    pub histograms_sorted: u64,
}

impl RepairReport {
    /// Total repair actions across all tables.
    pub fn total_actions(&self) -> u64 {
        self.machine_events.total()
            + self.collection_events.total()
            + self.instance_events.total()
            + self.usage.total()
            + self.windows_swapped
            + self.histograms_sorted
    }

    /// True when the trace needed no repair at all.
    pub fn is_noop(&self) -> bool {
        self.total_actions() == 0
    }

    /// One-line human summary for report annotations.
    pub fn summary(&self) -> String {
        if self.is_noop() {
            return "repair: no action needed".to_string();
        }
        let dd = self.machine_events.deduped
            + self.collection_events.deduped
            + self.instance_events.deduped
            + self.usage.deduped;
        let sy = self.machine_events.synthesized
            + self.collection_events.synthesized
            + self.instance_events.synthesized
            + self.usage.synthesized;
        let dr = self.machine_events.dropped
            + self.collection_events.dropped
            + self.instance_events.dropped
            + self.usage.dropped;
        format!(
            "repair: {sy} synthesized ({} lost, {} submits, {} machine adds), \
             {dd} deduped, {dr} dropped, {} windows swapped, {} histograms sorted",
            self.lost_inserted,
            self.submits_backfilled,
            self.machines_backfilled,
            self.windows_swapped,
            self.histograms_sorted
        )
    }
}

/// Repairs a damaged trace in place so that [`crate::validate::validate`]
/// finds no violations, returning a count of every action taken. See the
/// module docs for the repair rules.
///
/// Every table comes out ordered by `(time, entity id, input position)`,
/// an entity's synthesized rows directly before the row that needed them;
/// rows appended afterwards (`Lost` terminations, back-fills) follow the
/// existing rows of their timestamp.
pub fn repair(trace: &mut Trace) -> RepairReport {
    let mut report = RepairReport::default();
    rewrite_by_entity(
        &mut trace.machine_events,
        &mut report.machine_events,
        |e| (e.machine_id, e.time),
        |_, _| Walk::Legal,
        |e, _| *e,
    );
    repair_collection_events(trace, &mut report);
    let walked = repair_instance_events(trace, &mut report);
    insert_lost(trace, &walked.running, &mut report);
    backfill_collections(trace, &walked.first_seen, &mut report);
    repair_usage(trace, &mut report);
    backfill_machines(trace, &mut report);
    report
}

/// Outcome of feeding one event through the repairing walk.
#[derive(Clone, Copy)]
enum Walk {
    /// Legal as observed.
    Legal,
    /// Legal after inserting these bridge events first.
    Bridged(&'static [EventType]),
    /// No legal bridge; the event must be dropped.
    Dropped,
}

/// Advances `sm` over `event`, bridging or dropping when illegal.
fn walk(sm: &mut StateMachine, event: EventType) -> Walk {
    if sm.apply(event).is_ok() {
        return Walk::Legal;
    }
    match bridge(sm.state(), event) {
        Some(b) => {
            for &e in b {
                let ok = sm.apply(e).is_ok();
                debug_assert!(ok, "repair bridge step {e} illegal");
            }
            let ok = sm.apply(event).is_ok();
            debug_assert!(ok, "repair bridge failed to legalize {event}");
            Walk::Bridged(b)
        }
        None => Walk::Dropped,
    }
}

/// The minimal legal event sequence that takes `state` to one where
/// `event` is applicable, or `None` when the event must be dropped.
/// Only consulted after [`StateMachine::apply`] rejected the pair.
///
/// The choices encode trace-doc semantics: a running-only event observed
/// early means the `Schedule` (and possibly `Submit`) was lost; a
/// `Submit` observed while running means the previous lifecycle's
/// terminal was lost, and `Evict` is the only terminal from which the
/// state machine legally accepts a resubmit; events after a final death
/// (`Finish`/`Kill`/`Lost`) are unrecoverable stale records.
fn bridge(state: Option<InstanceState>, event: EventType) -> Option<&'static [EventType]> {
    use EventType as E;
    use InstanceState as S;
    use TerminationKind as T;
    let b: &'static [E] = match (state, event) {
        // Nothing observed yet: conjure the prefix the event requires.
        (None, E::Queue | E::UpdatePending | E::Kill | E::Fail | E::Schedule) => &[E::Submit],
        (None, E::Finish | E::Evict | E::Lost | E::UpdateRunning) => &[E::Submit, E::Schedule],
        (None, E::Enable) => &[E::Submit, E::Queue],
        // A dropped terminal between lifecycles: close the old one with
        // an Evict before the resubmission.
        (Some(S::Running), E::Submit) => &[E::Evict],
        (Some(S::Running), E::Schedule | E::Queue) => &[E::Evict, E::Submit],
        (Some(S::Running), E::Enable) => &[E::Evict, E::Submit, E::Queue],
        // Running-only events observed while pending/queued: the
        // Schedule (and Enable) was lost.
        (Some(S::Pending), E::Finish | E::Evict | E::Lost | E::UpdateRunning) => &[E::Schedule],
        (Some(S::Pending), E::Enable) => &[E::Queue],
        (Some(S::Queued), E::Schedule | E::Fail) => &[E::Enable],
        (Some(S::Queued), E::Finish | E::Evict | E::Lost | E::UpdateRunning) => {
            &[E::Enable, E::Schedule]
        }
        // Resubmittable deaths with a dropped Submit.
        (
            Some(S::Dead(T::Evict | T::Fail)),
            E::Queue | E::UpdatePending | E::Kill | E::Fail | E::Schedule,
        ) => &[E::Submit],
        (Some(S::Dead(T::Evict | T::Fail)), E::Finish | E::Evict | E::Lost | E::UpdateRunning) => {
            &[E::Submit, E::Schedule]
        }
        (Some(S::Dead(T::Evict | T::Fail)), E::Enable) => &[E::Submit, E::Queue],
        // Redundant submits while alive, updates in the wrong phase, and
        // anything after a final death: stale records, dropped.
        _ => return None,
    };
    Some(b)
}

/// Where a surviving row goes in the output: its time above its index in
/// entity-major order, in one integer. Tables come out sorted by this,
/// which is "group by entity, sort each group by time, concatenate,
/// stable-sort by time" without the intermediate copies.
fn slot_of(time: Micros, rank: usize) -> u128 {
    u128::from(time.0) << 64 | rank as u128
}

/// The slot of a row that does not survive (no table has this many rows).
const REMOVED: u128 = u128::MAX;

/// The per-table kernel: dedupes, walks and reorders `rows` in one pass
/// over them in [`entity_order`].
///
/// Entity by entity, in `(time, input position)` order: a row equal to an
/// earlier row of the same entity and timestamp is a duplicate and is
/// removed (clean generated traces never contain two identical rows for
/// one entity at one timestamp, so every removal is a real duplicate);
/// every other row goes to `visit` — told whether it starts a new entity —
/// whose verdict keeps it, drops it, or has `synth` make bridge rows to go
/// in front of it. The survivors are then laid out by `(time, entity,
/// input position)`. When nothing was removed or made and the table is in
/// that order already, it is left untouched.
fn rewrite_by_entity<T: Copy + PartialEq, K: Entity + PartialEq>(
    rows: &mut Vec<T>,
    counts: &mut TableRepair,
    key: impl Fn(&T) -> (K, Micros),
    mut visit: impl FnMut(&T, bool) -> Walk,
    synth: impl Fn(&T, EventType) -> T,
) {
    let by_entity = entity_order(rows, &key);
    // Filled by input position during the entity-major walk.
    let mut order = vec![REMOVED; rows.len()];
    // The few rows that need bridge rows in front, and which.
    let mut bridged: Vec<(u128, &'static [EventType])> = Vec::new();
    let before = counts.total();
    // The previous row's entity and time, and where its run of rows that
    // share both starts.
    let mut previous = None;
    let mut run_start = 0;
    for (rank, &pos) in by_entity.iter().enumerate() {
        let row = &rows[pos];
        let (entity, time) = key(row);
        let new_entity = previous.is_none_or(|(e, _)| e != entity);
        if previous != Some((entity, time)) {
            run_start = rank;
        }
        previous = Some((entity, time));
        if by_entity[run_start..rank].iter().any(|&e| rows[e] == *row) {
            counts.deduped += 1;
            continue;
        }
        let slot = slot_of(time, rank);
        match visit(row, new_entity) {
            Walk::Legal => {}
            Walk::Bridged(steps) => {
                counts.synthesized += steps.len() as u64;
                bridged.push((slot, steps));
            }
            Walk::Dropped => {
                counts.dropped += 1;
                continue;
            }
        }
        order[pos] = slot;
    }

    let changed = counts.total() != before;
    if changed {
        order.retain(|&slot| slot != REMOVED);
    }
    if !changed && order.is_sorted() {
        return;
    }
    // Ranks are distinct, so no two slots are equal.
    order.sort_unstable();
    bridged.sort_unstable_by_key(|&(slot, _)| slot);
    let made: usize = bridged.iter().map(|(_, steps)| steps.len()).sum();
    let mut bridged = bridged.into_iter().peekable();
    let mut out = Vec::with_capacity(order.len() + made);
    for slot in order {
        // The low half is the rank.
        let row = rows[by_entity[slot as u64 as usize]];
        if let Some((_, steps)) = bridged.next_if(|&(at, _)| at == slot) {
            out.extend(steps.iter().map(|&step| synth(&row, step)));
        }
        out.push(row);
    }
    *rows = out;
}

fn repair_collection_events(trace: &mut Trace, report: &mut RepairReport) {
    let mut sm = StateMachine::new();
    rewrite_by_entity(
        &mut trace.collection_events,
        &mut report.collection_events,
        |e| (e.collection_id, e.time),
        |ev, new_entity| {
            if new_entity {
                sm = StateMachine::new();
            }
            walk(&mut sm, ev.event_type)
        },
        |ev, step| CollectionEvent {
            event_type: step,
            ..*ev
        },
    );
}

/// An instance left in `Running` state at the end of its event stream:
/// the template for a possible `Lost` insertion.
struct RunningTail {
    last_event: InstanceEvent,
    last_machine: Option<MachineId>,
}

/// The earliest surviving instance event of one collection (the first in
/// instance order among equals): the template for a back-filled `Submit`.
struct FirstSeen {
    collection: CollectionId,
    time: Micros,
    priority: Priority,
}

/// What the instance walk learned besides the repaired table.
#[derive(Default)]
struct InstanceWalk {
    sm: StateMachine,
    last_machine: Option<MachineId>,
    last_event: Option<InstanceEvent>,
    /// Instances still running at the end of their stream, in id order.
    running: Vec<RunningTail>,
    /// One entry per collection with instance events, in id order.
    first_seen: Vec<FirstSeen>,
}

impl InstanceWalk {
    fn visit(&mut self, ev: &InstanceEvent, new_entity: bool) -> Walk {
        if new_entity {
            self.close_instance();
        }
        let verdict = walk(&mut self.sm, ev.event_type);
        if matches!(verdict, Walk::Dropped) {
            return verdict;
        }
        self.last_machine = ev.machine_id.or(self.last_machine);
        self.last_event = Some(*ev);
        let collection = ev.instance_id.collection;
        match self.first_seen.last_mut() {
            Some(first) if first.collection == collection => {
                if ev.time < first.time {
                    first.time = ev.time;
                    first.priority = ev.priority;
                }
            }
            _ => self.first_seen.push(FirstSeen {
                collection,
                time: ev.time,
                priority: ev.priority,
            }),
        }
        verdict
    }

    /// Ends the current instance's stream and resets for the next one.
    fn close_instance(&mut self) {
        if self.sm.state() == Some(InstanceState::Running) {
            if let Some(last_event) = self.last_event {
                self.running.push(RunningTail {
                    last_event,
                    last_machine: self.last_machine,
                });
            }
        }
        self.sm = StateMachine::new();
        self.last_machine = None;
        self.last_event = None;
    }
}

fn synth_instance(ev: &InstanceEvent, ty: EventType) -> InstanceEvent {
    let mut s = *ev;
    s.event_type = ty;
    if matches!(ty, EventType::Submit | EventType::Queue | EventType::Enable) {
        s.machine_id = None;
    }
    s
}

fn repair_instance_events(trace: &mut Trace, report: &mut RepairReport) -> InstanceWalk {
    let mut walked = InstanceWalk::default();
    rewrite_by_entity(
        &mut trace.instance_events,
        &mut report.instance_events,
        |e| (e.instance_id, e.time),
        |ev, new_entity| walked.visit(ev, new_entity),
        synth_instance,
    );
    walked.close_instance();
    walked
}

/// Inserts a `Lost` termination for every instance still running at the
/// end of its stream whose machine's final event is a `Remove` at or
/// after the instance's last record — the paper-§9 "vanished instance"
/// artifact: the machine went away and monitoring never saw the end.
fn insert_lost(trace: &mut Trace, running: &[RunningTail], report: &mut RepairReport) {
    let mut fate: BTreeMap<MachineId, (Micros, MachineEventType)> = BTreeMap::new();
    for ev in &trace.machine_events {
        let slot = fate
            .entry(ev.machine_id)
            .or_insert((ev.time, ev.event_type));
        if ev.time >= slot.0 {
            *slot = (ev.time, ev.event_type);
        }
    }
    let before = report.lost_inserted;
    for tail in running {
        let Some(machine) = tail.last_machine else {
            continue;
        };
        let Some(&(removed_at, MachineEventType::Remove)) = fate.get(&machine) else {
            continue;
        };
        if removed_at < tail.last_event.time {
            continue;
        }
        let mut lost = tail.last_event;
        lost.event_type = EventType::Lost;
        lost.time = removed_at;
        lost.machine_id = Some(machine);
        trace.instance_events.push(lost);
        report.lost_inserted += 1;
        report.instance_events.synthesized += 1;
    }
    if report.lost_inserted > before {
        // A stable sort of a sorted table plus a short tail is a merge.
        trace.instance_events.sort_by_key(|e| e.time);
    }
}

/// Back-fills a `Submit` for every collection referenced by instance
/// events but absent from the collection table, so instances are not
/// orphans and downstream collection maps see their owners.
fn backfill_collections(trace: &mut Trace, first_seen: &[FirstSeen], report: &mut RepairReport) {
    let mut known: Vec<CollectionId> = trace
        .collection_events
        .iter()
        .map(|e| e.collection_id)
        .collect();
    known.sort_unstable();
    known.dedup();
    let before = report.submits_backfilled;
    for first in first_seen {
        if known.binary_search(&first.collection).is_ok() {
            continue;
        }
        trace.collection_events.push(CollectionEvent {
            time: first.time,
            collection_id: first.collection,
            event_type: EventType::Submit,
            collection_type: CollectionType::Job,
            priority: first.priority,
            scheduler: SchedulerKind::Default,
            vertical_scaling: VerticalScalingMode::Off,
            parent_id: None,
            alloc_collection_id: None,
            user_id: UserId(0),
        });
        report.submits_backfilled += 1;
        report.collection_events.synthesized += 1;
    }
    if report.submits_backfilled > before {
        trace.collection_events.sort_by_key(|e| e.time);
    }
}

fn repair_usage(trace: &mut Trace, report: &mut RepairReport) {
    for rec in &mut trace.usage {
        if rec.end < rec.start {
            std::mem::swap(&mut rec.start, &mut rec.end);
            report.windows_swapped += 1;
        }
        if !rec.cpu_histogram.is_monotone() {
            rec.cpu_histogram.0.sort_by(|a, b| a.total_cmp(b));
            report.histograms_sorted += 1;
        }
    }
    rewrite_by_entity(
        &mut trace.usage,
        &mut report.usage,
        |r| ((r.instance_id, r.machine_id), r.start),
        |_, _| Walk::Legal,
        |r, _| *r,
    );
}

/// Back-fills an `Add` at time zero for machines referenced by usage but
/// never added, sized to the peak summed window usage seen on them so
/// the capacity check cannot flag the reconstruction.
fn backfill_machines(trace: &mut Trace, report: &mut RepairReport) {
    if trace.usage.is_empty() {
        return;
    }
    let known: BTreeSet<MachineId> = trace
        .machine_events
        .iter()
        .filter(|e| {
            matches!(
                e.event_type,
                MachineEventType::Add | MachineEventType::Update
            )
        })
        .map(|e| e.machine_id)
        .collect();
    if known.is_empty() {
        // No capacity map at all: the capacity checks are vacuous and
        // there is nothing trustworthy to size a reconstruction from.
        return;
    }
    // Only records on unknown machines get this far, so the map stays
    // small; each window sums in (instance, input position) order.
    let mut windows: BTreeMap<(MachineId, Micros), Resources> = BTreeMap::new();
    for rec in &trace.usage {
        if known.contains(&rec.machine_id) {
            continue;
        }
        *windows
            .entry((rec.machine_id, rec.start))
            .or_insert(Resources::ZERO) += rec.avg_usage;
    }
    let mut caps: BTreeMap<MachineId, Resources> = BTreeMap::new();
    for ((machine, _), used) in windows {
        let cap = caps.entry(machine).or_insert(Resources::ZERO);
        cap.cpu = cap.cpu.max(used.cpu);
        cap.mem = cap.mem.max(used.mem);
    }
    if caps.is_empty() {
        return;
    }
    for (machine, cap) in caps {
        trace
            .machine_events
            .push(MachineEvent::add(Micros::ZERO, machine, cap, Platform(0)));
        report.machines_backfilled += 1;
        report.machine_events.synthesized += 1;
    }
    trace.machine_events.sort_by_key(|e| e.time);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::InstanceId;
    use crate::trace::SchemaVersion;
    use crate::usage::{CpuHistogram, UsageRecord};
    use crate::validate::validate;

    fn base() -> Trace {
        let mut t = Trace::new("r", SchemaVersion::V3Trace2019, Micros::from_days(1));
        t.machine_events.push(MachineEvent::add(
            Micros::ZERO,
            MachineId(0),
            Resources::new(1.0, 1.0),
            Platform(0),
        ));
        t
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

    #[test]
    fn bridge_always_legalizes() {
        // For every (state, event) pair the state machine rejects, the
        // bridge either legalizes the event or drops it.
        let states = [
            None,
            Some(InstanceState::Pending),
            Some(InstanceState::Queued),
            Some(InstanceState::Running),
            Some(InstanceState::Dead(TerminationKind::Finish)),
            Some(InstanceState::Dead(TerminationKind::Evict)),
            Some(InstanceState::Dead(TerminationKind::Kill)),
            Some(InstanceState::Dead(TerminationKind::Fail)),
            Some(InstanceState::Dead(TerminationKind::Lost)),
        ];
        // Reconstruct each state via a legal prefix.
        let prefix = |s: Option<InstanceState>| -> Vec<EventType> {
            use EventType as E;
            match s {
                None => vec![],
                Some(InstanceState::Pending) => vec![E::Submit],
                Some(InstanceState::Queued) => vec![E::Submit, E::Queue],
                Some(InstanceState::Running) => vec![E::Submit, E::Schedule],
                Some(InstanceState::Dead(TerminationKind::Finish)) => {
                    vec![E::Submit, E::Schedule, E::Finish]
                }
                Some(InstanceState::Dead(TerminationKind::Evict)) => {
                    vec![E::Submit, E::Schedule, E::Evict]
                }
                Some(InstanceState::Dead(TerminationKind::Kill)) => vec![E::Submit, E::Kill],
                Some(InstanceState::Dead(TerminationKind::Fail)) => vec![E::Submit, E::Fail],
                Some(InstanceState::Dead(TerminationKind::Lost)) => {
                    vec![E::Submit, E::Schedule, E::Lost]
                }
            }
        };
        for s in states {
            for ev in EventType::ALL {
                let mut sm = StateMachine::new();
                for p in prefix(s) {
                    sm.apply(p).unwrap();
                }
                assert_eq!(sm.state(), s);
                if sm.apply(ev).is_ok() {
                    continue; // legal, bridge never consulted
                }
                if let Some(steps) = bridge(s, ev) {
                    assert!(!steps.is_empty());
                    for &b in steps {
                        sm.apply(b).unwrap_or_else(|e| {
                            panic!("bridge for ({s:?}, {ev}) illegal at {b}: {e}")
                        });
                    }
                    sm.apply(ev)
                        .unwrap_or_else(|e| panic!("bridge for ({s:?}, {ev}) did not work: {e}"));
                }
            }
        }
    }

    #[test]
    fn dropped_schedule_is_bridged() {
        let mut t = base();
        t.collection_events.push(cev(1, 0, EventType::Submit));
        t.instance_events.push(iev(1, 0, 0, EventType::Submit));
        // Schedule lost; Finish observed while pending.
        t.instance_events.push(iev(1, 0, 50, EventType::Finish));
        let report = repair(&mut t);
        assert_eq!(report.instance_events.synthesized, 1);
        assert!(validate(&t).is_empty());
        assert!(t
            .instance_events
            .iter()
            .any(|e| e.event_type == EventType::Schedule && e.time == Micros::from_secs(50)));
    }

    #[test]
    fn dropped_terminal_before_resubmit_is_bridged_with_evict() {
        let mut t = base();
        t.collection_events.push(cev(1, 0, EventType::Submit));
        t.instance_events.push(iev(1, 0, 0, EventType::Submit));
        t.instance_events.push(iev(1, 0, 10, EventType::Schedule));
        // Evict lost; resubmission observed while running.
        t.instance_events.push(iev(1, 0, 60, EventType::Submit));
        t.instance_events.push(iev(1, 0, 70, EventType::Schedule));
        t.instance_events.push(iev(1, 0, 90, EventType::Finish));
        let report = repair(&mut t);
        assert_eq!(report.instance_events.synthesized, 1);
        assert!(validate(&t).is_empty());
    }

    #[test]
    fn exact_duplicates_deduped() {
        let mut t = base();
        t.collection_events.push(cev(1, 0, EventType::Submit));
        t.collection_events.push(cev(1, 0, EventType::Submit)); // dup
        t.instance_events.push(iev(1, 0, 0, EventType::Submit));
        t.instance_events.push(iev(1, 0, 10, EventType::Schedule));
        t.instance_events.push(iev(1, 0, 10, EventType::Schedule)); // dup
        let report = repair(&mut t);
        assert_eq!(report.collection_events.deduped, 1);
        assert_eq!(report.instance_events.deduped, 1);
        assert!(validate(&t).is_empty());
    }

    #[test]
    fn interleaved_same_time_duplicate_found_across_run() {
        // Evict and resubmit share a timestamp; a duplicate of the Evict
        // separated from its original by the Submit must still dedupe.
        let mut t = base();
        t.collection_events.push(cev(1, 0, EventType::Submit));
        t.instance_events.push(iev(1, 0, 0, EventType::Submit));
        t.instance_events.push(iev(1, 0, 10, EventType::Schedule));
        t.instance_events.push(iev(1, 0, 50, EventType::Evict));
        t.instance_events.push(iev(1, 0, 50, EventType::Submit));
        t.instance_events.push(iev(1, 0, 50, EventType::Evict)); // dup, not adjacent
        let report = repair(&mut t);
        assert_eq!(report.instance_events.deduped, 1);
        assert_eq!(report.instance_events.total(), 1);
        assert_eq!(t.instance_events.len(), 4);
    }

    #[test]
    fn output_is_ordered_by_time_then_entity_then_position() {
        let mut t = base();
        t.collection_events.push(cev(1, 0, EventType::Submit));
        t.collection_events.push(cev(2, 0, EventType::Submit));
        // Same timestamp: instance 2/0 first in the input, then 1/1, 1/0.
        t.instance_events.push(iev(2, 0, 5, EventType::Submit));
        t.instance_events.push(iev(1, 1, 5, EventType::Submit));
        t.instance_events.push(iev(1, 0, 5, EventType::Submit));
        t.instance_events.push(iev(1, 0, 5, EventType::Schedule));
        t.instance_events.push(iev(1, 0, 1, EventType::Submit)); // redundant: dropped
        t.instance_events.push(iev(2, 0, 9, EventType::Finish)); // bridged by a Schedule
        let report = repair(&mut t);
        assert_eq!(report.instance_events.dropped, 1);
        assert_eq!(report.instance_events.synthesized, 1);
        let got: Vec<_> = t
            .instance_events
            .iter()
            .map(|e| {
                let id = e.instance_id;
                (
                    e.time.as_micros() / 1_000_000,
                    id.collection.0,
                    id.index,
                    e.event_type,
                )
            })
            .collect();
        assert_eq!(
            got,
            [
                (1, 1, 0, EventType::Submit),
                (5, 1, 0, EventType::Schedule),
                (5, 1, 1, EventType::Submit),
                (5, 2, 0, EventType::Submit),
                (9, 2, 0, EventType::Schedule),
                (9, 2, 0, EventType::Finish),
            ]
        );
        // In order and nothing to do: the second pass moves nothing.
        let before = t.instance_events.clone();
        assert!(repair(&mut t).is_noop());
        assert_eq!(t.instance_events, before);
    }

    #[test]
    fn events_after_final_death_dropped() {
        let mut t = base();
        t.collection_events.push(cev(1, 0, EventType::Submit));
        t.instance_events.push(iev(1, 0, 0, EventType::Submit));
        t.instance_events.push(iev(1, 0, 10, EventType::Kill));
        // Stale record after a final death: unrecoverable.
        t.instance_events.push(iev(1, 0, 20, EventType::Schedule));
        let report = repair(&mut t);
        assert_eq!(report.instance_events.dropped, 1);
        assert!(validate(&t).is_empty());
    }

    #[test]
    fn vanished_instance_gets_lost_termination() {
        let mut t = base();
        t.machine_events.push(MachineEvent {
            time: Micros::from_secs(100),
            machine_id: MachineId(0),
            event_type: MachineEventType::Remove,
            capacity: Resources::ZERO,
            platform: Platform(0),
        });
        t.collection_events.push(cev(1, 0, EventType::Submit));
        t.instance_events.push(iev(1, 0, 0, EventType::Submit));
        t.instance_events.push(iev(1, 0, 10, EventType::Schedule));
        // No terminal: the instance vanished with its machine.
        let report = repair(&mut t);
        assert_eq!(report.lost_inserted, 1);
        let lost = t
            .instance_events
            .iter()
            .find(|e| e.event_type == EventType::Lost)
            .expect("lost inserted");
        assert_eq!(lost.time, Micros::from_secs(100));
        assert!(validate(&t).is_empty());
    }

    #[test]
    fn no_lost_for_instance_on_live_machine() {
        let mut t = base();
        t.collection_events.push(cev(1, 0, EventType::Submit));
        t.instance_events.push(iev(1, 0, 0, EventType::Submit));
        t.instance_events.push(iev(1, 0, 10, EventType::Schedule));
        let report = repair(&mut t);
        assert_eq!(report.lost_inserted, 0);
        assert!(validate(&t).is_empty());
    }

    #[test]
    fn orphan_collection_backfilled() {
        let mut t = base();
        t.collection_events.push(cev(9, 0, EventType::Submit));
        t.instance_events.push(iev(1, 0, 5, EventType::Submit));
        let report = repair(&mut t);
        assert_eq!(report.submits_backfilled, 1);
        assert!(validate(&t).is_empty());
        assert!(t
            .collection_events
            .iter()
            .any(|e| e.collection_id == CollectionId(1) && e.event_type == EventType::Submit));
    }

    #[test]
    fn unknown_machine_backfilled_with_peak_capacity() {
        let mut t = base();
        t.collection_events.push(cev(1, 0, EventType::Submit));
        t.usage.push(UsageRecord {
            start: Micros::ZERO,
            end: Micros::from_minutes(5),
            instance_id: InstanceId::new(CollectionId(1), 0),
            machine_id: MachineId(77),
            avg_usage: Resources::new(0.4, 0.2),
            max_usage: Resources::new(0.5, 0.2),
            limit: Resources::new(0.5, 0.2),
            cpu_histogram: CpuHistogram([0.1; 21]),
        });
        let report = repair(&mut t);
        assert_eq!(report.machines_backfilled, 1);
        assert!(validate(&t).is_empty());
        let add = t
            .machine_events
            .iter()
            .find(|e| e.machine_id == MachineId(77))
            .expect("machine backfilled");
        assert!((add.capacity.cpu - 0.4).abs() < 1e-12);
    }

    #[test]
    fn inverted_window_and_histogram_fixed() {
        let mut t = base();
        t.collection_events.push(cev(1, 0, EventType::Submit));
        let mut rec = UsageRecord {
            start: Micros::from_minutes(5),
            end: Micros::ZERO, // inverted
            instance_id: InstanceId::new(CollectionId(1), 0),
            machine_id: MachineId(0),
            avg_usage: Resources::new(0.1, 0.1),
            max_usage: Resources::new(0.2, 0.1),
            limit: Resources::new(0.5, 0.2),
            cpu_histogram: CpuHistogram([0.1; 21]),
        };
        rec.cpu_histogram.0[0] = 0.9; // non-monotone
        t.usage.push(rec);
        let report = repair(&mut t);
        assert_eq!(report.windows_swapped, 1);
        assert_eq!(report.histograms_sorted, 1);
        assert!(validate(&t).is_empty());
    }

    #[test]
    fn clean_trace_is_noop() {
        let mut t = base();
        t.collection_events.push(cev(1, 0, EventType::Submit));
        t.collection_events.push(cev(1, 1, EventType::Schedule));
        t.collection_events.push(cev(1, 100, EventType::Finish));
        t.instance_events.push(iev(1, 0, 0, EventType::Submit));
        t.instance_events.push(iev(1, 0, 1, EventType::Schedule));
        t.instance_events.push(iev(1, 0, 100, EventType::Finish));
        let before = t.clone();
        let report = repair(&mut t);
        assert!(report.is_noop(), "{report:?}");
        assert_eq!(t.instance_events, before.instance_events);
        assert_eq!(t.collection_events, before.collection_events);
        assert!(report.summary().contains("no action"));
    }
}
