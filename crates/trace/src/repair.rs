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
//! Each table goes through the lifecycle walk's two sides on two threads
//! (`group.rs`): each side dedupes and walks its own entities and sorts
//! its survivors' slots, and the table is laid out from the merge of the
//! two sorted runs, gathered in two halves.
//!
//! The pass is fully deterministic: ordered containers only, no RNG, and
//! sorts on keys no two rows share, so `repair` of the same bytes yields
//! the same trace on every run, whichever thread finishes first.

use crate::collection::{
    CollectionEvent, CollectionId, CollectionType, SchedulerKind, UserId, VerticalScalingMode,
};
use crate::group::{for_each_lifecycle, Entity};
use crate::instance::{InstanceEvent, InstanceId};
use crate::machine::{MachineEvent, MachineEventType, MachineId, Platform};
use crate::on_two_threads;
use crate::priority::Priority;
use crate::resources::Resources;
use crate::state::{EventType, InstanceState, StateMachine, TerminationKind};
use crate::time::Micros;
use crate::trace::Trace;
use crate::usage::UsageRecord;
use crate::validate::{capacities, known_collections, window_usage};
use std::collections::BTreeMap;

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
    /// Rows taken out of the table: deduped or dropped.
    fn removed(&self) -> usize {
        (self.deduped + self.dropped) as usize
    }

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
        |_: &mut (), _, _| Walk::Legal,
        |e, _| *e,
    );
    rewrite_by_entity(
        &mut trace.collection_events,
        &mut report.collection_events,
        |e| (e.collection_id, e.time),
        |_: &mut (), ev, sm| walk(sm, ev.event_type),
        |ev, step| CollectionEvent {
            event_type: step,
            ..*ev
        },
    );
    let [low, high] = rewrite_by_entity(
        &mut trace.instance_events,
        &mut report.instance_events,
        |e| (e.instance_id, e.time),
        InstanceWalk::visit,
        synth_instance,
    );
    let walked = low.then(high);
    insert_lost(trace, &walked.tails, &mut report);
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

/// What one side of the walk did to its rows.
struct Rewritten<V> {
    counts: TableRepair,
    /// The few rows that need bridge rows in front, and which.
    bridged: Vec<(u128, &'static [EventType])>,
    /// The side's own `visit` state.
    visitor: V,
}

/// The per-table kernel: dedupes, walks and reorders `rows` in one
/// [`for_each_lifecycle`] walk, returning each side's `visit` state, the
/// low side's first.
///
/// Entity by entity, in `(time, input position)` order: a row equal to an
/// earlier row of the same entity and timestamp is removed as a duplicate
/// before the state machine sees it, even where the lifecycle is legal
/// with it (DESIGN.md §11, "The duplicate rule"); `visit` gets every other
/// row and the entity's state machine, and its verdict keeps the row,
/// drops it, or has `synth` make bridge rows to go in front of it. Each
/// survivor gets a slot, its time above its rank, and each side sorts its
/// own slots; the survivors are then laid out by merging the two sorted
/// runs, which is `(time, entity, input position)` order. A table in that
/// order with nothing removed or made is left untouched.
fn rewrite_by_entity<T, K, V>(
    rows: &mut Vec<T>,
    counts: &mut TableRepair,
    key: impl Fn(&T) -> (K, Micros) + Sync,
    visit: impl Fn(&mut V, &T, &mut StateMachine) -> Walk + Sync,
    synth: impl Fn(&T, EventType) -> T + Sync,
) -> [V; 2]
where
    T: Fields + Send + Sync,
    K: Entity,
    V: Default + Send,
{
    let table = &rows[..];
    // Zeroed pages are touched first by the side that fills them.
    let mut slots = vec![0; table.len()];
    let walked = for_each_lifecycle(table, &key, &mut slots, |mut side| {
        let mut done = Rewritten {
            counts: TableRepair::default(),
            bridged: Vec::new(),
            visitor: V::default(),
        };
        let (mut sorted, mut dup) = (Vec::new(), Vec::new());
        side.walk(|mut life| {
            let time = |pos: &usize| key(&table[*pos]).1;
            let mut start = 0;
            for run in life.positions.chunk_by(|a, b| time(a) == time(b)) {
                mark_duplicates(table, run, &mut sorted, &mut dup);
                let slots = &mut life.slots[start..start + run.len()];
                let rows = run.iter().zip(&dup).zip(slots);
                for (rank, ((&pos, &dup), slot)) in (life.rank + start..).zip(rows) {
                    *slot = REMOVED; // unless it survives
                    if dup {
                        done.counts.deduped += 1;
                        continue;
                    }
                    let at = slot_of(time(&pos), rank);
                    match visit(&mut done.visitor, &table[pos], &mut life.sm) {
                        Walk::Legal => {}
                        Walk::Bridged(steps) => {
                            done.counts.synthesized += steps.len() as u64;
                            done.bridged.push((at, steps));
                        }
                        Walk::Dropped => {
                            done.counts.dropped += 1;
                            continue;
                        }
                    }
                    *slot = at;
                }
                start += run.len();
            }
        });
        // Ranks are distinct, so no two survivors' slots are equal.
        side.slots.sort_unstable();
        done
    });

    let [low, high] = walked.sides;
    let changed = low.counts.total() + high.counts.total() > 0;
    for side in [low.counts, high.counts] {
        counts.deduped += side.deduped;
        counts.synthesized += side.synthesized;
        counts.dropped += side.dropped;
    }
    // Each side's survivors: its sorted slots before the removed ones.
    let (low_slots, high_slots) = slots.split_at(walked.cut);
    let low_kept = &low_slots[..low_slots.len() - low.counts.removed()];
    let high_kept = &high_slots[..high_slots.len() - high.counts.removed()];
    let by_rank = &walked.order;
    let rank = |slot: u128| by_rank[slot as u64 as usize];
    let mut laid_out = merged(low_kept, high_kept).map(rank);
    if !changed && laid_out.by_ref().enumerate().all(|(i, pos)| pos == i) {
        return [low.visitor, high.visitor];
    }
    let mut bridged = low.bridged;
    bridged.extend(high.bridged);
    bridged.sort_unstable_by_key(|&(slot, _)| slot);
    let made = |bridged: &[(u128, &[EventType])]| -> usize {
        bridged.iter().map(|(_, steps)| steps.len()).sum()
    };

    // The merge cut at its middle survivor, each part gathered on a thread
    // of its own into its share of `out`.
    let half = (low_kept.len() + high_kept.len()) / 2;
    let from_low = split(low_kept, high_kept, half);
    let (low_first, low_second) = low_kept.split_at(from_low);
    let (high_first, high_second) = high_kept.split_at(half - from_low);
    let second_from = [low_second.first(), high_second.first()]
        .into_iter()
        .flatten()
        .min();
    let bridged_first = second_from.map_or(bridged.len(), |&second| {
        bridged.partition_point(|&(slot, _)| slot < second)
    });
    let (bridged_first, bridged_second) = bridged.split_at(bridged_first);
    let total = low_kept.len() + high_kept.len() + made(&bridged);
    // Room for every row: any row will do as the filler.
    let mut out = Vec::new();
    if let Some(&fill) = rows.first() {
        out.resize(total, fill);
    }
    let (out_first, out_second) = out.split_at_mut(half + made(bridged_first));
    let gather = |low: &[u128], high: &[u128], bridged: &[(u128, &[EventType])], out: &mut [T]| {
        let mut bridged = bridged.iter().peekable();
        let mut next = 0;
        let mut put = |row| {
            out[next] = row;
            next += 1;
        };
        for slot in merged(low, high) {
            let row = table[rank(slot)];
            if let Some((_, steps)) = bridged.next_if(|&&(at, _)| at == slot) {
                steps.iter().for_each(|&step| put(synth(&row, step)));
            }
            put(row);
        }
    };
    if walked.cut == table.len() {
        gather(low_first, high_first, bridged_first, out_first);
        gather(low_second, high_second, bridged_second, out_second);
    } else {
        on_two_threads(
            || gather(low_second, high_second, bridged_second, out_second),
            || gather(low_first, high_first, bridged_first, out_first),
        );
    }
    *rows = out;
    [low.visitor, high.visitor]
}

/// The slots of two sorted runs, in order.
fn merged<'a>(mut low: &'a [u128], mut high: &'a [u128]) -> impl Iterator<Item = u128> + 'a {
    std::iter::from_fn(move || {
        let from_low = match (low.first(), high.first()) {
            (Some(a), Some(b)) => a < b,
            (a, _) => a.is_some(),
        };
        let run = if from_low { &mut low } else { &mut high };
        let (&slot, rest) = run.split_first()?;
        *run = rest;
        Some(slot)
    })
}

/// How many of the first `k` slots of the merge of sorted runs `a` and `b`
/// come from `a` (no slot is in both).
fn split(a: &[u128], b: &[u128], k: usize) -> usize {
    let (mut lo, mut hi) = (k.saturating_sub(b.len()), k.min(a.len()));
    while lo < hi {
        let i = lo + (hi - lo) / 2;
        // Taking `i` from `a` leaves `k - i` from `b`: too few from `a` when
        // `a[i]` comes before the last of those.
        if a[i] < b[k - i - 1] {
            lo = i + 1;
        } else {
            hi = i;
        }
    }
    lo
}

/// Sets `dup[i]` when row `run[i]` equals an earlier row of `run`, one
/// entity's rows at one time in input order: sorts the rows' [`Fields`]
/// keys with their indices, so rows that are `==` lie together, the
/// earliest first. `sorted` is scratch space.
fn mark_duplicates<T: Fields>(
    rows: &[T],
    run: &[usize],
    sorted: &mut Vec<(Option<T::Key>, usize)>,
    dup: &mut Vec<bool>,
) {
    dup.clear();
    dup.resize(run.len(), false);
    if run.len() < 2 {
        return; // a lone row has no earlier one
    }
    sorted.clear();
    sorted.extend(run.iter().enumerate().map(|(i, &pos)| (rows[pos].key(), i)));
    sorted.sort_unstable();
    for pair in sorted.windows(2) {
        if pair[0].0.is_some() && pair[0].0 == pair[1].0 {
            dup[pair[1].1] = true;
        }
    }
}

/// A row as a key that equals another row's exactly when `==` holds
/// between the two rows: each float is its bits, with one word for both
/// zeros; a row with a NaN field, which `==` holds to no row, has none.
/// Each `key` names every field, so a new field cannot be left out.
pub(crate) trait Fields: Copy + PartialEq {
    type Key: Ord + Send;
    fn key(&self) -> Option<Self::Key>;
}

/// A float's bits, `0` for both zeros; `None` for NaN.
fn word(x: f64) -> Option<u64> {
    let bits = if x == 0.0 { 0 } else { x.to_bits() };
    (!x.is_nan()).then_some(bits)
}

fn words(r: Resources) -> Option<[u64; 2]> {
    let Resources { cpu, mem } = r;
    Some([word(cpu)?, word(mem)?])
}

impl Fields for MachineEvent {
    type Key = (Micros, MachineId, u8, [u64; 2], Platform);

    fn key(&self) -> Option<Self::Key> {
        let MachineEvent {
            time,
            machine_id,
            event_type,
            capacity,
            platform,
        } = *self;
        Some((
            time,
            machine_id,
            event_type as u8,
            words(capacity)?,
            platform,
        ))
    }
}

impl Fields for CollectionEvent {
    type Key = (
        Micros,
        CollectionId,
        EventType,
        u8,
        Priority,
        u8,
        VerticalScalingMode,
        Option<CollectionId>,
        Option<CollectionId>,
        UserId,
    );

    fn key(&self) -> Option<Self::Key> {
        let CollectionEvent {
            time,
            collection_id,
            event_type,
            collection_type,
            priority,
            scheduler,
            vertical_scaling,
            parent_id,
            alloc_collection_id,
            user_id,
        } = *self;
        Some((
            time,
            collection_id,
            event_type,
            collection_type as u8,
            priority,
            scheduler as u8,
            vertical_scaling,
            parent_id,
            alloc_collection_id,
            user_id,
        ))
    }
}

impl Fields for InstanceEvent {
    type Key = (
        Micros,
        InstanceId,
        EventType,
        Option<MachineId>,
        [u64; 2],
        Priority,
        Option<InstanceId>,
    );

    fn key(&self) -> Option<Self::Key> {
        let InstanceEvent {
            time,
            instance_id,
            event_type,
            machine_id,
            request,
            priority,
            alloc_instance,
        } = *self;
        let request = words(request)?;
        Some((
            time,
            instance_id,
            event_type,
            machine_id,
            request,
            priority,
            alloc_instance,
        ))
    }
}

impl Fields for UsageRecord {
    type Key = (Micros, Micros, InstanceId, MachineId, [u64; 6], [u64; 21]);

    fn key(&self) -> Option<Self::Key> {
        let UsageRecord {
            start,
            end,
            instance_id,
            machine_id,
            avg_usage,
            max_usage,
            limit,
            cpu_histogram,
        } = *self;
        let [a, b] = words(avg_usage)?;
        let [c, d] = words(max_usage)?;
        let [e, f] = words(limit)?;
        let mut histogram = [0; 21];
        for (w, x) in histogram.iter_mut().zip(cpu_histogram.0) {
            *w = word(x.into())?;
        }
        Some((
            start,
            end,
            instance_id,
            machine_id,
            [a, b, c, d, e, f],
            histogram,
        ))
    }
}

/// An instance's last surviving row, the last machine its rows name and
/// whether it is running after that row: a possible `Lost` insertion.
struct Tail {
    event: InstanceEvent,
    machine: Option<MachineId>,
    running: bool,
}

/// What the instance walk learned besides the repaired table, on one side
/// of the walk or, after [`InstanceWalk::then`], on both.
#[derive(Default)]
struct InstanceWalk {
    /// In id order, the tail of each instance that ends running, and of
    /// the last instance of each side.
    tails: Vec<Tail>,
    /// Per collection with instance events, in id order, its earliest
    /// surviving event (the first in instance order among equals).
    first_seen: Vec<InstanceEvent>,
}

impl InstanceWalk {
    fn visit(&mut self, ev: &InstanceEvent, sm: &mut StateMachine) -> Walk {
        let verdict = walk(sm, ev.event_type);
        if matches!(verdict, Walk::Dropped) {
            return verdict;
        }
        let tail = Tail {
            event: *ev,
            machine: ev.machine_id,
            running: sm.state() == Some(InstanceState::Running),
        };
        match self.tails.last_mut() {
            Some(last) if last.event.instance_id == ev.instance_id => {
                let machine = tail.machine.or(last.machine);
                *last = Tail { machine, ..tail };
            }
            Some(last) if !last.running => *last = tail,
            _ => self.tails.push(tail),
        }
        match self.first_seen.last_mut() {
            Some(first) if first.instance_id.collection == ev.instance_id.collection => {
                if ev.time < first.time {
                    *first = *ev;
                }
            }
            _ => self.first_seen.push(*ev),
        }
        verdict
    }

    /// This side's walk followed by the high side's. The cut falls between
    /// instances, so a collection may have instances on both sides: its
    /// earliest event is then the high side's only when strictly earlier.
    fn then(mut self, high: InstanceWalk) -> InstanceWalk {
        self.tails.extend(high.tails);
        let mut firsts = high.first_seen.into_iter().peekable();
        if let (Some(last), Some(first)) = (self.first_seen.last_mut(), firsts.peek()) {
            if last.instance_id.collection == first.instance_id.collection {
                if first.time < last.time {
                    *last = *first;
                }
                firsts.next();
            }
        }
        self.first_seen.extend(firsts);
        self
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

/// Inserts a `Lost` termination for every instance still running at the
/// end of its stream whose machine's final event is a `Remove` at or
/// after the instance's last record — the paper-§9 "vanished instance"
/// artifact: the machine went away and monitoring never saw the end.
fn insert_lost(trace: &mut Trace, tails: &[Tail], report: &mut RepairReport) {
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
    for tail in tails.iter().filter(|tail| tail.running) {
        let Some(machine) = tail.machine else {
            continue;
        };
        let Some(&(removed_at, MachineEventType::Remove)) = fate.get(&machine) else {
            continue;
        };
        if removed_at < tail.event.time {
            continue;
        }
        let mut lost = tail.event;
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
fn backfill_collections(trace: &mut Trace, firsts: &[InstanceEvent], report: &mut RepairReport) {
    let known = known_collections(&trace.collection_events);
    let before = report.submits_backfilled;
    for first in firsts {
        if known.binary_search(&first.instance_id.collection).is_ok() {
            continue;
        }
        trace.collection_events.push(CollectionEvent {
            time: first.time,
            collection_id: first.instance_id.collection,
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
        |_: &mut (), _, _| Walk::Legal,
        |r, _| *r,
    );
}

/// Back-fills an `Add` at time zero for machines referenced by usage but
/// never added, sized to the peak summed window usage seen on them so
/// the capacity check cannot flag the reconstruction.
fn backfill_machines(trace: &mut Trace, report: &mut RepairReport) {
    let known = capacities(&trace.machine_events);
    if known.is_empty() {
        // No capacity map at all: the capacity checks are vacuous and
        // there is nothing trustworthy to size a reconstruction from.
        return;
    }
    let unknown: Vec<_> = trace
        .usage
        .iter()
        .filter(|rec| !known.contains_key(&rec.machine_id))
        .collect();
    let mut caps: BTreeMap<MachineId, Resources> = BTreeMap::new();
    for ((machine, _), used) in window_usage(&unknown) {
        let cap = caps.entry(machine).or_insert(Resources::ZERO);
        *cap = cap.max(&used);
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
    use crate::collection::CollectionId;
    use crate::instance::InstanceId;
    use crate::priority::Priority;
    use crate::trace::SchemaVersion;
    use crate::usage::CpuHistogram;
    use crate::validate::validate;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

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
    fn a_legal_duplicate_is_deduped_before_the_state_machine_sees_it() {
        // Both lifecycles are legal as they stand, so `validate` replays
        // every row; `repair` drops the second `UpdateRunning` and the
        // same-microsecond resubmit as exact duplicates.
        use EventType::*;
        let mut t = base();
        t.collection_events.push(cev(1, 0, Submit));
        let c1_0 = [Submit, Schedule, UpdateRunning, UpdateRunning, Finish];
        let c1_0 = c1_0.into_iter().zip([0, 1, 5, 5, 9]);
        t.instance_events = c1_0.map(|(ty, time)| iev(1, 0, time, ty)).collect();
        let c1_1 = [Submit, Schedule, Evict, Submit];
        t.instance_events.extend(c1_1.map(|ty| iev(1, 1, 3, ty)));
        assert_eq!(validate(&t), []);
        let report = repair(&mut t);
        assert_eq!(report.instance_events.deduped, 2);
        assert_eq!(report.total_actions(), 2);
        assert_eq!(validate(&t), []);
        let want = [
            iev(1, 0, 0, Submit),
            iev(1, 0, 1, Schedule),
            iev(1, 1, 3, Submit),
            iev(1, 1, 3, Schedule),
            iev(1, 1, 3, Evict),
            iev(1, 0, 5, UpdateRunning),
            iev(1, 0, 9, Finish),
        ];
        assert_eq!(t.instance_events, want);
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

    /// The rule the duplicate verdicts are held to: a row of a run is a
    /// duplicate when it `==` an earlier row of the run.
    fn scanned<T: PartialEq>(rows: &[T], run: &[usize]) -> Vec<bool> {
        let earlier = |i: usize| run[..i].iter().any(|&e| rows[e] == rows[run[i]]);
        (0..run.len()).map(earlier).collect()
    }

    /// `mark_duplicates` on runs of 0 to 500 rows drawn from `variants`,
    /// in a shuffled position order, against the scan.
    fn assert_verdicts_are_scanned<T: Fields>(variants: &[T], what: &str) {
        let rng = &mut StdRng::seed_from_u64(0xD0B);
        let (mut sorted, mut dup) = (Vec::new(), Vec::new());
        let mut any = 0;
        for len in [0, 1, 2, 3, 10, 500] {
            let pick = |rng: &mut StdRng| variants[rng.random::<u64>() as usize % variants.len()];
            let rows: Vec<T> = (0..len).map(|_| pick(rng)).collect();
            let mut run: Vec<usize> = (0..len).collect();
            for i in (1..len).rev() {
                run.swap(i, rng.random::<u64>() as usize % (i + 1));
            }
            mark_duplicates(&rows, &run, &mut sorted, &mut dup);
            assert_eq!(dup, scanned(&rows, &run), "{what}: {len} rows");
            any += dup.iter().filter(|&&d| d).count();
        }
        assert!(any > 0, "{what}: the runs hold duplicates");
    }

    #[test]
    fn duplicate_verdicts_are_the_scans() {
        use EventType::*;
        // Fields of 0.0 and -0.0 (equal), NaN (equal to nothing, itself
        // included) and 1.0, with other fields that differ or not.
        let floats = [0.0, -0.0, f64::NAN, 1.0];
        let mut instances = Vec::new();
        for (ty, machine) in [
            (Submit, None),
            (Submit, Some(MachineId(0))),
            (Schedule, None),
        ] {
            for cpu in floats {
                for mem in floats {
                    let mut e = iev(1, 0, 7, ty);
                    (e.machine_id, e.request) = (machine, Resources::new(cpu, mem));
                    instances.push(e);
                }
            }
        }
        assert_verdicts_are_scanned(&instances, "instance events");
        let mut usage = Vec::new();
        for avg in floats {
            for bucket in [0.0f32, -0.0, f32::NAN, 0.5] {
                let mut rec = usage_record();
                rec.avg_usage.cpu = avg;
                rec.cpu_histogram.0[3] = bucket;
                usage.push(rec);
            }
        }
        assert_verdicts_are_scanned(&usage, "usage");
        let machines: Vec<MachineEvent> = floats
            .iter()
            .map(|&cpu| {
                MachineEvent::add(
                    Micros::ZERO,
                    MachineId(0),
                    Resources::new(cpu, 1.0),
                    Platform(0),
                )
            })
            .collect();
        assert_verdicts_are_scanned(&machines, "machine events");
        let collections = [cev(1, 0, Submit), cev(1, 0, Kill), cev(2, 0, Submit)];
        assert_verdicts_are_scanned(&collections, "collection events");
    }

    #[test]
    fn a_run_of_100k_rows_at_one_time_repairs_in_a_moment() {
        // One instance, one timestamp: 75 000 rows that differ in their
        // request, each third followed by a copy of itself. A scan of the
        // earlier rows for each row is quadratic in the run.
        let mut t = base();
        t.collection_events.push(cev(1, 0, EventType::Submit));
        for i in 0..75_000 {
            let mut e = iev(1, 0, 5, EventType::Submit);
            e.request = Resources::new(f64::from(i), 0.1);
            t.instance_events.push(e);
            if i % 3 == 0 {
                t.instance_events.push(e);
            }
        }
        assert_eq!(t.instance_events.len(), 100_000);
        let report = repair(&mut t);
        // The first `Submit` stays; every other is a resubmit while pending.
        assert_eq!(report.instance_events.deduped, 25_000);
        assert_eq!(report.instance_events.dropped, 74_999);
        assert_eq!(t.instance_events.len(), 1);
        assert!(validate(&t).is_empty());
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
        // No terminal: 1/0 vanished with its machine; 1/1 finished first.
        let finished = [EventType::Submit, EventType::Schedule, EventType::Finish];
        t.instance_events
            .extend(finished.map(|ty| iev(1, 1, 20, ty)));
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

    fn usage_record() -> UsageRecord {
        UsageRecord {
            start: Micros::ZERO,
            end: Micros::from_minutes(5),
            instance_id: InstanceId::new(CollectionId(1), 0),
            machine_id: MachineId(0),
            avg_usage: Resources::new(0.1, 0.1),
            max_usage: Resources::new(0.2, 0.1),
            limit: Resources::new(0.5, 0.2),
            cpu_histogram: CpuHistogram([0.1; 21]),
        }
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
