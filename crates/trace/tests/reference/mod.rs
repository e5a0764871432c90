//! Test-only reference implementations: the `writeln!` renderers,
//! `lines()` / `split(',').collect()` parsers and `BTreeMap`-regrouping
//! `repair` / `validate` that the library used before its kernels were
//! rewritten. The differential and fuzz suites compare the library
//! against these byte for byte and row for row. Two deliberate
//! differences from the retired code, which both sides now apply: the
//! narrow-field range check (`machine_id`, `instance_index`, ... used to
//! wrap through `as`), and the histogram buckets read by `f32::from_str`
//! (`f64::from_str` narrowed by `as` rounded twice and misread the one
//! `f32` with bits `0x15ae43fd`).
#![allow(dead_code)]

use borg_sim::{CorruptionConfig, FaultLedger};
use borg_trace::collection::{
    CollectionEvent, CollectionId, CollectionType, SchedulerKind, UserId, VerticalScalingMode,
};
use borg_trace::csv::{
    CsvError, Quarantine, QuarantinedLine, FILE_COLLECTION, FILE_INSTANCE, FILE_MACHINE,
    FILE_METADATA, FILE_USAGE, QUARANTINE_DETAIL_CAP,
};
use borg_trace::instance::{InstanceEvent, InstanceId};
use borg_trace::machine::{MachineEvent, MachineEventType, MachineId, Platform};
use borg_trace::priority::Priority;
use borg_trace::repair::RepairReport;
use borg_trace::resources::Resources;
use borg_trace::state::EventType;
use borg_trace::state::{InstanceState, StateMachine, TerminationKind};
use borg_trace::time::Micros;
use borg_trace::trace::{SchemaVersion, Trace};
use borg_trace::usage::{CpuHistogram, UsageRecord};
use borg_trace::validate::{ValidateConfig, Violation};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};
use std::io::{self, BufRead, Write};

// ---- csv ----

fn parse_err(line: usize, message: impl Into<String>) -> CsvError {
    CsvError::Parse {
        line,
        message: message.into(),
    }
}

fn field<'a>(parts: &'a [&'a str], idx: usize, line: usize) -> Result<&'a str, CsvError> {
    parts
        .get(idx)
        .copied()
        .ok_or_else(|| parse_err(line, format!("missing field {idx}")))
}

fn parse_u64(s: &str, line: usize) -> Result<u64, CsvError> {
    s.parse()
        .map_err(|_| parse_err(line, format!("bad integer {s:?}")))
}

fn parse_f64(s: &str, line: usize) -> Result<f64, CsvError> {
    s.parse()
        .map_err(|_| parse_err(line, format!("bad float {s:?}")))
}

fn parse_f32(s: &str, line: usize) -> Result<f32, CsvError> {
    s.parse()
        .map_err(|_| parse_err(line, format!("bad float {s:?}")))
}

fn parse_event(s: &str, line: usize) -> Result<EventType, CsvError> {
    EventType::ALL
        .iter()
        .copied()
        .find(|e| e.name() == s)
        .ok_or_else(|| parse_err(line, format!("bad event {s:?}")))
}

fn narrow<T: TryFrom<u64>>(v: u64, what: &str, line: usize) -> Result<T, CsvError> {
    T::try_from(v).map_err(|_| parse_err(line, format!("{what} {v} out of range")))
}

fn opt_u64(s: &str, line: usize) -> Result<Option<u64>, CsvError> {
    if s.is_empty() {
        Ok(None)
    } else {
        parse_u64(s, line).map(Some)
    }
}

/// Writes the machine-events table.
pub fn write_machine_events(w: &mut impl Write, events: &[MachineEvent]) -> io::Result<()> {
    writeln!(w, "time,machine_id,event_type,cpu,mem,platform")?;
    for e in events {
        let ty = match e.event_type {
            MachineEventType::Add => "add",
            MachineEventType::Remove => "remove",
            MachineEventType::Update => "update",
        };
        writeln!(
            w,
            "{},{},{},{},{},{}",
            e.time.as_micros(),
            e.machine_id.0,
            ty,
            e.capacity.cpu,
            e.capacity.mem,
            e.platform.0
        )?;
    }
    Ok(())
}

/// Parses one data row of the machine-events table (`n` is its 1-based
/// line number, used in error messages only).
pub fn parse_machine_line(line: &str, n: usize) -> Result<MachineEvent, CsvError> {
    let parts: Vec<&str> = line.split(',').collect();
    let ty = match field(&parts, 2, n)? {
        "add" => MachineEventType::Add,
        "remove" => MachineEventType::Remove,
        "update" => MachineEventType::Update,
        other => return Err(parse_err(n, format!("bad machine event {other:?}"))),
    };
    Ok(MachineEvent {
        time: Micros(parse_u64(field(&parts, 0, n)?, n)?),
        machine_id: MachineId(narrow(
            parse_u64(field(&parts, 1, n)?, n)?,
            "machine_id",
            n,
        )?),
        event_type: ty,
        capacity: Resources::new(
            parse_f64(field(&parts, 3, n)?, n)?,
            parse_f64(field(&parts, 4, n)?, n)?,
        ),
        platform: Platform(narrow(parse_u64(field(&parts, 5, n)?, n)?, "platform", n)?),
    })
}

/// Reads the machine-events table.
pub fn read_machine_events(r: impl BufRead) -> Result<Vec<MachineEvent>, CsvError> {
    read_table_strict(r, parse_machine_line)
}

fn scheduler_name(s: SchedulerKind) -> &'static str {
    match s {
        SchedulerKind::Default => "default",
        SchedulerKind::Batch => "batch",
    }
}

/// Writes the collection-events table.
pub fn write_collection_events(w: &mut impl Write, events: &[CollectionEvent]) -> io::Result<()> {
    writeln!(
        w,
        "time,collection_id,event_type,collection_type,priority,scheduler,vertical_scaling,parent_id,alloc_collection_id,user_id"
    )?;
    for e in events {
        writeln!(
            w,
            "{},{},{},{},{},{},{},{},{},{}",
            e.time.as_micros(),
            e.collection_id.0,
            e.event_type.name(),
            e.collection_type.name(),
            e.priority.raw(),
            scheduler_name(e.scheduler),
            e.vertical_scaling.name(),
            e.parent_id.map_or(String::new(), |p| p.0.to_string()),
            e.alloc_collection_id
                .map_or(String::new(), |p| p.0.to_string()),
            e.user_id.0,
        )?;
    }
    Ok(())
}

/// Parses one data row of the collection-events table.
pub fn parse_collection_line(line: &str, n: usize) -> Result<CollectionEvent, CsvError> {
    let parts: Vec<&str> = line.split(',').collect();
    let ctype = match field(&parts, 3, n)? {
        "job" => CollectionType::Job,
        "alloc_set" => CollectionType::AllocSet,
        other => return Err(parse_err(n, format!("bad collection type {other:?}"))),
    };
    let sched = match field(&parts, 5, n)? {
        "default" => SchedulerKind::Default,
        "batch" => SchedulerKind::Batch,
        other => return Err(parse_err(n, format!("bad scheduler {other:?}"))),
    };
    let vs = match field(&parts, 6, n)? {
        "off" => VerticalScalingMode::Off,
        "constrained" => VerticalScalingMode::Constrained,
        "full" => VerticalScalingMode::Full,
        other => return Err(parse_err(n, format!("bad scaling mode {other:?}"))),
    };
    Ok(CollectionEvent {
        time: Micros(parse_u64(field(&parts, 0, n)?, n)?),
        collection_id: CollectionId(parse_u64(field(&parts, 1, n)?, n)?),
        event_type: parse_event(field(&parts, 2, n)?, n)?,
        collection_type: ctype,
        priority: Priority::new(narrow(parse_u64(field(&parts, 4, n)?, n)?, "priority", n)?),
        scheduler: sched,
        vertical_scaling: vs,
        parent_id: opt_u64(field(&parts, 7, n)?, n)?.map(CollectionId),
        alloc_collection_id: opt_u64(field(&parts, 8, n)?, n)?.map(CollectionId),
        user_id: UserId(narrow(parse_u64(field(&parts, 9, n)?, n)?, "user_id", n)?),
    })
}

/// Reads the collection-events table.
pub fn read_collection_events(r: impl BufRead) -> Result<Vec<CollectionEvent>, CsvError> {
    read_table_strict(r, parse_collection_line)
}

/// Writes the instance-events table.
pub fn write_instance_events(w: &mut impl Write, events: &[InstanceEvent]) -> io::Result<()> {
    writeln!(
        w,
        "time,collection_id,instance_index,event_type,machine_id,cpu_request,mem_request,priority,alloc_collection_id,alloc_instance_index"
    )?;
    for e in events {
        writeln!(
            w,
            "{},{},{},{},{},{},{},{},{},{}",
            e.time.as_micros(),
            e.instance_id.collection.0,
            e.instance_id.index,
            e.event_type.name(),
            e.machine_id.map_or(String::new(), |m| m.0.to_string()),
            e.request.cpu,
            e.request.mem,
            e.priority.raw(),
            e.alloc_instance
                .map_or(String::new(), |a| a.collection.0.to_string()),
            e.alloc_instance
                .map_or(String::new(), |a| a.index.to_string()),
        )?;
    }
    Ok(())
}

/// Parses one data row of the instance-events table.
pub fn parse_instance_line(line: &str, n: usize) -> Result<InstanceEvent, CsvError> {
    let parts: Vec<&str> = line.split(',').collect();
    let alloc_col = opt_u64(field(&parts, 8, n)?, n)?;
    let alloc_idx = match opt_u64(field(&parts, 9, n)?, n)? {
        Some(x) => Some(narrow(x, "alloc_instance_index", n)?),
        None => None,
    };
    let alloc_instance = match (alloc_col, alloc_idx) {
        (Some(c), Some(x)) => Some(InstanceId::new(CollectionId(c), x)),
        (None, None) => None,
        _ => return Err(parse_err(n, "half-specified alloc instance")),
    };
    Ok(InstanceEvent {
        time: Micros(parse_u64(field(&parts, 0, n)?, n)?),
        instance_id: InstanceId::new(
            CollectionId(parse_u64(field(&parts, 1, n)?, n)?),
            narrow(parse_u64(field(&parts, 2, n)?, n)?, "instance_index", n)?,
        ),
        event_type: parse_event(field(&parts, 3, n)?, n)?,
        machine_id: match opt_u64(field(&parts, 4, n)?, n)? {
            Some(m) => Some(MachineId(narrow(m, "machine_id", n)?)),
            None => None,
        },
        request: Resources::new(
            parse_f64(field(&parts, 5, n)?, n)?,
            parse_f64(field(&parts, 6, n)?, n)?,
        ),
        priority: Priority::new(narrow(parse_u64(field(&parts, 7, n)?, n)?, "priority", n)?),
        alloc_instance,
    })
}

/// Reads the instance-events table.
pub fn read_instance_events(r: impl BufRead) -> Result<Vec<InstanceEvent>, CsvError> {
    read_table_strict(r, parse_instance_line)
}

/// Writes the usage table (histogram inlined as 21 extra columns).
pub fn write_usage(w: &mut impl Write, records: &[UsageRecord]) -> io::Result<()> {
    write!(
        w,
        "start,end,collection_id,instance_index,machine_id,avg_cpu,avg_mem,max_cpu,max_mem,limit_cpu,limit_mem"
    )?;
    for p in borg_trace::usage::CPU_HISTOGRAM_PERCENTILES {
        write!(w, ",p{p}")?;
    }
    writeln!(w)?;
    for u in records {
        write!(
            w,
            "{},{},{},{},{},{},{},{},{},{},{}",
            u.start.as_micros(),
            u.end.as_micros(),
            u.instance_id.collection.0,
            u.instance_id.index,
            u.machine_id.0,
            u.avg_usage.cpu,
            u.avg_usage.mem,
            u.max_usage.cpu,
            u.max_usage.mem,
            u.limit.cpu,
            u.limit.mem,
        )?;
        for v in u.cpu_histogram.0 {
            write!(w, ",{v}")?;
        }
        writeln!(w)?;
    }
    Ok(())
}

/// Parses one data row of the usage table.
pub fn parse_usage_line(line: &str, n: usize) -> Result<UsageRecord, CsvError> {
    let parts: Vec<&str> = line.split(',').collect();
    let mut hist = [0.0f32; 21];
    for (k, h) in hist.iter_mut().enumerate() {
        *h = parse_f32(field(&parts, 11 + k, n)?, n)?;
    }
    Ok(UsageRecord {
        start: Micros(parse_u64(field(&parts, 0, n)?, n)?),
        end: Micros(parse_u64(field(&parts, 1, n)?, n)?),
        instance_id: InstanceId::new(
            CollectionId(parse_u64(field(&parts, 2, n)?, n)?),
            narrow(parse_u64(field(&parts, 3, n)?, n)?, "instance_index", n)?,
        ),
        machine_id: MachineId(narrow(
            parse_u64(field(&parts, 4, n)?, n)?,
            "machine_id",
            n,
        )?),
        avg_usage: Resources::new(
            parse_f64(field(&parts, 5, n)?, n)?,
            parse_f64(field(&parts, 6, n)?, n)?,
        ),
        max_usage: Resources::new(
            parse_f64(field(&parts, 7, n)?, n)?,
            parse_f64(field(&parts, 8, n)?, n)?,
        ),
        limit: Resources::new(
            parse_f64(field(&parts, 9, n)?, n)?,
            parse_f64(field(&parts, 10, n)?, n)?,
        ),
        cpu_histogram: CpuHistogram(hist),
    })
}

/// Reads the usage table.
pub fn read_usage(r: impl BufRead) -> Result<Vec<UsageRecord>, CsvError> {
    read_table_strict(r, parse_usage_line)
}

/// Shared strict table loop: header skipped, blank lines skipped, the
/// first malformed line aborts the read.
fn read_table_strict<T>(
    r: impl BufRead,
    parse: impl Fn(&str, usize) -> Result<T, CsvError>,
) -> Result<Vec<T>, CsvError> {
    let mut out = Vec::new();
    for (i, line) in r.lines().enumerate() {
        let line = line?;
        if i == 0 || line.is_empty() {
            continue;
        }
        out.push(parse(&line, i + 1)?);
    }
    Ok(out)
}

// ---- dir ----
type Metadata = (String, Option<SchemaVersion>, Micros);

fn parse_metadata(meta: &str) -> Result<Metadata, CsvError> {
    let line = meta
        .lines()
        .nth(1)
        .ok_or_else(|| parse_err(2, "missing metadata row"))?;
    let parts: Vec<&str> = line.split(',').collect();
    let cell_name = field(&parts, 0, 2)?.to_string();
    let schema = match field(&parts, 1, 2)? {
        "v2-2011" => Some(SchemaVersion::V2Trace2011),
        "v3-2019" => Some(SchemaVersion::V3Trace2019),
        _ => None,
    };
    let horizon = Micros(parse_u64(field(&parts, 2, 2)?, 2)?);
    Ok((cell_name, schema, horizon))
}

fn reject_line(q: &mut Quarantine, file: &'static str, line: usize, message: String) {
    if q.lines.len() < QUARANTINE_DETAIL_CAP {
        q.lines.push(QuarantinedLine {
            file,
            line,
            message,
        });
    }
    *q.line_counts.entry(file).or_insert(0) += 1;
}

fn table_error(q: &mut Quarantine, file: &str, message: String) {
    q.table_errors.push((file.to_string(), message));
}

/// Lenient table loop: malformed lines are quarantined instead of
/// aborting; a mid-file I/O failure records a table error and keeps
/// what was read so far.
fn read_table_lenient<T>(
    r: impl BufRead,
    file: &'static str,
    q: &mut Quarantine,
    parse: impl Fn(&str, usize) -> Result<T, CsvError>,
) -> Vec<T> {
    let mut out = Vec::new();
    for (i, line) in r.lines().enumerate() {
        let line = match line {
            Ok(l) => l,
            Err(e) => {
                table_error(q, file, format!("io error near line {}: {e}", i + 1));
                break;
            }
        };
        if i == 0 || line.is_empty() {
            continue;
        }
        let n = i + 1;
        match parse(&line, n) {
            Ok(v) => out.push(v),
            Err(e) => reject_line(q, file, n, e.to_string()),
        }
    }
    out
}

/// Reads a trace directory, quarantining damage instead of failing
/// fast: per-line parse errors are collected per table, missing or
/// unreadable files yield empty tables with a table-level error, and a
/// missing horizon is inferred from the data. Always returns a trace;
/// callers inspect the [`Quarantine`] to learn what was lost.
pub fn read_trace_dir_lenient(dir: &std::path::Path) -> (Trace, Quarantine) {
    let mut q = Quarantine::default();
    let (cell_name, schema, horizon) = match std::fs::read_to_string(dir.join(FILE_METADATA)) {
        Ok(meta) => match parse_metadata(&meta) {
            Ok(m) => m,
            Err(e) => {
                table_error(&mut q, FILE_METADATA, e.to_string());
                ("unknown".to_string(), None, Micros::ZERO)
            }
        },
        Err(e) => {
            table_error(&mut q, FILE_METADATA, format!("io error: {e}"));
            ("unknown".to_string(), None, Micros::ZERO)
        }
    };
    fn load<T>(
        dir: &std::path::Path,
        file: &'static str,
        q: &mut Quarantine,
        parse: impl Fn(&str, usize) -> Result<T, CsvError>,
    ) -> Vec<T> {
        match std::fs::File::open(dir.join(file)) {
            Ok(f) => read_table_lenient(std::io::BufReader::new(f), file, q, parse),
            Err(e) => {
                table_error(q, file, format!("io error: {e}"));
                Vec::new()
            }
        }
    }
    let mut trace = Trace {
        cell_name,
        schema,
        horizon,
        machine_events: load(dir, FILE_MACHINE, &mut q, parse_machine_line),
        collection_events: load(dir, FILE_COLLECTION, &mut q, parse_collection_line),
        instance_events: load(dir, FILE_INSTANCE, &mut q, parse_instance_line),
        usage: load(dir, FILE_USAGE, &mut q, parse_usage_line),
    };
    if trace.horizon == Micros::ZERO {
        trace.horizon = observed_horizon(&trace);
    }
    (trace, q)
}

/// Largest timestamp present in any table — the fallback horizon when
/// metadata is missing or damaged.
fn observed_horizon(t: &Trace) -> Micros {
    let mut h = Micros::ZERO;
    for e in &t.machine_events {
        h = h.max(e.time);
    }
    for e in &t.collection_events {
        h = h.max(e.time);
    }
    for e in &t.instance_events {
        h = h.max(e.time);
    }
    for u in &t.usage {
        h = h.max(u.end);
    }
    h
}
// ---- repair ----
/// Repairs a damaged trace in place so that `validate`
/// finds no violations, returning a count of every action taken. See the
/// module docs for the repair rules.
pub fn repair(trace: &mut Trace) -> RepairReport {
    let mut report = RepairReport::default();
    repair_machine_events(trace, &mut report);
    repair_collection_events(trace, &mut report);
    let still_running = repair_instance_events(trace, &mut report);
    insert_lost(trace, &still_running, &mut report);
    backfill_collections(trace, &mut report);
    repair_usage(trace, &mut report);
    backfill_machines(trace, &mut report);
    trace.machine_events.sort_by_key(|e| e.time);
    trace.collection_events.sort_by_key(|e| e.time);
    trace.instance_events.sort_by_key(|e| e.time);
    trace.usage.sort_by_key(|u| u.start);
    report
}

/// Outcome of feeding one event through the repairing walk.
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

/// Removes later exact duplicates within each equal-time run of an
/// entity's stably time-sorted event list, returning the removed count.
/// Clean generated traces never contain two identical rows for the same
/// entity at the same timestamp, so every removal is a real duplicate.
fn dedupe_sorted<T: PartialEq + Copy>(evs: &mut Vec<T>, time: impl Fn(&T) -> Micros) -> u64 {
    let mut removed = 0;
    let mut out: Vec<T> = Vec::with_capacity(evs.len());
    let mut run_start = 0;
    for &e in evs.iter() {
        if out.last().map(&time) != Some(time(&e)) {
            run_start = out.len();
        }
        if out[run_start..].contains(&e) {
            removed += 1;
        } else {
            out.push(e);
        }
    }
    *evs = out;
    removed
}

fn repair_machine_events(trace: &mut Trace, report: &mut RepairReport) {
    let mut groups: BTreeMap<MachineId, Vec<MachineEvent>> = BTreeMap::new();
    for ev in &trace.machine_events {
        groups.entry(ev.machine_id).or_default().push(*ev);
    }
    let mut out = Vec::with_capacity(trace.machine_events.len());
    for (_, mut evs) in groups {
        evs.sort_by_key(|e| e.time);
        report.machine_events.deduped += dedupe_sorted(&mut evs, |e| e.time);
        out.extend(evs);
    }
    trace.machine_events = out;
}

fn repair_collection_events(trace: &mut Trace, report: &mut RepairReport) {
    let mut groups: BTreeMap<CollectionId, Vec<CollectionEvent>> = BTreeMap::new();
    for ev in &trace.collection_events {
        groups.entry(ev.collection_id).or_default().push(*ev);
    }
    let mut out = Vec::with_capacity(trace.collection_events.len());
    for (_, mut evs) in groups {
        evs.sort_by_key(|e| e.time);
        report.collection_events.deduped += dedupe_sorted(&mut evs, |e| e.time);
        let mut sm = StateMachine::new();
        for ev in evs {
            match walk(&mut sm, ev.event_type) {
                Walk::Legal => out.push(ev),
                Walk::Bridged(steps) => {
                    for &step in steps {
                        let mut synth = ev;
                        synth.event_type = step;
                        out.push(synth);
                        report.collection_events.synthesized += 1;
                    }
                    out.push(ev);
                }
                Walk::Dropped => report.collection_events.dropped += 1,
            }
        }
    }
    trace.collection_events = out;
}

/// An instance left in `Running` state at the end of its event stream:
/// the template for a possible `Lost` insertion.
struct RunningTail {
    last_event: InstanceEvent,
    last_machine: Option<MachineId>,
}

fn synth_instance(ev: &InstanceEvent, ty: EventType) -> InstanceEvent {
    let mut s = *ev;
    s.event_type = ty;
    if matches!(ty, EventType::Submit | EventType::Queue | EventType::Enable) {
        s.machine_id = None;
    }
    s
}

fn repair_instance_events(trace: &mut Trace, report: &mut RepairReport) -> Vec<RunningTail> {
    let mut groups: BTreeMap<InstanceId, Vec<InstanceEvent>> = BTreeMap::new();
    for ev in &trace.instance_events {
        groups.entry(ev.instance_id).or_default().push(*ev);
    }
    let mut out = Vec::with_capacity(trace.instance_events.len());
    let mut running = Vec::new();
    for (_, mut evs) in groups {
        evs.sort_by_key(|e| e.time);
        report.instance_events.deduped += dedupe_sorted(&mut evs, |e| e.time);
        let mut sm = StateMachine::new();
        let mut last_machine = None;
        let mut last_event = None;
        for ev in evs {
            match walk(&mut sm, ev.event_type) {
                Walk::Legal => out.push(ev),
                Walk::Bridged(steps) => {
                    for &step in steps {
                        out.push(synth_instance(&ev, step));
                        report.instance_events.synthesized += 1;
                    }
                    out.push(ev);
                }
                Walk::Dropped => {
                    report.instance_events.dropped += 1;
                    continue;
                }
            }
            last_machine = ev.machine_id.or(last_machine);
            last_event = Some(ev);
        }
        if sm.state() == Some(InstanceState::Running) {
            if let Some(last_event) = last_event {
                running.push(RunningTail {
                    last_event,
                    last_machine,
                });
            }
        }
    }
    trace.instance_events = out;
    running
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
}

/// Back-fills a `Submit` for every collection referenced by instance
/// events but absent from the collection table, so instances are not
/// orphans and downstream collection maps see their owners.
fn backfill_collections(trace: &mut Trace, report: &mut RepairReport) {
    if trace.instance_events.is_empty() {
        return;
    }
    let known: BTreeSet<CollectionId> = trace
        .collection_events
        .iter()
        .map(|e| e.collection_id)
        .collect();
    let mut first: BTreeMap<CollectionId, InstanceEvent> = BTreeMap::new();
    for ev in &trace.instance_events {
        if known.contains(&ev.instance_id.collection) {
            continue;
        }
        let slot = first.entry(ev.instance_id.collection).or_insert(*ev);
        if ev.time < slot.time {
            *slot = *ev;
        }
    }
    for (id, ev) in first {
        trace.collection_events.push(CollectionEvent {
            time: ev.time,
            collection_id: id,
            event_type: EventType::Submit,
            collection_type: CollectionType::Job,
            priority: ev.priority,
            scheduler: SchedulerKind::Default,
            vertical_scaling: VerticalScalingMode::Off,
            parent_id: None,
            alloc_collection_id: None,
            user_id: UserId(0),
        });
        report.submits_backfilled += 1;
        report.collection_events.synthesized += 1;
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
    let mut groups: BTreeMap<(InstanceId, MachineId), Vec<borg_trace::usage::UsageRecord>> =
        BTreeMap::new();
    for rec in &trace.usage {
        groups
            .entry((rec.instance_id, rec.machine_id))
            .or_default()
            .push(*rec);
    }
    let mut out = Vec::with_capacity(trace.usage.len());
    for (_, mut recs) in groups {
        recs.sort_by_key(|r| r.start);
        report.usage.deduped += dedupe_sorted(&mut recs, |r| r.start);
        out.extend(recs);
    }
    trace.usage = out;
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
    for (machine, cap) in caps {
        trace
            .machine_events
            .push(MachineEvent::add(Micros::ZERO, machine, cap, Platform(0)));
        report.machines_backfilled += 1;
        report.machine_events.synthesized += 1;
    }
}
// ---- validate ----
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
    let mut events: BTreeMap<borg_trace::collection::CollectionId, Vec<(Micros, EventType)>> =
        BTreeMap::new();
    for ev in &trace.collection_events {
        events
            .entry(ev.collection_id)
            .or_default()
            .push((ev.time, ev.event_type));
    }
    for (id, mut evs) in events {
        evs.sort_by_key(|e| e.0);
        if let Some(first_terminal) = evs.iter().find(|e| e.1.is_terminal()) {
            if let Some(first_submit) = evs.iter().find(|e| e.1 == EventType::Submit) {
                if first_terminal.0 < first_submit.0 {
                    out.push(Violation::TerminationBeforeSubmit { collection: id });
                }
            }
        }
        let mut sm = StateMachine::new();
        for (time, event) in evs {
            if sm.apply(event).is_err() {
                out.push(Violation::IllegalCollectionTransition {
                    collection: id,
                    event,
                    time,
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
    let known_collections: BTreeSet<_> = trace
        .collection_events
        .iter()
        .map(|e| e.collection_id)
        .collect();
    let mut groups: BTreeMap<InstanceId, Vec<&InstanceEvent>> = BTreeMap::new();
    for ev in &trace.instance_events {
        groups.entry(ev.instance_id).or_default().push(ev);
    }
    for group in groups.values_mut() {
        group.sort_by_key(|e| e.time);
    }
    for (id, evs) in groups {
        if !known_collections.is_empty() && !known_collections.contains(&id.collection) {
            out.push(Violation::OrphanInstance { instance: id });
        }
        let mut sm = StateMachine::new();
        for ev in evs {
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

    // Per (machine, window-start) summed average usage.
    let mut window_usage: BTreeMap<(MachineId, Micros), Resources> = BTreeMap::new();
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
        *window_usage
            .entry((rec.machine_id, rec.start))
            .or_insert(Resources::ZERO) += rec.avg_usage;
        if out.len() >= cfg.max_violations {
            return;
        }
    }

    for ((machine, window), used) in window_usage {
        if let Some(cap) = capacity.get(&machine) {
            if used.cpu > cap.cpu * cfg.capacity_tolerance {
                out.push(Violation::MachineOverCapacity {
                    machine,
                    window,
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

/// The four tables as the reference writers render them. Equal bytes
/// mean bit-equal rows (floats print their shortest round-trip digits),
/// and unlike `==` on rows that also holds for rows carrying a NaN.
pub fn render_tables(t: &Trace) -> Vec<u8> {
    let mut buf = Vec::new();
    write_machine_events(&mut buf, &t.machine_events).expect("Vec sink");
    write_collection_events(&mut buf, &t.collection_events).expect("Vec sink");
    write_instance_events(&mut buf, &t.instance_events).expect("Vec sink");
    write_usage(&mut buf, &t.usage).expect("Vec sink");
    buf
}

// ---- directory writers ----

fn metadata_csv(trace: &Trace) -> String {
    format!(
        "cell_name,schema,horizon\n{},{},{}\n",
        trace.cell_name,
        trace.schema.map_or("unknown", |s| s.name()),
        trace.horizon.as_micros()
    )
}

/// Writes every table of a trace into a directory, one file per table.
pub fn write_trace_dir(trace: &Trace, dir: &std::path::Path) -> io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let mut f = io::BufWriter::new(std::fs::File::create(dir.join(FILE_MACHINE))?);
    write_machine_events(&mut f, &trace.machine_events)?;
    f.flush()?;
    let mut f = io::BufWriter::new(std::fs::File::create(dir.join(FILE_COLLECTION))?);
    write_collection_events(&mut f, &trace.collection_events)?;
    f.flush()?;
    let mut f = io::BufWriter::new(std::fs::File::create(dir.join(FILE_INSTANCE))?);
    write_instance_events(&mut f, &trace.instance_events)?;
    f.flush()?;
    let mut f = io::BufWriter::new(std::fs::File::create(dir.join(FILE_USAGE))?);
    write_usage(&mut f, &trace.usage)?;
    f.flush()?;
    std::fs::write(dir.join(FILE_METADATA), metadata_csv(trace))
}

/// Garbles a fraction of data lines in a rendered CSV table so they can
/// never parse (the first field becomes non-numeric), counting each one.
fn garble_lines(table: &str, frac: f64, rng: &mut StdRng, garbled: &mut u64) -> String {
    if frac <= 0.0 {
        return table.to_string();
    }
    let mut out = String::with_capacity(table.len() + 64);
    for (i, line) in table.lines().enumerate() {
        if i > 0 && !line.is_empty() && rng.random_bool(frac) {
            out.push_str("##corrupt##");
            *garbled += 1;
        }
        out.push_str(line);
        out.push('\n');
    }
    out
}

/// The lossy writer's byte-level stage as it was: each table rendered to
/// a buffer, garbled line by line, written whole.
pub fn write_trace_dir_lossy(
    trace: &Trace,
    dir: &std::path::Path,
    cfg: &CorruptionConfig,
    seed: u64,
    ledger: &mut FaultLedger,
) -> io::Result<()> {
    let mut rng = StdRng::seed_from_u64(seed);
    std::fs::create_dir_all(dir)?;
    let frac = cfg.garble_fraction;
    let mut table = |file: &str,
                     render: &dyn Fn(&mut Vec<u8>) -> io::Result<()>,
                     garbled: &mut u64|
     -> io::Result<()> {
        let mut buf = Vec::new();
        render(&mut buf)?;
        let text = String::from_utf8_lossy(&buf).into_owned();
        std::fs::write(dir.join(file), garble_lines(&text, frac, &mut rng, garbled))
    };
    table(
        FILE_MACHINE,
        &|b| write_machine_events(b, &trace.machine_events),
        &mut ledger.machine_events.garbled,
    )?;
    table(
        FILE_COLLECTION,
        &|b| write_collection_events(b, &trace.collection_events),
        &mut ledger.collection_events.garbled,
    )?;
    table(
        FILE_INSTANCE,
        &|b| write_instance_events(b, &trace.instance_events),
        &mut ledger.instance_events.garbled,
    )?;
    table(
        FILE_USAGE,
        &|b| write_usage(b, &trace.usage),
        &mut ledger.usage.garbled,
    )?;
    std::fs::write(dir.join(FILE_METADATA), metadata_csv(trace))
}
