//! Plain-text (CSV) round-trip of trace tables.
//!
//! The 2011 trace shipped as CSV files; this module writes and reads the
//! same style for every table in the model so traces can be persisted,
//! inspected with standard tools, and diffed. Fields never contain commas,
//! so no quoting is needed.
//!
//! Each table has one `Codec`: how a row is rendered and how a line is
//! parsed. The file-format rules the codecs, `write_table` and `Lines`
//! must keep (shortest-round-trip floats, std's parse acceptance set, the
//! line-numbering rules) are listed in DESIGN.md §11.

use crate::collection::{
    CollectionEvent, CollectionId, CollectionType, SchedulerKind, UserId, VerticalScalingMode,
};
use crate::instance::{InstanceEvent, InstanceId};
use crate::machine::{MachineEvent, MachineEventType, MachineId, Platform};
use crate::priority::Priority;
use crate::resources::Resources;
use crate::state::EventType;
use crate::time::Micros;
use crate::trace::{SchemaVersion, Trace};
use crate::usage::{CpuHistogram, UsageRecord};
use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;
use std::io::{self, BufRead, Write};

/// Errors arising while parsing a CSV trace table.
#[derive(Debug)]
pub enum CsvError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// A malformed line, with its 1-based line number and a description.
    Parse {
        /// 1-based line number.
        line: usize,
        /// What was wrong.
        message: String,
    },
    /// An error attributed to one of the per-table files of a trace
    /// directory, so `line 17: bad integer` says which CSV it came from.
    Table {
        /// File name within the trace directory (e.g. `instance_events.csv`).
        file: String,
        /// The underlying error.
        source: Box<CsvError>,
    },
}

impl fmt::Display for CsvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CsvError::Io(e) => write!(f, "io error: {e}"),
            CsvError::Parse { line, message } => write!(f, "line {line}: {message}"),
            CsvError::Table { file, source } => write!(f, "{file}: {source}"),
        }
    }
}

impl std::error::Error for CsvError {}

impl From<io::Error> for CsvError {
    fn from(e: io::Error) -> Self {
        CsvError::Io(e)
    }
}

fn parse_err(line: usize, message: impl Into<String>) -> CsvError {
    CsvError::Parse {
        line,
        message: message.into(),
    }
}

fn in_file(file: &str, e: CsvError) -> CsvError {
    CsvError::Table {
        file: file.to_string(),
        source: Box::new(e),
    }
}

fn parse_u64(s: &str, line: usize) -> Result<u64, CsvError> {
    s.parse()
        .map_err(|_| parse_err(line, format!("bad integer {s:?}")))
}

/// An integer field of a column narrower than `u64`: a value that does
/// not fit is a parse error naming the column, never a wrapped id.
fn parse_narrow<T: TryFrom<u64>>(s: &str, what: &str, line: usize) -> Result<T, CsvError> {
    let v = parse_u64(s, line)?;
    T::try_from(v).map_err(|_| parse_err(line, format!("{what} {v} out of range")))
}

fn parse_f64(s: &str, line: usize) -> Result<f64, CsvError> {
    s.parse()
        .map_err(|_| parse_err(line, format!("bad float {s:?}")))
}

fn parse_event(s: &str, line: usize) -> Result<EventType, CsvError> {
    EventType::parse(s).ok_or_else(|| parse_err(line, format!("bad event {s:?}")))
}

/// A field that may be empty: `None` then, else whatever `parse` makes
/// of it.
fn optional<T>(
    s: &str,
    parse: impl FnOnce(&str) -> Result<T, CsvError>,
) -> Result<Option<T>, CsvError> {
    if s.is_empty() {
        Ok(None)
    } else {
        parse(s).map(Some)
    }
}

/// The comma-separated fields of one line, split in place: at most `N`
/// are kept, which is as far as the table with that many columns reads.
struct Fields<'a, const N: usize> {
    parts: [&'a str; N],
    len: usize,
}

impl<'a, const N: usize> Fields<'a, N> {
    fn split(line: &'a str) -> Self {
        let mut parts = [""; N];
        let mut len = 0;
        let mut start = 0;
        for (i, &b) in line.as_bytes().iter().enumerate() {
            if b == b',' {
                if len == N {
                    return Fields { parts, len };
                }
                parts[len] = &line[start..i];
                len += 1;
                start = i + 1;
            }
        }
        if len < N {
            parts[len] = &line[start..];
            len += 1;
        }
        Fields { parts, len }
    }

    fn get(&self, idx: usize, line: usize) -> Result<&'a str, CsvError> {
        self.parts[..self.len]
            .get(idx)
            .copied()
            .ok_or_else(|| parse_err(line, format!("missing field {idx}")))
    }
}

/// Appends `v` in decimal, then a comma.
fn push_int(out: &mut Vec<u8>, v: impl Into<u64>) {
    let mut v: u64 = v.into();
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[at..]);
    out.push(b',');
}

/// Appends `v` in decimal if there is one, then a comma.
fn push_opt_int(out: &mut Vec<u8>, v: Option<impl Into<u64>>) {
    match v {
        Some(v) => push_int(out, v),
        None => out.push(b','),
    }
}

/// Appends `s`, then a comma.
fn push_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(s.as_bytes());
    out.push(b',');
}

/// `fmt::Write` into a byte buffer, so `Display` output lands in the row
/// being rendered without a `String` in between.
struct Utf8Sink<'a>(&'a mut Vec<u8>);

impl fmt::Write for Utf8Sink<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0.extend_from_slice(s.as_bytes());
        Ok(())
    }
}

/// Appends `v` as `Display` writes it.
fn display(out: &mut Vec<u8>, v: impl fmt::Display) {
    // `Utf8Sink` never fails.
    let _ = write!(Utf8Sink(out), "{v}");
}

/// The last value that passed through one float column, as bits and as
/// text. Floats are written with `Display` (its shortest round-trip
/// digits *are* the file format) and read with `f64::from_str`; both cost
/// far more than a comparison, and adjacent rows usually repeat a request
/// or a limit, so each memoized column remembers its
/// previous value and converts only when the next one differs. Rendering
/// is keyed on the bit pattern (`-0.0` and NaN payloads stay distinct),
/// parsing on the exact field bytes, so a hit returns precisely what the
/// conversion would have.
#[derive(Default)]
struct FloatMemo {
    bits: u64,
    /// Empty until the first value: no float renders to, or parses from,
    /// an empty field.
    text: Vec<u8>,
}

impl FloatMemo {
    /// Appends `v` as `Display` writes it, then a comma.
    fn push(&mut self, out: &mut Vec<u8>, v: f64) {
        let bits = v.to_bits();
        if self.text.is_empty() || self.bits != bits {
            let start = out.len();
            display(out, v);
            self.bits = bits;
            self.text.clear();
            self.text.extend_from_slice(&out[start..]);
        } else {
            out.extend_from_slice(&self.text);
        }
        out.push(b',');
    }

    fn parse(&mut self, s: &str, line: usize) -> Result<f64, CsvError> {
        if !s.is_empty() && s.as_bytes() == self.text {
            return Ok(f64::from_bits(self.bits));
        }
        let v = parse_f64(s, line)?;
        self.bits = v.to_bits();
        self.text.clear();
        self.text.extend_from_slice(s.as_bytes());
        Ok(v)
    }
}

/// Appends `v` as `Display` writes it, then a comma (the columns where
/// adjacent rows do not repeat, or too few rows to matter).
fn push_float(out: &mut Vec<u8>, v: impl fmt::Display) {
    display(out, v);
    out.push(b',');
}

/// One table's file format. A codec value lives for one pass over one
/// table and holds that pass's float memos.
trait Codec: Default {
    /// The table's row type.
    type Row;
    /// File name within a trace directory.
    const FILE: &'static str;
    /// Appends the header line, without its newline.
    fn header(out: &mut Vec<u8>);
    /// Appends one row, every field followed by a comma; [`write_table`]
    /// turns the last comma into the newline.
    fn render(&mut self, out: &mut Vec<u8>, row: &Self::Row);
    /// Parses one data line (`n` is its 1-based number, for errors only).
    fn parse(&mut self, line: &str, n: usize) -> Result<Self::Row, CsvError>;
}

/// Bytes rendered before a table writer hands them to its sink.
const WRITE_CHUNK: usize = 64 * 1024;
/// Read-buffer size of the directory readers.
const READ_CHUNK: usize = 64 * 1024;

/// Renders a table into one reused buffer, flushed to `w` a chunk at a
/// time. `before_row` runs before each data row is rendered and may
/// append a prefix to its line.
fn write_table<C: Codec>(
    w: &mut impl Write,
    rows: &[C::Row],
    before_row: &mut dyn FnMut(&mut Vec<u8>),
) -> io::Result<()> {
    let mut codec = C::default();
    let mut buf = Vec::with_capacity(WRITE_CHUNK + 1024);
    C::header(&mut buf);
    buf.push(b'\n');
    for row in rows {
        before_row(&mut buf);
        codec.render(&mut buf, row);
        if let Some(last) = buf.last_mut() {
            *last = b'\n';
        }
        if buf.len() >= WRITE_CHUNK {
            w.write_all(&buf)?;
            buf.clear();
        }
    }
    w.write_all(&buf)
}

/// The data lines of a table, read into one reused buffer: the header is
/// skipped whatever it says, blank lines are skipped, `\n` and `\r\n`
/// both end a line, and lines are numbered from 1 counting every line.
struct Lines<R> {
    reader: R,
    buf: Vec<u8>,
    number: usize,
}

impl<R: BufRead> Lines<R> {
    fn new(reader: R) -> Self {
        Lines {
            reader,
            buf: Vec::new(),
            number: 0,
        }
    }

    /// The next data line and its number, `None` at the end. An I/O
    /// failure or a line that is not UTF-8 (the header included) is an
    /// error carrying the number of the line it happened on.
    fn next_row(&mut self) -> Result<Option<(&str, usize)>, (usize, io::Error)> {
        loop {
            self.buf.clear();
            self.number += 1;
            let read = self
                .reader
                .read_until(b'\n', &mut self.buf)
                .map_err(|e| (self.number, e))?;
            if read == 0 {
                return Ok(None);
            }
            if self.buf.last() == Some(&b'\n') {
                self.buf.pop();
                if self.buf.last() == Some(&b'\r') {
                    self.buf.pop();
                }
            }
            if self.number == 1 {
                if std::str::from_utf8(&self.buf).is_err() {
                    return Err((1, invalid_utf8()));
                }
            } else if !self.buf.is_empty() {
                break;
            }
        }
        match std::str::from_utf8(&self.buf) {
            Ok(line) => Ok(Some((line, self.number))),
            Err(_) => Err((self.number, invalid_utf8())),
        }
    }
}

/// The error `BufRead::lines` reports for a line that is not UTF-8.
fn invalid_utf8() -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        "stream did not contain valid UTF-8",
    )
}

/// Strict table read: the first malformed line aborts it.
fn read_table<C: Codec>(r: impl BufRead) -> Result<Vec<C::Row>, CsvError> {
    let mut codec = C::default();
    let mut lines = Lines::new(r);
    let mut out = Vec::new();
    while let Some((line, n)) = lines.next_row().map_err(|(_, e)| CsvError::Io(e))? {
        out.push(codec.parse(line, n)?);
    }
    Ok(out)
}

/// Lenient table read: malformed lines are quarantined instead of
/// aborting; a mid-file I/O failure records a table error and keeps
/// what was read so far.
fn read_table_lenient<C: Codec>(r: impl BufRead, q: &mut Quarantine) -> Vec<C::Row> {
    let mut codec = C::default();
    let mut lines = Lines::new(r);
    let mut out = Vec::new();
    loop {
        match lines.next_row() {
            Ok(Some((line, n))) => match codec.parse(line, n) {
                Ok(v) => out.push(v),
                Err(e) => q.reject_line(C::FILE, n, e.to_string()),
            },
            Ok(None) => break,
            Err((n, e)) => {
                q.table_error(C::FILE, format!("io error near line {n}: {e}"));
                break;
            }
        }
    }
    out
}

/// The machine-events table (a few hundred rows: no memo).
#[derive(Default)]
struct MachineCodec;

impl Codec for MachineCodec {
    type Row = MachineEvent;
    const FILE: &'static str = FILE_MACHINE;

    fn header(out: &mut Vec<u8>) {
        out.extend_from_slice(b"time,machine_id,event_type,cpu,mem,platform");
    }

    fn render(&mut self, out: &mut Vec<u8>, e: &MachineEvent) {
        push_int(out, e.time.as_micros());
        push_int(out, e.machine_id.0);
        push_str(
            out,
            match e.event_type {
                MachineEventType::Add => "add",
                MachineEventType::Remove => "remove",
                MachineEventType::Update => "update",
            },
        );
        push_float(out, e.capacity.cpu);
        push_float(out, e.capacity.mem);
        push_int(out, e.platform.0);
    }

    fn parse(&mut self, line: &str, n: usize) -> Result<MachineEvent, CsvError> {
        let f = Fields::<6>::split(line);
        let ty = match f.get(2, n)? {
            "add" => MachineEventType::Add,
            "remove" => MachineEventType::Remove,
            "update" => MachineEventType::Update,
            other => return Err(parse_err(n, format!("bad machine event {other:?}"))),
        };
        Ok(MachineEvent {
            time: Micros(parse_u64(f.get(0, n)?, n)?),
            machine_id: MachineId(parse_narrow(f.get(1, n)?, "machine_id", n)?),
            event_type: ty,
            capacity: Resources::new(parse_f64(f.get(3, n)?, n)?, parse_f64(f.get(4, n)?, n)?),
            platform: Platform(parse_narrow(f.get(5, n)?, "platform", n)?),
        })
    }
}

/// Writes the machine-events table.
pub fn write_machine_events(w: &mut impl Write, events: &[MachineEvent]) -> io::Result<()> {
    write_table::<MachineCodec>(w, events, &mut |_| {})
}

/// Parses one data row of the machine-events table (`n` is its 1-based
/// line number, used in error messages only).
pub fn parse_machine_line(line: &str, n: usize) -> Result<MachineEvent, CsvError> {
    MachineCodec.parse(line, n)
}

/// Reads the machine-events table.
pub fn read_machine_events(r: impl BufRead) -> Result<Vec<MachineEvent>, CsvError> {
    read_table::<MachineCodec>(r)
}

fn scheduler_name(s: SchedulerKind) -> &'static str {
    match s {
        SchedulerKind::Default => "default",
        SchedulerKind::Batch => "batch",
    }
}

/// The collection-events table (no float columns).
#[derive(Default)]
struct CollectionCodec;

impl Codec for CollectionCodec {
    type Row = CollectionEvent;
    const FILE: &'static str = FILE_COLLECTION;

    fn header(out: &mut Vec<u8>) {
        out.extend_from_slice(
            b"time,collection_id,event_type,collection_type,priority,scheduler,vertical_scaling,parent_id,alloc_collection_id,user_id",
        );
    }

    fn render(&mut self, out: &mut Vec<u8>, e: &CollectionEvent) {
        push_int(out, e.time.as_micros());
        push_int(out, e.collection_id.0);
        push_str(out, e.event_type.name());
        push_str(out, e.collection_type.name());
        push_int(out, e.priority.raw());
        push_str(out, scheduler_name(e.scheduler));
        push_str(out, e.vertical_scaling.name());
        push_opt_int(out, e.parent_id.map(|p| p.0));
        push_opt_int(out, e.alloc_collection_id.map(|p| p.0));
        push_int(out, e.user_id.0);
    }

    fn parse(&mut self, line: &str, n: usize) -> Result<CollectionEvent, CsvError> {
        let f = Fields::<10>::split(line);
        let ctype = match f.get(3, n)? {
            "job" => CollectionType::Job,
            "alloc_set" => CollectionType::AllocSet,
            other => return Err(parse_err(n, format!("bad collection type {other:?}"))),
        };
        let sched = match f.get(5, n)? {
            "default" => SchedulerKind::Default,
            "batch" => SchedulerKind::Batch,
            other => return Err(parse_err(n, format!("bad scheduler {other:?}"))),
        };
        let vs = match f.get(6, n)? {
            "off" => VerticalScalingMode::Off,
            "constrained" => VerticalScalingMode::Constrained,
            "full" => VerticalScalingMode::Full,
            other => return Err(parse_err(n, format!("bad scaling mode {other:?}"))),
        };
        Ok(CollectionEvent {
            time: Micros(parse_u64(f.get(0, n)?, n)?),
            collection_id: CollectionId(parse_u64(f.get(1, n)?, n)?),
            event_type: parse_event(f.get(2, n)?, n)?,
            collection_type: ctype,
            priority: Priority::new(parse_narrow(f.get(4, n)?, "priority", n)?),
            scheduler: sched,
            vertical_scaling: vs,
            parent_id: optional(f.get(7, n)?, |s| parse_u64(s, n))?.map(CollectionId),
            alloc_collection_id: optional(f.get(8, n)?, |s| parse_u64(s, n))?.map(CollectionId),
            user_id: UserId(parse_narrow(f.get(9, n)?, "user_id", n)?),
        })
    }
}

/// Writes the collection-events table.
pub fn write_collection_events(w: &mut impl Write, events: &[CollectionEvent]) -> io::Result<()> {
    write_table::<CollectionCodec>(w, events, &mut |_| {})
}

/// Parses one data row of the collection-events table.
pub fn parse_collection_line(line: &str, n: usize) -> Result<CollectionEvent, CsvError> {
    CollectionCodec.parse(line, n)
}

/// Reads the collection-events table.
pub fn read_collection_events(r: impl BufRead) -> Result<Vec<CollectionEvent>, CsvError> {
    read_table::<CollectionCodec>(r)
}

/// The instance-events table; an instance's request repeats from event to
/// event and the tasks of a job share one.
#[derive(Default)]
struct InstanceCodec {
    cpu: FloatMemo,
    mem: FloatMemo,
}

impl Codec for InstanceCodec {
    type Row = InstanceEvent;
    const FILE: &'static str = FILE_INSTANCE;

    fn header(out: &mut Vec<u8>) {
        out.extend_from_slice(
            b"time,collection_id,instance_index,event_type,machine_id,cpu_request,mem_request,priority,alloc_collection_id,alloc_instance_index",
        );
    }

    fn render(&mut self, out: &mut Vec<u8>, e: &InstanceEvent) {
        push_int(out, e.time.as_micros());
        push_int(out, e.instance_id.collection.0);
        push_int(out, e.instance_id.index);
        push_str(out, e.event_type.name());
        push_opt_int(out, e.machine_id.map(|m| m.0));
        self.cpu.push(out, e.request.cpu);
        self.mem.push(out, e.request.mem);
        push_int(out, e.priority.raw());
        push_opt_int(out, e.alloc_instance.map(|a| a.collection.0));
        push_opt_int(out, e.alloc_instance.map(|a| a.index));
    }

    fn parse(&mut self, line: &str, n: usize) -> Result<InstanceEvent, CsvError> {
        let f = Fields::<10>::split(line);
        let alloc_col = optional(f.get(8, n)?, |s| parse_u64(s, n))?;
        let alloc_idx = optional(f.get(9, n)?, |s| parse_narrow(s, "alloc_instance_index", n))?;
        let alloc_instance = match (alloc_col, alloc_idx) {
            (Some(c), Some(x)) => Some(InstanceId::new(CollectionId(c), x)),
            (None, None) => None,
            _ => return Err(parse_err(n, "half-specified alloc instance")),
        };
        Ok(InstanceEvent {
            time: Micros(parse_u64(f.get(0, n)?, n)?),
            instance_id: InstanceId::new(
                CollectionId(parse_u64(f.get(1, n)?, n)?),
                parse_narrow(f.get(2, n)?, "instance_index", n)?,
            ),
            event_type: parse_event(f.get(3, n)?, n)?,
            machine_id: optional(f.get(4, n)?, |s| parse_narrow(s, "machine_id", n))?
                .map(MachineId),
            request: Resources::new(
                self.cpu.parse(f.get(5, n)?, n)?,
                self.mem.parse(f.get(6, n)?, n)?,
            ),
            priority: Priority::new(parse_narrow(f.get(7, n)?, "priority", n)?),
            alloc_instance,
        })
    }
}

/// Writes the instance-events table.
pub fn write_instance_events(w: &mut impl Write, events: &[InstanceEvent]) -> io::Result<()> {
    write_table::<InstanceCodec>(w, events, &mut |_| {})
}

/// Parses one data row of the instance-events table.
pub fn parse_instance_line(line: &str, n: usize) -> Result<InstanceEvent, CsvError> {
    InstanceCodec::default().parse(line, n)
}

/// Reads the instance-events table.
pub fn read_instance_events(r: impl BufRead) -> Result<Vec<InstanceEvent>, CsvError> {
    read_table::<InstanceCodec>(r)
}

/// The usage table (histogram inlined as 21 extra columns). Measured
/// usage does not repeat from row to row, so only the limit is memoized.
#[derive(Default)]
struct UsageCodec {
    limit_cpu: FloatMemo,
    limit_mem: FloatMemo,
}

impl Codec for UsageCodec {
    type Row = UsageRecord;
    const FILE: &'static str = FILE_USAGE;

    fn header(out: &mut Vec<u8>) {
        out.extend_from_slice(
            b"start,end,collection_id,instance_index,machine_id,avg_cpu,avg_mem,max_cpu,max_mem,limit_cpu,limit_mem,",
        );
        for p in crate::usage::CPU_HISTOGRAM_PERCENTILES {
            out.push(b'p');
            push_float(out, p);
        }
        out.pop();
    }

    fn render(&mut self, out: &mut Vec<u8>, u: &UsageRecord) {
        push_int(out, u.start.as_micros());
        push_int(out, u.end.as_micros());
        push_int(out, u.instance_id.collection.0);
        push_int(out, u.instance_id.index);
        push_int(out, u.machine_id.0);
        push_float(out, u.avg_usage.cpu);
        push_float(out, u.avg_usage.mem);
        push_float(out, u.max_usage.cpu);
        push_float(out, u.max_usage.mem);
        self.limit_cpu.push(out, u.limit.cpu);
        self.limit_mem.push(out, u.limit.mem);
        for v in u.cpu_histogram.0 {
            push_float(out, v);
        }
    }

    fn parse(&mut self, line: &str, n: usize) -> Result<UsageRecord, CsvError> {
        let f = Fields::<32>::split(line);
        let mut hist = [0.0f32; 21];
        for (k, h) in hist.iter_mut().enumerate() {
            *h = parse_f64(f.get(11 + k, n)?, n)? as f32;
        }
        Ok(UsageRecord {
            start: Micros(parse_u64(f.get(0, n)?, n)?),
            end: Micros(parse_u64(f.get(1, n)?, n)?),
            instance_id: InstanceId::new(
                CollectionId(parse_u64(f.get(2, n)?, n)?),
                parse_narrow(f.get(3, n)?, "instance_index", n)?,
            ),
            machine_id: MachineId(parse_narrow(f.get(4, n)?, "machine_id", n)?),
            avg_usage: Resources::new(parse_f64(f.get(5, n)?, n)?, parse_f64(f.get(6, n)?, n)?),
            max_usage: Resources::new(parse_f64(f.get(7, n)?, n)?, parse_f64(f.get(8, n)?, n)?),
            limit: Resources::new(
                self.limit_cpu.parse(f.get(9, n)?, n)?,
                self.limit_mem.parse(f.get(10, n)?, n)?,
            ),
            cpu_histogram: CpuHistogram(hist),
        })
    }
}

/// Writes the usage table (histogram inlined as 21 extra columns).
pub fn write_usage(w: &mut impl Write, records: &[UsageRecord]) -> io::Result<()> {
    write_table::<UsageCodec>(w, records, &mut |_| {})
}

/// Parses one data row of the usage table.
pub fn parse_usage_line(line: &str, n: usize) -> Result<UsageRecord, CsvError> {
    UsageCodec::default().parse(line, n)
}

/// Reads the usage table.
pub fn read_usage(r: impl BufRead) -> Result<Vec<UsageRecord>, CsvError> {
    read_table::<UsageCodec>(r)
}

/// Writes every table of a trace into a directory, one file per table.
pub fn write_trace_dir(trace: &Trace, dir: &std::path::Path) -> io::Result<()> {
    write_trace_dir_with(trace, dir, &mut |_, _| {})
}

/// [`write_trace_dir`] with a hook on every data row: `before_row(file,
/// line)` runs before the row is rendered and may append a prefix to its
/// line. This is the seam `borg-sim`'s lossy writer garbles lines through,
/// so the file list and the metadata row exist once.
pub fn write_trace_dir_with(
    trace: &Trace,
    dir: &std::path::Path,
    before_row: &mut dyn FnMut(&'static str, &mut Vec<u8>),
) -> io::Result<()> {
    std::fs::create_dir_all(dir)?;
    write_tables(
        trace,
        |file| std::fs::File::create(dir.join(file)),
        before_row,
    )
}

/// The five files of a trace directory, each created through `create`,
/// written, and flushed before the next: a sink that buffers must not be
/// dropped with bytes (and their write error) still inside.
fn write_tables<W: Write>(
    trace: &Trace,
    mut create: impl FnMut(&'static str) -> io::Result<W>,
    before_row: &mut dyn FnMut(&'static str, &mut Vec<u8>),
) -> io::Result<()> {
    fn table<C: Codec, W: Write>(
        mut w: W,
        rows: &[C::Row],
        before_row: &mut dyn FnMut(&'static str, &mut Vec<u8>),
    ) -> io::Result<()> {
        write_table::<C>(&mut w, rows, &mut |line| before_row(C::FILE, line))?;
        w.flush()
    }
    table::<MachineCodec, W>(create(FILE_MACHINE)?, &trace.machine_events, before_row)?;
    table::<CollectionCodec, W>(
        create(FILE_COLLECTION)?,
        &trace.collection_events,
        before_row,
    )?;
    table::<InstanceCodec, W>(create(FILE_INSTANCE)?, &trace.instance_events, before_row)?;
    table::<UsageCodec, W>(create(FILE_USAGE)?, &trace.usage, before_row)?;
    let mut w = create(FILE_METADATA)?;
    w.write_all(
        format!(
            "cell_name,schema,horizon\n{},{},{}\n",
            trace.cell_name,
            trace.schema.map_or("unknown", |s| s.name()),
            trace.horizon.as_micros()
        )
        .as_bytes(),
    )?;
    w.flush()
}

/// Reads a trace previously written by [`write_trace_dir`]. Errors are
/// wrapped as [`CsvError::Table`] naming the offending file.
pub fn read_trace_dir(dir: &std::path::Path) -> Result<Trace, CsvError> {
    fn load<C: Codec>(dir: &std::path::Path) -> Result<Vec<C::Row>, CsvError> {
        std::fs::File::open(dir.join(C::FILE))
            .map_err(CsvError::Io)
            .and_then(|f| read_table::<C>(std::io::BufReader::with_capacity(READ_CHUNK, f)))
            .map_err(|e| in_file(C::FILE, e))
    }
    let (cell_name, schema, horizon) = std::fs::read_to_string(dir.join(FILE_METADATA))
        .map_err(|e| in_file(FILE_METADATA, CsvError::Io(e)))
        .and_then(|meta| parse_metadata(&meta).map_err(|e| in_file(FILE_METADATA, e)))?;
    Ok(Trace {
        cell_name,
        schema,
        horizon,
        machine_events: load::<MachineCodec>(dir)?,
        collection_events: load::<CollectionCodec>(dir)?,
        instance_events: load::<InstanceCodec>(dir)?,
        usage: load::<UsageCodec>(dir)?,
    })
}

/// The five file names of a trace directory.
pub const FILE_MACHINE: &str = "machine_events.csv";
/// Collection-events table file name.
pub const FILE_COLLECTION: &str = "collection_events.csv";
/// Instance-events table file name.
pub const FILE_INSTANCE: &str = "instance_events.csv";
/// Usage table file name.
pub const FILE_USAGE: &str = "instance_usage.csv";
/// Metadata file name.
pub const FILE_METADATA: &str = "metadata.csv";

type Metadata = (String, Option<SchemaVersion>, Micros);

fn parse_metadata(meta: &str) -> Result<Metadata, CsvError> {
    let line = meta
        .lines()
        .nth(1)
        .ok_or_else(|| parse_err(2, "missing metadata row"))?;
    let f = Fields::<3>::split(line);
    let cell_name = f.get(0, 2)?.to_string();
    let schema = match f.get(1, 2)? {
        "v2-2011" => Some(SchemaVersion::V2Trace2011),
        "v3-2019" => Some(SchemaVersion::V3Trace2019),
        _ => None,
    };
    let horizon = Micros(parse_u64(f.get(2, 2)?, 2)?);
    Ok((cell_name, schema, horizon))
}

/// Cap on per-line diagnostic details retained in a [`Quarantine`];
/// per-table counts keep accumulating past it.
pub const QUARANTINE_DETAIL_CAP: usize = 256;

/// One rejected CSV line, with enough context to find it again.
#[derive(Debug, Clone)]
pub struct QuarantinedLine {
    /// Table file the line came from.
    pub file: &'static str,
    /// 1-based line number within that file.
    pub line: usize,
    /// What was wrong.
    pub message: String,
}

/// Everything the lenient reader refused to ingest: per-line parse
/// failures (detail capped at [`QUARANTINE_DETAIL_CAP`], counts exact)
/// and whole-table failures (missing or unreadable files).
#[derive(Debug, Clone, Default)]
pub struct Quarantine {
    /// Detailed per-line rejections (first [`QUARANTINE_DETAIL_CAP`]).
    pub lines: Vec<QuarantinedLine>,
    /// Exact rejected-line count per table file.
    pub line_counts: BTreeMap<&'static str, u64>,
    /// Whole-table failures: `(file, error)`.
    pub table_errors: Vec<(String, String)>,
}

impl Quarantine {
    /// Total rejected lines across all tables.
    pub fn total_lines(&self) -> u64 {
        self.line_counts.values().sum()
    }

    /// Rejected-line count for one table file.
    pub fn count_for(&self, file: &str) -> u64 {
        self.line_counts.get(file).copied().unwrap_or(0)
    }

    /// True when nothing was quarantined.
    pub fn is_clean(&self) -> bool {
        self.line_counts.is_empty() && self.table_errors.is_empty()
    }

    /// One-line human summary, e.g. for report annotations.
    pub fn summary(&self) -> String {
        if self.is_clean() {
            return "clean ingest: no lines quarantined".to_string();
        }
        let per_table: Vec<String> = self
            .line_counts
            .iter()
            .map(|(f, c)| format!("{f}: {c}"))
            .collect();
        let mut s = format!(
            "quarantined {} line(s) [{}]",
            self.total_lines(),
            per_table.join(", ")
        );
        if !self.table_errors.is_empty() {
            let files: Vec<&str> = self.table_errors.iter().map(|(f, _)| f.as_str()).collect();
            s.push_str(&format!(
                "; {} table error(s) [{}]",
                self.table_errors.len(),
                files.join(", ")
            ));
        }
        s
    }

    fn reject_line(&mut self, file: &'static str, line: usize, message: String) {
        if self.lines.len() < QUARANTINE_DETAIL_CAP {
            self.lines.push(QuarantinedLine {
                file,
                line,
                message,
            });
        }
        *self.line_counts.entry(file).or_insert(0) += 1;
    }

    fn table_error(&mut self, file: &str, message: String) {
        self.table_errors.push((file.to_string(), message));
    }
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
                q.table_error(FILE_METADATA, e.to_string());
                ("unknown".to_string(), None, Micros::ZERO)
            }
        },
        Err(e) => {
            q.table_error(FILE_METADATA, format!("io error: {e}"));
            ("unknown".to_string(), None, Micros::ZERO)
        }
    };
    fn load<C: Codec>(dir: &std::path::Path, q: &mut Quarantine) -> Vec<C::Row> {
        match std::fs::File::open(dir.join(C::FILE)) {
            Ok(f) => read_table_lenient::<C>(std::io::BufReader::with_capacity(READ_CHUNK, f), q),
            Err(e) => {
                q.table_error(C::FILE, format!("io error: {e}"));
                Vec::new()
            }
        }
    }
    let mut trace = Trace {
        cell_name,
        schema,
        horizon,
        machine_events: load::<MachineCodec>(dir, &mut q),
        collection_events: load::<CollectionCodec>(dir, &mut q),
        instance_events: load::<InstanceCodec>(dir, &mut q),
        usage: load::<UsageCodec>(dir, &mut q),
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

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> Trace {
        let mut t = Trace::new("x", SchemaVersion::V3Trace2019, Micros::from_days(2));
        t.machine_events.push(MachineEvent::add(
            Micros::ZERO,
            MachineId(3),
            Resources::new(0.75, 0.5),
            Platform(2),
        ));
        t.collection_events.push(CollectionEvent {
            time: Micros::from_secs(5),
            collection_id: CollectionId(11),
            event_type: EventType::Submit,
            collection_type: CollectionType::Job,
            priority: Priority::new(117),
            scheduler: SchedulerKind::Batch,
            vertical_scaling: VerticalScalingMode::Constrained,
            parent_id: Some(CollectionId(4)),
            alloc_collection_id: None,
            user_id: UserId(9),
        });
        t.instance_events.push(InstanceEvent {
            time: Micros::from_secs(6),
            instance_id: InstanceId::new(CollectionId(11), 2),
            event_type: EventType::Schedule,
            machine_id: Some(MachineId(3)),
            request: Resources::new(0.25, 0.125),
            priority: Priority::new(117),
            alloc_instance: Some(InstanceId::new(CollectionId(4), 0)),
        });
        t.usage.push(UsageRecord {
            start: Micros::from_minutes(5),
            end: Micros::from_minutes(10),
            instance_id: InstanceId::new(CollectionId(11), 2),
            machine_id: MachineId(3),
            avg_usage: Resources::new(0.1, 0.05),
            max_usage: Resources::new(0.2, 0.06),
            limit: Resources::new(0.25, 0.125),
            cpu_histogram: CpuHistogram::from_samples(&[0.05, 0.1, 0.15, 0.2]),
        });
        t
    }

    fn round_trip<T, W, R>(items: &[T], write: W, read: R) -> Vec<T>
    where
        W: Fn(&mut Vec<u8>, &[T]) -> io::Result<()>,
        R: Fn(&[u8]) -> Result<Vec<T>, CsvError>,
    {
        let mut buf = Vec::new();
        write(&mut buf, items).unwrap();
        read(&buf).unwrap()
    }

    #[test]
    fn machine_events_round_trip() {
        let t = sample_trace();
        let back = round_trip(&t.machine_events, write_machine_events, |b| {
            read_machine_events(b)
        });
        assert_eq!(back, t.machine_events);
    }

    #[test]
    fn collection_events_round_trip() {
        let t = sample_trace();
        let back = round_trip(&t.collection_events, write_collection_events, |b| {
            read_collection_events(b)
        });
        assert_eq!(back, t.collection_events);
    }

    #[test]
    fn instance_events_round_trip() {
        let t = sample_trace();
        let back = round_trip(&t.instance_events, write_instance_events, |b| {
            read_instance_events(b)
        });
        assert_eq!(back, t.instance_events);
    }

    #[test]
    fn usage_round_trip() {
        let t = sample_trace();
        let back = round_trip(&t.usage, write_usage, |b| read_usage(b));
        assert_eq!(back.len(), 1);
        let (got, want) = (&back[0], &t.usage[0]);
        assert_eq!(
            (got.start, got.end, got.instance_id, got.machine_id),
            (want.start, want.end, want.instance_id, want.machine_id)
        );
        for (g, w) in [
            (got.avg_usage, want.avg_usage),
            (got.max_usage, want.max_usage),
            (got.limit, want.limit),
        ] {
            assert_eq!(g.cpu.to_bits(), w.cpu.to_bits());
            assert_eq!(g.mem.to_bits(), w.mem.to_bits());
        }
        for (k, (g, w)) in got
            .cpu_histogram
            .0
            .iter()
            .zip(&want.cpu_histogram.0)
            .enumerate()
        {
            assert_eq!(g.to_bits(), w.to_bits(), "histogram bucket {k}");
        }
    }

    #[test]
    fn repeated_and_distinct_floats_render_and_parse_alike() {
        // Adjacent rows that repeat a request (memo hit) and rows that do
        // not, signed zero and a long shortest-round-trip value included.
        let base = sample_trace().instance_events[0];
        let cpus = [
            0.25,
            0.25,
            0.1 + 0.2,
            0.1 + 0.2,
            -0.0,
            0.0,
            0.0,
            1e300,
            5e-324,
            0.25,
        ];
        let events: Vec<InstanceEvent> = cpus
            .iter()
            .map(|&cpu| InstanceEvent {
                request: Resources::new(cpu, 1.0 - cpu),
                ..base
            })
            .collect();
        let mut buf = Vec::new();
        write_instance_events(&mut buf, &events).unwrap();
        let text = String::from_utf8(buf.clone()).unwrap();
        for (line, &cpu) in text.lines().skip(1).zip(&cpus) {
            let field = line.split(',').nth(5).unwrap();
            assert_eq!(field, cpu.to_string(), "the field is what Display writes");
        }
        let back = read_instance_events(&buf[..]).unwrap();
        for (b, e) in back.iter().zip(&events) {
            assert_eq!(b.request.cpu.to_bits(), e.request.cpu.to_bits());
            assert_eq!(b.request.mem.to_bits(), e.request.mem.to_bits());
        }
    }

    #[test]
    fn line_rules_header_blank_lines_crlf_and_numbering() {
        // The header is skipped whatever it says, blank and CRLF-only
        // lines are skipped but counted, CRLF ends a line, and a final
        // line needs no newline.
        let text = b"not,a,header\r\n\r\n5,3,add,0.5,0.25,1\r\n\n7,4,remove,0,0,2";
        let rows = read_machine_events(&text[..]).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].machine_id, MachineId(3));
        assert_eq!(rows[1].time, Micros(7));
        let bad = b"h\n\n\n1,2,add,x,0,0\n";
        match read_machine_events(&bad[..]).unwrap_err() {
            CsvError::Parse { line, message } => {
                assert_eq!(line, 4);
                assert_eq!(message, "bad float \"x\"");
            }
            other => panic!("unexpected error {other:?}"),
        }
        // A lone carriage return is data, not a line end.
        let cr = b"h\n1,2,add,0,0,0\r";
        assert!(read_machine_events(&cr[..]).is_err());
    }

    #[test]
    fn narrow_fields_out_of_range_are_parse_errors() {
        let ok = [
            (FILE_MACHINE, "1,4294967295,add,1,1,255"),
            (
                FILE_COLLECTION,
                "1,2,submit,job,65535,default,off,,,4294967295",
            ),
            (
                FILE_INSTANCE,
                "1,2,4294967295,submit,4294967295,1,1,65535,3,4294967295",
            ),
            (
                FILE_USAGE,
                "1,2,3,4294967295,4294967295,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0",
            ),
        ];
        let parse = |file: &str, line: &str| -> Result<(), String> {
            match file {
                FILE_MACHINE => parse_machine_line(line, 2).map(|_| ()),
                FILE_COLLECTION => parse_collection_line(line, 2).map(|_| ()),
                FILE_INSTANCE => parse_instance_line(line, 2).map(|_| ()),
                _ => parse_usage_line(line, 2).map(|_| ()),
            }
            .map_err(|e| e.to_string())
        };
        for (file, line) in ok {
            assert_eq!(parse(file, line), Ok(()), "{file}: largest values fit");
        }
        // (table, field index, value one past the column's range, name)
        let cases = [
            (0, 1, "4294967296", "machine_id"),
            (0, 5, "256", "platform"),
            (1, 4, "65736", "priority"),
            (1, 9, "4294967296", "user_id"),
            (2, 2, "4294967296", "instance_index"),
            (2, 4, "4294967296", "machine_id"),
            (2, 7, "65536", "priority"),
            (2, 9, "4294967296", "alloc_instance_index"),
            (3, 3, "4294967296", "instance_index"),
            (3, 4, "4294967296", "machine_id"),
        ];
        for (table, idx, value, name) in cases {
            let (file, line) = ok[table];
            let mut fields: Vec<&str> = line.split(',').collect();
            fields[idx] = value;
            let err = parse(file, &fields.join(",")).unwrap_err();
            assert_eq!(
                err,
                format!("line 2: {name} {value} out of range"),
                "{file}"
            );
        }
        // The lenient reader quarantines such a line; it used to ingest
        // machine 4294967296 as machine 0.
        let dir = std::env::temp_dir().join(format!("borg_csv_narrow_{}", std::process::id()));
        write_trace_dir(&sample_trace(), &dir).unwrap();
        let path = dir.join(FILE_MACHINE);
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("9,4294967296,add,1,1,0\n");
        std::fs::write(&path, text).unwrap();
        let (t, q) = read_trace_dir_lenient(&dir);
        assert_eq!(t.machine_events.len(), 1);
        assert_eq!(q.count_for(FILE_MACHINE), 1);
        assert!(q.lines[0]
            .message
            .contains("machine_id 4294967296 out of range"));
        assert!(read_trace_dir(&dir).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Accepts writes into a buffer and fails when flushed, like a
    /// buffered file on a full disk.
    struct FailsOnFlush(Vec<u8>);

    impl Write for FailsOnFlush {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Err(io::Error::other("no space left on device"))
        }
    }

    #[test]
    fn a_failed_flush_fails_the_directory_write() {
        let t = sample_trace();
        let mut created = Vec::new();
        let err = write_tables(
            &t,
            |file| {
                created.push(file);
                Ok(FailsOnFlush(Vec::new()))
            },
            &mut |_, _| {},
        )
        .unwrap_err();
        assert_eq!(err.to_string(), "no space left on device");
        assert_eq!(created, [FILE_MACHINE], "the first failure stops the write");
        // The same writer behind std's buffering: the rows sit in the
        // `BufWriter` until the flush, whose error must surface too.
        let err = write_tables(
            &t,
            |_| Ok(io::BufWriter::new(FailsOnFlush(Vec::new()))),
            &mut |_, _| {},
        )
        .unwrap_err();
        assert_eq!(err.to_string(), "no space left on device");
    }

    #[test]
    fn before_row_hook_prefixes_data_rows_only() {
        let dir = std::env::temp_dir().join(format!("borg_csv_hook_{}", std::process::id()));
        let mut seen = Vec::new();
        write_trace_dir_with(&sample_trace(), &dir, &mut |file, line| {
            seen.push(file);
            line.extend_from_slice(b"#");
        })
        .unwrap();
        assert_eq!(
            seen,
            [FILE_MACHINE, FILE_COLLECTION, FILE_INSTANCE, FILE_USAGE]
        );
        for file in seen {
            let text = std::fs::read_to_string(dir.join(file)).unwrap();
            let lines: Vec<&str> = text.lines().collect();
            assert_eq!(lines.len(), 2);
            assert!(!lines[0].starts_with('#') && lines[1].starts_with('#'));
        }
        let meta = std::fs::read_to_string(dir.join(FILE_METADATA)).unwrap();
        assert_eq!(meta, "cell_name,schema,horizon\nx,v3-2019,172800000000\n");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn directory_round_trip() {
        let t = sample_trace();
        let dir = std::env::temp_dir().join(format!("borg_csv_test_{}", std::process::id()));
        write_trace_dir(&t, &dir).unwrap();
        let back = read_trace_dir(&dir).unwrap();
        assert_eq!(back.cell_name, t.cell_name);
        assert_eq!(back.schema, t.schema);
        assert_eq!(back.horizon, t.horizon);
        assert_eq!(back.machine_events, t.machine_events);
        assert_eq!(back.collection_events, t.collection_events);
        assert_eq!(back.instance_events, t.instance_events);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn parse_errors_reported_with_line() {
        let bad = b"header\n1,2,notanevent,job,0,default,off,,,0\n";
        let err = read_collection_events(&bad[..]).unwrap_err();
        match err {
            CsvError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn half_specified_alloc_rejected() {
        let bad = b"header\n1,2,submit,,0.1,0.1,200,5,\n";
        assert!(read_instance_events(&bad[..]).is_err());
    }

    #[test]
    fn directory_errors_name_the_table_file() {
        let dir = std::env::temp_dir().join(format!("borg_csv_tbl_{}", std::process::id()));
        write_trace_dir(&sample_trace(), &dir).unwrap();
        // Damage one line of the instance table.
        let path = dir.join(FILE_INSTANCE);
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("x,oops\n");
        std::fs::write(&path, text).unwrap();
        let err = read_trace_dir(&dir).unwrap_err();
        match &err {
            CsvError::Table { file, source } => {
                assert_eq!(file, FILE_INSTANCE);
                assert!(matches!(**source, CsvError::Parse { .. }));
            }
            other => panic!("unexpected error {other:?}"),
        }
        assert!(err.to_string().contains(FILE_INSTANCE));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn lenient_read_quarantines_bad_lines() {
        let dir = std::env::temp_dir().join(format!("borg_csv_len_{}", std::process::id()));
        write_trace_dir(&sample_trace(), &dir).unwrap();
        let path = dir.join(FILE_INSTANCE);
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("garbage line\nx,2,submit,,0.1,0.1,200,5,,\n");
        std::fs::write(&path, text).unwrap();
        let (t, q) = read_trace_dir_lenient(&dir);
        assert_eq!(t.instance_events.len(), 1, "good line survives");
        assert_eq!(q.count_for(FILE_INSTANCE), 2);
        assert_eq!(q.total_lines(), 2);
        assert!(!q.is_clean());
        assert!(q.summary().contains(FILE_INSTANCE));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn lenient_read_survives_missing_files() {
        let dir = std::env::temp_dir().join(format!("borg_csv_missing_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // Only the instance table exists; no metadata at all.
        let mut buf = Vec::new();
        write_instance_events(&mut buf, &sample_trace().instance_events).unwrap();
        std::fs::write(dir.join(FILE_INSTANCE), &buf).unwrap();
        let (t, q) = read_trace_dir_lenient(&dir);
        assert_eq!(t.cell_name, "unknown");
        assert_eq!(t.instance_events.len(), 1);
        assert!(t.machine_events.is_empty());
        // Horizon inferred from the surviving data.
        assert_eq!(t.horizon, Micros::from_secs(6));
        assert_eq!(q.table_errors.len(), 4, "metadata + three tables");
        std::fs::remove_dir_all(&dir).ok();
    }
}
