//! Plain-text (CSV) round-trip of trace tables.
//!
//! The 2011 trace shipped as CSV files; this module writes and reads the
//! same style for every table in the model so traces can be persisted,
//! inspected with standard tools, and diffed. Fields never contain commas,
//! so no quoting is needed.
//!
//! Each table has one `Codec`: how a row is rendered and how a line is
//! read. There is one reader, [`read_trace_dir_lenient`]: each table goes
//! through `read_table_lenient`, where `Lines` hands out every line as a
//! slice of its read buffer, and the codec's `read` walks those bytes
//! once with a `Cursor`, every field in column order, then builds the row
//! checking the fields in the table's own order. That walk is the one
//! statement of what the reader accepts, of which bad field a line
//! reports, and of every message a quarantined line carries; the text of
//! a message is built only for a line that is quarantined. A directory
//! is read and written on two threads (`read_tables`, `write_tables`,
//! sharing `on_two_threads`): the instance table on one, the other three
//! tables on the other; the reader merges the tables' quarantines in file
//! order, so the result is the same as reading one file after another.
//! The file-format rules the codecs, `write_table` and `Lines` must keep
//! (shortest-round-trip floats, std's parse acceptance set, the
//! line-numbering rules) are listed in DESIGN.md §11.

use crate::collection::{
    CollectionEvent, CollectionId, CollectionType, SchedulerKind, UserId, VerticalScalingMode,
};
use crate::instance::{InstanceEvent, InstanceId};
use crate::machine::{MachineEvent, MachineEventType, MachineId, Platform};
use crate::on_two_threads;
use crate::priority::Priority;
use crate::resources::Resources;
use crate::state::EventType;
use crate::time::Micros;
use crate::trace::{SchemaVersion, Trace};
use crate::usage::{CpuHistogram, UsageRecord};
use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;
use std::io::{self, Read, Write};
use std::ops::Range;

/// Errors arising while parsing a CSV trace table.
#[derive(Debug)]
pub enum CsvError {
    /// A malformed line, with its 1-based line number and a description.
    Parse {
        /// 1-based line number.
        line: usize,
        /// What was wrong.
        message: String,
    },
}

impl fmt::Display for CsvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CsvError::Parse { line, message } => write!(f, "line {line}: {message}"),
        }
    }
}

impl std::error::Error for CsvError {}

fn parse_err(line: usize, message: impl Into<String>) -> CsvError {
    CsvError::Parse {
        line,
        message: message.into(),
    }
}

/// Why a line was refused. It says where the bad field lies, not what it
/// holds: the text is built only for a line that is quarantined
/// ([`Bad::message`]).
enum Bad {
    /// The line ends before this field.
    Missing(usize),
    /// `bad {what} {field:?}`: the field at this span is no integer, float
    /// or name of its column.
    Field(&'static str, Range<usize>),
    /// An integer too wide for its narrow column: a parse error naming the
    /// column, never a wrapped id.
    OutOfRange(&'static str, u64),
    /// One half of an instance's alloc pair is empty.
    HalfAlloc,
}

impl Bad {
    /// What is wrong with `line`, the line that was refused.
    fn message(&self, line: &str) -> String {
        match self {
            Bad::Missing(field) => format!("missing field {field}"),
            Bad::Field(what, span) => format!("bad {what} {:?}", &line[span.clone()]),
            Bad::OutOfRange(what, v) => format!("{what} {v} out of range"),
            Bad::HalfAlloc => "half-specified alloc instance".to_string(),
        }
    }
}

/// A line being read by [`Codec::read`], left to right and once: every
/// method reads the field at the cursor and steps over the comma that
/// ends it. A bad field is stepped over all the same, so the fields after
/// it are still read, and a field past the line's end is missing.
struct Cursor<'a> {
    line: &'a [u8],
    /// Where the next field starts; past `line.len()` once the field that
    /// ends the line was read.
    at: usize,
    /// The index of the next field.
    field: usize,
    /// `line` as text, once a float field has asked for it: checking the
    /// line once costs less than checking 27 fields of a usage row, and a
    /// line with no float to convert is never checked at all.
    text: Option<&'a str>,
}

impl<'a> Cursor<'a> {
    fn new(line: &'a [u8]) -> Self {
        Cursor {
            line,
            at: 0,
            field: 0,
            text: None,
        }
    }

    /// Whether the line ended with the last field read: `false` when it
    /// holds fields past the table's last column, which are not read.
    fn ended(&self) -> bool {
        self.at > self.line.len()
    }

    /// Where the field at the cursor starts.
    fn start(&mut self) -> Result<usize, Bad> {
        self.field += 1;
        if self.ended() {
            return Err(Bad::Missing(self.field - 1));
        }
        Ok(self.at)
    }

    /// Ends the field that starts at `from` at its comma (or the line's
    /// end) and steps over it; where in `line` the field lies.
    fn close(&mut self, from: usize) -> Range<usize> {
        let rest = &self.line[from..];
        let to = from + find_byte::<b','>(rest).unwrap_or(rest.len());
        self.at = to + 1;
        from..to
    }

    /// Steps over the field, whatever it holds; where in `line` it lies.
    fn span(&mut self) -> Result<Range<usize>, Bad> {
        let from = self.start()?;
        Ok(self.close(from))
    }

    /// An integer field, converted while looking for its comma when it is
    /// up to 19 decimal digits, as the writer renders one. Anything else
    /// — a sign, a blank, twenty digits — is `u64::from_str`'s to judge.
    fn int(&mut self) -> Result<u64, Bad> {
        let from = self.start()?;
        let mut v: u64 = 0;
        let mut to = from;
        for &b in &self.line[from..] {
            let d = b.wrapping_sub(b'0');
            if d > 9 {
                break;
            }
            // Wraps only past 19 digits, which are judged again below.
            v = v.wrapping_mul(10).wrapping_add(u64::from(d));
            to += 1;
        }
        if (1..=19).contains(&(to - from)) && matches!(self.line.get(to), None | Some(b',')) {
            self.at = to + 1;
            return Ok(v);
        }
        self.int_by_std(from)
    }

    /// The integer field that starts at `from`, by `u64::from_str`: out
    /// of line, so that `int`, on every integer field, stays small.
    #[cold]
    fn int_by_std(&mut self, from: usize) -> Result<u64, Bad> {
        let span = self.close(from);
        std::str::from_utf8(&self.line[span.clone()])
            .ok()
            .and_then(|s| s.parse().ok())
            .ok_or(Bad::Field("integer", span))
    }

    /// An integer field of a column narrower than `u64`, named `what`.
    fn narrow<T: TryFrom<u64>>(&mut self, what: &'static str) -> Result<T, Bad> {
        let v = self.int()?;
        T::try_from(v).map_err(|_| Bad::OutOfRange(what, v))
    }

    /// A field that may be empty: `None` then, else what `read` makes of it.
    fn optional<T>(
        &mut self,
        read: impl FnOnce(&mut Self) -> Result<T, Bad>,
    ) -> Result<Option<T>, Bad> {
        if self.at == self.line.len() || self.line.get(self.at) == Some(&b',') {
            self.field += 1;
            self.at += 1;
            return Ok(None);
        }
        read(self).map(Some)
    }

    /// A float field: whatever `T::from_str` accepts — `f64::from_str`
    /// for an `f64` column, `f32::from_str` (one grammar, each rounded
    /// once) for a histogram bucket.
    fn float<T: std::str::FromStr>(&mut self) -> Result<T, Bad> {
        let span = self.span()?;
        if self.text.is_none() {
            self.text = std::str::from_utf8(self.line).ok();
        }
        self.text
            .and_then(|text| text[span.clone()].parse().ok())
            .ok_or(Bad::Field("float", span))
    }

    /// A field holding the name of one of `values`; `what` names the
    /// column in the message.
    fn name<T: Copy>(
        &mut self,
        values: &[T],
        name: impl Fn(T) -> &'static str,
        what: &'static str,
    ) -> Result<T, Bad> {
        let span = self.span()?;
        let field = &self.line[span.clone()];
        values
            .iter()
            .copied()
            .find(|&v| name(v).as_bytes() == field)
            .ok_or(Bad::Field(what, span))
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

/// Slots in a [`FloatMemo`]'s render table: on the benchmark's cell 256
/// hit for 89% of `cpu_request`, 1024 for 91% (DESIGN.md §11).
const MEMO_SLOTS: usize = 256;
/// Text bytes a slot holds, which makes a slot 32 bytes: a sign, `0.`,
/// three leading zeros and an `f64`'s 17 digits at most.
const MEMO_TEXT: usize = 23;

/// One value a [`FloatMemo`] has rendered, as bits and as text.
#[derive(Clone, Copy)]
struct Rendered {
    bits: u64,
    /// 0 while the slot is empty: no float renders to nothing.
    len: u8,
    text: [u8; MEMO_TEXT],
}

/// What one float column remembers of the values that passed through it.
/// Floats are written as `Display` writes them (its shortest round-trip
/// digits *are* the file format) and read with `f64::from_str`; both cost
/// far more than a lookup, and a request or a limit takes few distinct
/// values that come back row after row. Rendering looks the bit pattern
/// up (`-0.0` and NaN payloads stay distinct) in a direct-mapped table
/// and converts only on a miss; reading remembers the previous field
/// alone, since a hit there has to compare the field's bytes. Either way
/// a hit returns precisely what the conversion would have.
struct FloatMemo {
    rendered: [Rendered; MEMO_SLOTS],
    bits: u64,
    /// Empty until the first field: no float parses from an empty field.
    text: Vec<u8>,
    /// Values `push` had to convert.
    #[cfg(test)]
    conversions: usize,
}

impl Default for FloatMemo {
    fn default() -> Self {
        let empty = Rendered {
            bits: 0,
            len: 0,
            text: [0; MEMO_TEXT],
        };
        FloatMemo {
            rendered: [empty; MEMO_SLOTS],
            bits: 0,
            text: Vec::new(),
            #[cfg(test)]
            conversions: 0,
        }
    }
}

impl FloatMemo {
    /// Where a bit pattern lives in `rendered`: the top bits of one
    /// multiplication, which depend on every bit of the pattern.
    fn slot(bits: u64) -> usize {
        (bits.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (64 - MEMO_SLOTS.trailing_zeros())) as usize
    }

    /// Appends `v` as `Display` writes it, then a comma.
    fn push(&mut self, out: &mut Vec<u8>, v: f64) {
        let bits = v.to_bits();
        let slot = &mut self.rendered[Self::slot(bits)];
        if slot.bits == bits && slot.len != 0 {
            out.extend_from_slice(&slot.text[..usize::from(slot.len)]);
        } else {
            #[cfg(test)]
            {
                self.conversions += 1;
            }
            let start = out.len();
            display(out, v);
            let text = &out[start..];
            // Text too long for a slot is converted every time.
            if let Some(kept) = slot.text.get_mut(..text.len()) {
                kept.copy_from_slice(text);
                slot.bits = bits;
                slot.len = text.len() as u8;
            }
        }
        out.push(b',');
    }

    /// The float field at `c`, as `f64::from_str` reads it.
    fn read(&mut self, c: &mut Cursor<'_>) -> Result<f64, Bad> {
        let span = c.span()?;
        let field = &c.line[span.clone()];
        if !field.is_empty() && field == self.text {
            return Ok(f64::from_bits(self.bits));
        }
        let v: f64 = std::str::from_utf8(field)
            .ok()
            .and_then(|s| s.parse().ok())
            .ok_or(Bad::Field("float", span))?;
        self.bits = v.to_bits();
        self.text.clear();
        self.text.extend_from_slice(field);
        Ok(v)
    }
}

/// Appends `v` as `Display` writes it, then a comma (the columns whose
/// values do not come back, or too few rows to matter).
fn push_float(out: &mut Vec<u8>, v: f64) {
    display(out, v);
    out.push(b',');
}

/// One table's file format: its header, how a row is written and how a
/// line is read. A codec value lives for one pass over one table and
/// holds that pass's float memos.
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
    /// Reads one data line through `c`, every column in order, then
    /// builds the row checking the fields in the table's own order, so a
    /// line with several bad fields always reports the same one. This is
    /// the definition of the table's accepted language and of every
    /// message; fields past the last column are left to the caller.
    fn read(&mut self, c: &mut Cursor<'_>) -> Result<Self::Row, Bad>;
}

/// Bytes rendered before a table writer hands them to its sink.
const WRITE_CHUNK: usize = 64 * 1024;
/// Bytes a table reader asks its source for at a time.
const READ_CHUNK: usize = 64 * 1024;

/// Renders a table into one reused buffer, flushed to `w` a chunk at a
/// time.
fn write_table<C: Codec>(w: &mut impl Write, rows: &[C::Row]) -> io::Result<()> {
    let mut codec = C::default();
    let mut buf = Vec::with_capacity(WRITE_CHUNK + 1024);
    C::header(&mut buf);
    buf.push(b'\n');
    for row in rows {
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

/// What ends a table early — an I/O failure, or bytes that are not UTF-8 —
/// with the number of the line it happened on.
type LineError = (usize, io::Error);

/// The data lines of a table, each handed out as a slice of one read
/// buffer: the header is skipped whatever it says, blank lines are
/// skipped, `\n` and `\r\n` both end a line, and lines are numbered from 1
/// counting every line. Bytes are copied once more only when a refill
/// moves the unfinished line at the buffer's end to its front.
struct Lines<R> {
    reader: R,
    /// `buf[start..end]` is read and not handed out; no newline in
    /// `buf[start..searched]`.
    buf: Vec<u8>,
    start: usize,
    searched: usize,
    end: usize,
    number: usize,
    /// Bytes read so far, and how many `reader` is expected to yield in
    /// all (0: no idea).
    read: u64,
    expected: u64,
}

impl<R: Read> Lines<R> {
    fn new(reader: R, expected: u64) -> Self {
        Lines {
            reader,
            buf: vec![0; READ_CHUNK],
            start: 0,
            searched: 0,
            end: 0,
            number: 0,
            read: 0,
            expected,
        }
    }

    /// About how many lines are not handed out yet, if they are as long
    /// as those that were: 0 until a buffer's worth of them was (the
    /// header and the first rows are no sample), and, from a reader that
    /// came without a length, those in the buffer.
    fn lines_ahead(&self) -> usize {
        let unread = (self.end - self.start) as u64;
        let taken = self.read - unread;
        if taken < READ_CHUNK as u64 {
            return 0;
        }
        let ahead = self.expected.saturating_sub(self.read) + unread;
        let mean = taken / (self.number as u64).max(1);
        usize::try_from(ahead / mean.max(1)).unwrap_or(usize::MAX)
    }

    /// The next data line and its number, `None` at the end. An I/O
    /// failure or a header that is not UTF-8 is an error carrying the
    /// number of the line it happened on.
    fn next_row(&mut self) -> Result<Option<(&[u8], usize)>, LineError> {
        loop {
            self.number += 1;
            let Some((from, to)) = self.next_line().map_err(|e| (self.number, e))? else {
                return Ok(None);
            };
            if self.number == 1 {
                if std::str::from_utf8(&self.buf[from..to]).is_err() {
                    return Err((1, invalid_utf8()));
                }
            } else if from < to {
                return Ok(Some((&self.buf[from..to], self.number)));
            }
        }
    }

    /// Where in `buf` the next line lies, its terminator left out; `None`
    /// when the input is used up.
    fn next_line(&mut self) -> io::Result<Option<(usize, usize)>> {
        loop {
            if let Some(at) = find_byte::<b'\n'>(&self.buf[self.searched..self.end]) {
                let newline = self.searched + at;
                let from = self.start;
                self.start = newline + 1;
                self.searched = newline + 1;
                let to = match self.buf[from..newline].last() {
                    Some(b'\r') => newline - 1,
                    _ => newline,
                };
                return Ok(Some((from, to)));
            }
            self.searched = self.end;
            if !self.refill()? {
                // The last line needs no newline.
                let rest = (self.start, self.end);
                self.start = self.end;
                return Ok((rest.0 < rest.1).then_some(rest));
            }
        }
    }

    /// Reads more bytes behind those not handed out; `false` at the end
    /// of the input. A full buffer first moves the unfinished line to its
    /// front, or doubles when that line is all it holds.
    fn refill(&mut self) -> io::Result<bool> {
        if self.end == self.buf.len() {
            if self.start == 0 {
                self.buf.resize(self.buf.len() * 2, 0);
            } else {
                self.buf.copy_within(self.start..self.end, 0);
                self.searched -= self.start;
                self.end -= self.start;
                self.start = 0;
            }
        }
        loop {
            match self.reader.read(&mut self.buf[self.end..]) {
                Ok(read) => {
                    self.end += read;
                    self.read += read as u64;
                    return Ok(read > 0);
                }
                // As `read_until` does.
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

/// The index of the first byte `B`, looked for eight bytes at a time.
fn find_byte<const B: u8>(bytes: &[u8]) -> Option<usize> {
    const ONES: u64 = 0x0101_0101_0101_0101;
    let (words, tail) = bytes.as_chunks::<8>();
    for (i, word) in words.iter().enumerate() {
        // Zero where the byte is `B`.
        let x = u64::from_le_bytes(*word) ^ (ONES * B as u64);
        // The high bit of every zero byte of `x` and, through the
        // subtraction's borrow, of some bytes above the first of them
        // (`,-` reads as two commas): only the lowest bit set is exact.
        let zeros = x.wrapping_sub(ONES) & !x & (ONES << 7);
        if zeros != 0 {
            return Some(i * 8 + (zeros.trailing_zeros() / 8) as usize);
        }
    }
    tail.iter()
        .position(|&b| b == B)
        .map(|at| words.len() * 8 + at)
}

/// The error `BufRead::lines` reports for a line that is not UTF-8.
fn invalid_utf8() -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        "stream did not contain valid UTF-8",
    )
}

/// Reads one table, quarantining instead of aborting: a line `read`
/// refuses is rejected with its message, and an I/O failure or a line
/// that is not UTF-8 ends the table with a table error, keeping what was
/// read so far. `bytes` is how many bytes `r` is expected to yield (0: no
/// idea).
fn read_table_lenient<C: Codec>(r: impl Read, bytes: u64, q: &mut Quarantine) -> Vec<C::Row> {
    let mut codec = C::default();
    let mut lines = Lines::new(r, bytes);
    let mut out = Vec::new();
    let (n, e) = loop {
        let (line, n) = match lines.next_row() {
            Ok(Some(line)) => line,
            Ok(None) => return out,
            Err(e) => break e,
        };
        let mut c = Cursor::new(line);
        let row = match codec.read(&mut c) {
            Ok(row) if c.ended() => row,
            // Only a line with an error or fields past the last column
            // can hold bytes that no field read as text.
            read => {
                let Ok(text) = std::str::from_utf8(line) else {
                    break (n, invalid_utf8());
                };
                match read {
                    Ok(row) => row,
                    Err(bad) => {
                        q.reject_line(C::FILE, n, parse_err(n, bad.message(text)).to_string());
                        continue;
                    }
                }
            }
        };
        // When full, grow by the number of lines still ahead: the
        // seventeen doublings on the way to 374k instance rows touch
        // twice the memory. Only a hint: refused, `push` grows the
        // vector as ever.
        if out.len() == out.capacity() {
            let _ = out.try_reserve(lines.lines_ahead());
        }
        out.push(row);
    };
    q.table_error(C::FILE, format!("io error near line {n}: {e}"));
    out
}

fn machine_event_name(ty: MachineEventType) -> &'static str {
    match ty {
        MachineEventType::Add => "add",
        MachineEventType::Remove => "remove",
        MachineEventType::Update => "update",
    }
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
        push_str(out, machine_event_name(e.event_type));
        push_float(out, e.capacity.cpu);
        push_float(out, e.capacity.mem);
        push_int(out, e.platform.0);
    }

    fn read(&mut self, c: &mut Cursor<'_>) -> Result<MachineEvent, Bad> {
        let (time, machine_id) = (c.int(), c.narrow("machine_id"));
        let event_type = c.name(
            &[
                MachineEventType::Add,
                MachineEventType::Remove,
                MachineEventType::Update,
            ],
            machine_event_name,
            "machine event",
        );
        let (cpu, mem, platform) = (c.float(), c.float(), c.narrow("platform"));
        let event_type = event_type?;
        Ok(MachineEvent {
            time: Micros(time?),
            machine_id: MachineId(machine_id?),
            event_type,
            capacity: Resources::new(cpu?, mem?),
            platform: Platform(platform?),
        })
    }
}

/// Writes the machine-events table.
pub fn write_machine_events(w: &mut impl Write, events: &[MachineEvent]) -> io::Result<()> {
    write_table::<MachineCodec>(w, events)
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

    fn read(&mut self, c: &mut Cursor<'_>) -> Result<CollectionEvent, Bad> {
        let (time, collection_id) = (c.int(), c.int());
        let event_type = c.name(&EventType::ALL, EventType::name, "event");
        let collection_type = c.name(
            &[CollectionType::Job, CollectionType::AllocSet],
            CollectionType::name,
            "collection type",
        );
        let priority = c.narrow("priority");
        let scheduler = c.name(
            &[SchedulerKind::Default, SchedulerKind::Batch],
            scheduler_name,
            "scheduler",
        );
        let vertical_scaling = c.name(
            &[
                VerticalScalingMode::Off,
                VerticalScalingMode::Constrained,
                VerticalScalingMode::Full,
            ],
            VerticalScalingMode::name,
            "scaling mode",
        );
        let parent_id = c.optional(Cursor::int);
        let alloc_collection_id = c.optional(Cursor::int);
        let user_id = c.narrow("user_id");
        let (collection_type, scheduler, vertical_scaling) =
            (collection_type?, scheduler?, vertical_scaling?);
        Ok(CollectionEvent {
            time: Micros(time?),
            collection_id: CollectionId(collection_id?),
            event_type: event_type?,
            collection_type,
            priority: Priority::new(priority?),
            scheduler,
            vertical_scaling,
            parent_id: parent_id?.map(CollectionId),
            alloc_collection_id: alloc_collection_id?.map(CollectionId),
            user_id: UserId(user_id?),
        })
    }
}

/// Writes the collection-events table.
pub fn write_collection_events(w: &mut impl Write, events: &[CollectionEvent]) -> io::Result<()> {
    write_table::<CollectionCodec>(w, events)
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

    fn read(&mut self, c: &mut Cursor<'_>) -> Result<InstanceEvent, Bad> {
        let (time, collection, index) = (c.int(), c.int(), c.narrow("instance_index"));
        let event_type = c.name(&EventType::ALL, EventType::name, "event");
        let machine_id = c.optional(|c| c.narrow("machine_id"));
        let (cpu, mem) = (self.cpu.read(c), self.mem.read(c));
        let priority = c.narrow("priority");
        let alloc_instance = match (
            c.optional(Cursor::int)?,
            c.optional(|c| c.narrow("alloc_instance_index"))?,
        ) {
            (Some(collection), Some(index)) => {
                Some(InstanceId::new(CollectionId(collection), index))
            }
            (None, None) => None,
            _ => return Err(Bad::HalfAlloc),
        };
        Ok(InstanceEvent {
            time: Micros(time?),
            instance_id: InstanceId::new(CollectionId(collection?), index?),
            event_type: event_type?,
            machine_id: machine_id?.map(MachineId),
            request: Resources::new(cpu?, mem?),
            priority: Priority::new(priority?),
            alloc_instance,
        })
    }
}

/// Writes the instance-events table.
pub fn write_instance_events(w: &mut impl Write, events: &[InstanceEvent]) -> io::Result<()> {
    write_table::<InstanceCodec>(w, events)
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
            crate::f32_display::push(out, v);
            out.push(b',');
        }
    }

    fn read(&mut self, c: &mut Cursor<'_>) -> Result<UsageRecord, Bad> {
        let (start, end) = (c.int(), c.int());
        let (collection, index) = (c.int(), c.narrow("instance_index"));
        let machine_id = c.narrow("machine_id");
        let (avg_cpu, avg_mem) = (c.float(), c.float());
        let (max_cpu, max_mem) = (c.float(), c.float());
        let (limit_cpu, limit_mem) = (self.limit_cpu.read(c), self.limit_mem.read(c));
        let mut cpu_histogram = CpuHistogram([0.0; 21]);
        for bucket in &mut cpu_histogram.0 {
            *bucket = c.float()?;
        }
        Ok(UsageRecord {
            start: Micros(start?),
            end: Micros(end?),
            instance_id: InstanceId::new(CollectionId(collection?), index?),
            machine_id: MachineId(machine_id?),
            avg_usage: Resources::new(avg_cpu?, avg_mem?),
            max_usage: Resources::new(max_cpu?, max_mem?),
            limit: Resources::new(limit_cpu?, limit_mem?),
            cpu_histogram,
        })
    }
}

/// Writes the usage table (histogram inlined as 21 extra columns).
pub fn write_usage(w: &mut impl Write, records: &[UsageRecord]) -> io::Result<()> {
    write_table::<UsageCodec>(w, records)
}

/// Writes every table of a trace into a directory, one file per table.
pub fn write_trace_dir(trace: &Trace, dir: &std::path::Path) -> io::Result<()> {
    std::fs::create_dir_all(dir)?;
    write_tables(trace, |file| std::fs::File::create(dir.join(file)))
}

/// Refuses a cell name the metadata row cannot hold. Fields are not
/// quoted: a comma or a line break would shift the row, and no reader
/// would take the directory back.
pub fn check_cell_name(name: &str) -> io::Result<()> {
    if name.contains([',', '\n', '\r']) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "cell name {name:?} holds a comma or a line break, which {FILE_METADATA} cannot"
            ),
        ));
    }
    Ok(())
}

/// The five files of a trace directory, each created through `create`,
/// written, and flushed: a sink that buffers must not be dropped with
/// bytes (and their write error) still inside. The instance table is
/// written on a scoped thread while this one writes the machine,
/// collection and usage tables (the two sides take about as long);
/// `metadata.csv` is created only once both have succeeded. When both
/// sides fail, this thread's error is returned; a panic on the other is
/// raised again here.
fn write_tables<W: Write>(
    trace: &Trace,
    create: impl Fn(&'static str) -> io::Result<W> + Sync,
) -> io::Result<()> {
    fn table<C: Codec, W: Write>(
        create: &impl Fn(&'static str) -> io::Result<W>,
        rows: &[C::Row],
    ) -> io::Result<()> {
        let mut w = create(C::FILE)?;
        write_table::<C>(&mut w, rows)?;
        w.flush()
    }
    check_cell_name(&trace.cell_name)?;
    let create = &create;
    let (instance, mine) = on_two_threads(
        || table::<InstanceCodec, W>(create, &trace.instance_events),
        || {
            table::<MachineCodec, W>(create, &trace.machine_events)
                .and_then(|()| table::<CollectionCodec, W>(create, &trace.collection_events))
                .and_then(|()| table::<UsageCodec, W>(create, &trace.usage))
        },
    );
    mine.and(instance)?;
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

/// The length of an open table file, 0 when the system will not say.
fn file_len(f: &std::fs::File) -> u64 {
    f.metadata().map_or(0, |m| m.len())
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
    let mut fields = line.split(',');
    let mut field = |i| {
        fields
            .next()
            .ok_or_else(|| parse_err(2, format!("missing field {i}")))
    };
    let cell_name = field(0)?.to_string();
    let schema = match field(1)? {
        "v2-2011" => Some(SchemaVersion::V2Trace2011),
        "v3-2019" => Some(SchemaVersion::V3Trace2019),
        _ => None,
    };
    let horizon = field(2)?;
    let horizon = horizon
        .parse()
        .map_err(|_| parse_err(2, format!("bad integer {horizon:?}")))?;
    Ok((cell_name, schema, Micros(horizon)))
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

    /// Appends a table's own quarantine, read after everything already
    /// here, and hands back the table's rows. Details stay capped at
    /// [`QUARANTINE_DETAIL_CAP`] across the two.
    fn merge<T>(&mut self, (rows, table): (Vec<T>, Quarantine)) -> Vec<T> {
        let room = QUARANTINE_DETAIL_CAP.saturating_sub(self.lines.len());
        self.lines.extend(table.lines.into_iter().take(room));
        for (file, n) in table.line_counts {
            *self.line_counts.entry(file).or_insert(0) += n;
        }
        self.table_errors.extend(table.table_errors);
        rows
    }
}

/// Reads a trace directory, quarantining damage instead of failing
/// fast: per-line parse errors are collected per table, missing or
/// unreadable files yield empty tables with a table-level error, and a
/// missing horizon is inferred from the data. Always returns a trace;
/// callers inspect the [`Quarantine`] to learn what was lost.
pub fn read_trace_dir_lenient(dir: &std::path::Path) -> (Trace, Quarantine) {
    read_tables(|file| {
        let f = std::fs::File::open(dir.join(file))?;
        let len = file_len(&f);
        Ok((f, len))
    })
}

/// The five files of a trace directory, each opened through `open`,
/// which gives a source and how many bytes it should yield (0: no
/// idea). `metadata.csv` is read first; then this thread reads the
/// instance table while a scoped thread reads the machine, collection
/// and usage tables (the two sides take about as long). The spawned
/// side is the small one: a thread's malloc arena keeps what was freed
/// in it, and the instance table's growing vector would leave its old
/// copies there. Each table fills its own [`Quarantine`]; they are
/// merged in file order under one detail cap, so the result is what
/// reading the five files one after the other gives. A panic on the
/// spawned side is raised again here.
fn read_tables<R: Read>(
    open: impl Fn(&'static str) -> io::Result<(R, u64)> + Sync,
) -> (Trace, Quarantine) {
    fn table<C: Codec, R: Read>(
        open: &impl Fn(&'static str) -> io::Result<(R, u64)>,
    ) -> (Vec<C::Row>, Quarantine) {
        let mut q = Quarantine::default();
        let rows = match open(C::FILE) {
            Ok((r, bytes)) => read_table_lenient::<C>(r, bytes, &mut q),
            Err(e) => {
                q.table_error(C::FILE, format!("io error: {e}"));
                Vec::new()
            }
        };
        (rows, q)
    }
    let mut q = Quarantine::default();
    let meta = open(FILE_METADATA).and_then(|(mut r, _)| {
        let mut meta = String::new();
        r.read_to_string(&mut meta).map(|_| meta)
    });
    let (cell_name, schema, horizon) = match meta {
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
    let open = &open;
    let ((machines, collections, usage), instances) = on_two_threads(
        || {
            (
                table::<MachineCodec, R>(open),
                table::<CollectionCodec, R>(open),
                table::<UsageCodec, R>(open),
            )
        },
        || table::<InstanceCodec, R>(open),
    );
    // Fields are evaluated as written: the merge runs in file order.
    let mut trace = Trace {
        cell_name,
        schema,
        horizon,
        machine_events: q.merge(machines),
        collection_events: q.merge(collections),
        instance_events: q.merge(instances),
        usage: q.merge(usage),
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
            // The type-7 percentiles of the window samples [0.05, 0.1, 0.15, 0.2].
            cpu_histogram: CpuHistogram([
                0.05, 0.065, 0.08, 0.095, 0.11, 0.125, 0.14, 0.155, 0.17, 0.1775, 0.185, 0.1865,
                0.188, 0.1895, 0.191, 0.1925, 0.194, 0.1955, 0.197, 0.1985, 0.2,
            ]),
        });
        t
    }

    /// A table's rows as the directory reader reads them, and what it
    /// quarantined.
    fn lenient<C: Codec>(r: impl Read) -> (Vec<C::Row>, Quarantine) {
        let mut q = Quarantine::default();
        let rows = read_table_lenient::<C>(r, 0, &mut q);
        (rows, q)
    }

    /// [`lenient`] of a table that must come back whole.
    fn read_clean<C: Codec>(bytes: &[u8]) -> Vec<C::Row> {
        let (rows, q) = lenient::<C>(bytes);
        assert!(q.is_clean(), "{}", q.summary());
        rows
    }

    fn rendered<C: Codec>(rows: &[C::Row]) -> Vec<u8> {
        let mut buf = Vec::new();
        write_table::<C>(&mut buf, rows).unwrap();
        buf
    }

    fn round_trip<C: Codec>(rows: &[C::Row]) -> Vec<C::Row> {
        read_clean::<C>(&rendered::<C>(rows))
    }

    /// The reader's verdict on one data line of the table in `file`: a
    /// row, or the message the line is quarantined with.
    fn verdict_in(file: &str, line: &str) -> Result<(), String> {
        fn verdict<C: Codec>(line: &str) -> Result<(), String> {
            let (rows, q) = lenient::<C>(format!("header\n{line}\n").as_bytes());
            assert!(q.table_errors.is_empty(), "{:?}", q.table_errors);
            match q.lines.first() {
                Some(rejected) => Err(rejected.message.clone()),
                None => {
                    assert_eq!(rows.len(), 1);
                    Ok(())
                }
            }
        }
        match file {
            FILE_MACHINE => verdict::<MachineCodec>(line),
            FILE_COLLECTION => verdict::<CollectionCodec>(line),
            FILE_INSTANCE => verdict::<InstanceCodec>(line),
            _ => verdict::<UsageCodec>(line),
        }
    }

    #[test]
    fn machine_events_round_trip() {
        let t = sample_trace();
        let back = round_trip::<MachineCodec>(&t.machine_events);
        assert_eq!(back, t.machine_events);
    }

    #[test]
    fn collection_events_round_trip() {
        let t = sample_trace();
        let back = round_trip::<CollectionCodec>(&t.collection_events);
        assert_eq!(back, t.collection_events);
    }

    #[test]
    fn instance_events_round_trip() {
        let t = sample_trace();
        let back = round_trip::<InstanceCodec>(&t.instance_events);
        assert_eq!(back, t.instance_events);
    }

    #[test]
    fn usage_round_trip() {
        let t = sample_trace();
        let back = round_trip::<UsageCodec>(&t.usage);
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
        let back = read_clean::<InstanceCodec>(&buf);
        assert_eq!(back.len(), events.len());
        for (b, e) in back.iter().zip(&events) {
            assert_eq!(b.request.cpu.to_bits(), e.request.cpu.to_bits());
            assert_eq!(b.request.mem.to_bits(), e.request.mem.to_bits());
        }
    }

    /// `values` through one memo, each held to plain `Display`; how many
    /// of them the memo converted.
    fn conversions_rendering(values: impl IntoIterator<Item = f64>) -> usize {
        let mut memo = FloatMemo::default();
        let mut out = Vec::new();
        for v in values {
            out.clear();
            memo.push(&mut out, v);
            assert_eq!(String::from_utf8_lossy(&out), format!("{v},"));
        }
        memo.conversions
    }

    #[test]
    fn render_memo_writes_what_display_writes() {
        // Two values of one slot evict each other every time.
        let slot = FloatMemo::slot(0.25f64.to_bits());
        let rival = (17..)
            .map(|k| f64::from(k) / 64.0)
            .find(|v| FloatMemo::slot(v.to_bits()) == slot)
            .expect("256 slots, unbounded candidates");
        assert_eq!(conversions_rendering([0.25, rival].repeat(50)), 100);
        // Equal as floats, distinct as text: keyed on the bits.
        assert_eq!(conversions_rendering([0.0, -0.0].repeat(50)), 2);
        let nans = [
            0x7ff8_0000_0000_0000,
            0xfff8_0000_0000_0000,
            0x7ff0_0000_0000_0001,
        ];
        conversions_rendering(nans.repeat(3).into_iter().map(f64::from_bits));
        // 326 bytes of text fit no slot and must not be cut to one.
        assert_eq!(conversions_rendering([5e-324; 4]), 4);
        assert_eq!(conversions_rendering([0.1 + 0.2; 4]), 1);
        // Forwards every value evicts some other; backwards the last 256
        // at most are still there.
        let mut rng = StdRng::seed_from_u64(23);
        let raw: Vec<f64> = (0..10_000).map(|_| f64::from_bits(rng.random())).collect();
        let there_and_back = raw.iter().chain(raw.iter().rev()).copied();
        let converted = conversions_rendering(there_and_back);
        assert!(
            (20_000 - MEMO_SLOTS..20_000).contains(&converted),
            "{converted}"
        );
    }

    #[test]
    fn render_memo_converts_under_a_quarter_of_a_simulated_cells_requests() {
        // The property the table exists for (DESIGN.md §11): requests come
        // back. A hash that sent them all to one slot, or a slot too short
        // for them, would still write the right bytes — and convert every row.
        let profile = borg_workload::cells::CellProfile::cell_2019('a');
        let config = borg_sim::SimConfig::tiny_for_tests(3);
        let events = borg_sim::CellSim::run_cell(&profile, &config)
            .trace
            .instance_events;
        assert!(events.len() > 1000, "cell is not trivial");
        for converted in [
            conversions_rendering(events.iter().map(|e| e.request.cpu)),
            conversions_rendering(events.iter().map(|e| e.request.mem)),
        ] {
            assert!(
                converted * 4 < events.len(),
                "{converted} of {}",
                events.len()
            );
        }
    }

    #[test]
    fn the_bucket_f64_parsing_rounded_twice_round_trips() {
        // As an `f64` the text of this `f32` lies so close to the midpoint
        // above it that narrowing used to land on the next float up.
        let odd = f32::from_bits(0x15ae_43fd);
        let mut row = sample_trace().usage[0];
        row.cpu_histogram.0[0] = -odd;
        row.cpu_histogram.0[20] = odd;
        let mut written = Vec::new();
        write_usage(&mut written, &[row]).unwrap();
        let text = std::str::from_utf8(&written).unwrap();
        assert!(
            text.ends_with(",0.00000000000000000000000007038531\n"),
            "{text}"
        );
        let back = read_clean::<UsageCodec>(&written);
        assert_eq!(back[0].cpu_histogram.0[20].to_bits(), odd.to_bits());
        let mut again = Vec::new();
        write_usage(&mut again, &back).unwrap();
        assert_eq!(again, written);
    }

    #[test]
    fn line_rules_header_blank_lines_crlf_and_numbering() {
        // The header is skipped whatever it says, blank and CRLF-only
        // lines are skipped but counted, CRLF ends a line, and a final
        // line needs no newline.
        let text = b"not,a,header\r\n\r\n5,3,add,0.5,0.25,1\r\n\n7,4,remove,0,0,2";
        let rows = read_clean::<MachineCodec>(text);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].machine_id, MachineId(3));
        assert_eq!(rows[1].time, Micros(7));
        let (rows, q) = lenient::<MachineCodec>(&b"h\n\n\n1,2,add,x,0,0\n"[..]);
        assert!(rows.is_empty());
        assert_eq!(q.count_for(FILE_MACHINE), 1);
        assert_eq!(q.lines[0].line, 4);
        assert_eq!(q.lines[0].message, "line 4: bad float \"x\"");
        // A lone carriage return is data, not a line end.
        let (rows, q) = lenient::<MachineCodec>(&b"h\n1,2,add,0,0,0\r"[..]);
        assert!(rows.is_empty());
        assert_eq!(q.count_for(FILE_MACHINE), 1);
        // Fields past the last column are ignored, but they must be text:
        // a line that is not UTF-8 ends the table there.
        let text = b"h\n1,2,add,0.5,0.25,3,7\n1,2,add,0.5,0.25,3,\xff\n1,2,add,0,0,0\n";
        let (rows, q) = lenient::<MachineCodec>(&text[..]);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].platform, Platform(3));
        assert_eq!(q.total_lines(), 0);
        assert_eq!(
            q.table_errors,
            [(
                FILE_MACHINE.to_string(),
                "io error near line 3: stream did not contain valid UTF-8".to_string()
            )]
        );
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
        for (file, line) in ok {
            assert_eq!(verdict_in(file, line), Ok(()), "{file}: largest values fit");
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
            let err = verdict_in(file, &fields.join(",")).unwrap_err();
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
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Accepts writes and, when it names its file, fails when flushed,
    /// like a buffered file on a full disk.
    struct FailsOnFlush(Option<&'static str>);

    impl Write for FailsOnFlush {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            match self.0 {
                Some(file) => Err(io::Error::other(format!("no space left for {file}"))),
                None => Ok(()),
            }
        }
    }

    /// Writes `sample_trace` through sinks whose flush fails for the
    /// files in `failing`; returns the error and the files created.
    fn write_failing(failing: &[&str]) -> (String, Vec<&'static str>) {
        let created = std::sync::Mutex::new(Vec::new());
        let err = write_tables(&sample_trace(), |file| {
            created.lock().unwrap().push(file);
            Ok(FailsOnFlush(failing.contains(&file).then_some(file)))
        })
        .unwrap_err();
        (err.to_string(), created.into_inner().unwrap())
    }

    #[test]
    fn a_failed_flush_fails_the_directory_write() {
        // Both sides fail: the calling thread's first error wins, a
        // failure stops its side, and `metadata.csv` is never created.
        let (err, created) =
            write_failing(&[FILE_MACHINE, FILE_COLLECTION, FILE_INSTANCE, FILE_USAGE]);
        assert_eq!(err, format!("no space left for {FILE_MACHINE}"));
        assert!(!created.contains(&FILE_COLLECTION), "{created:?}");
        assert!(!created.contains(&FILE_METADATA), "{created:?}");
        // Only the other thread's sink fails: its error comes back.
        let (err, created) = write_failing(&[FILE_INSTANCE]);
        assert_eq!(err, format!("no space left for {FILE_INSTANCE}"));
        assert!(created.contains(&FILE_USAGE), "{created:?}");
        assert!(!created.contains(&FILE_METADATA), "{created:?}");
        // The same writer behind std's buffering: the rows sit in the
        // `BufWriter` until the flush, whose error must surface too.
        let err = write_tables(&sample_trace(), |file| {
            Ok(io::BufWriter::new(FailsOnFlush(Some(file))))
        })
        .unwrap_err();
        assert_eq!(err.to_string(), format!("no space left for {FILE_MACHINE}"));
    }

    #[test]
    fn a_panic_writing_the_instance_table_reaches_the_caller() {
        let payload = std::panic::catch_unwind(|| {
            write_tables(&sample_trace(), |file| {
                if file == FILE_INSTANCE {
                    panic!("no sink for {file}");
                }
                Ok(Vec::new())
            })
        })
        .unwrap_err();
        let message = payload.downcast_ref::<String>().map(String::as_str);
        assert_eq!(message, Some("no sink for instance_events.csv"));
    }

    #[test]
    fn directory_round_trip() {
        let t = sample_trace();
        let dir = std::env::temp_dir().join(format!("borg_csv_test_{}", std::process::id()));
        write_trace_dir(&t, &dir).unwrap();
        let (back, q) = read_trace_dir_lenient(&dir);
        assert!(q.is_clean(), "{}", q.summary());
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
        let (rows, q) = lenient::<CollectionCodec>(&bad[..]);
        assert!(rows.is_empty());
        assert_eq!(q.count_for(FILE_COLLECTION), 1);
        assert_eq!(q.lines[0].line, 2);
        assert_eq!(q.lines[0].message, "line 2: bad event \"notanevent\"");
        // Two bad fields: each table reports the one it checks first.
        let usage = format!("x,2,3,4,5{},bogus", ",0.5".repeat(26));
        for (file, line, message) in [
            (
                FILE_MACHINE,
                "x,2,bogus,0.5,0.25,3",
                "bad machine event \"bogus\"",
            ),
            (
                FILE_COLLECTION,
                "1,2,bogus,job,0,default,sideways,,,0",
                "bad scaling mode \"sideways\"",
            ),
            (
                FILE_INSTANCE,
                "x,2,3,submit,,0.1,0.1,200,5,",
                "half-specified alloc instance",
            ),
            (FILE_INSTANCE, "1,2,3,submit,,x,0.1,200", "missing field 8"),
            (FILE_USAGE, usage.as_str(), "bad float \"bogus\""),
        ] {
            let err = verdict_in(file, line).unwrap_err();
            assert_eq!(err, format!("line 2: {message}"), "{file}: {line}");
        }
    }

    #[test]
    fn half_specified_alloc_rejected() {
        let bad = b"header\n1,2,submit,,0.1,0.1,200,5,\n";
        let (rows, q) = lenient::<InstanceCodec>(&bad[..]);
        assert!(rows.is_empty());
        assert_eq!(q.count_for(FILE_INSTANCE), 1);
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

    #[test]
    fn a_cell_name_the_metadata_row_cannot_hold_is_refused() {
        let dir = std::env::temp_dir().join(format!("borg_csv_name_{}", std::process::id()));
        for name in ["a,b", "a\nb", "a\rb", ","] {
            let _ = std::fs::remove_dir_all(&dir);
            let t = Trace {
                cell_name: name.to_string(),
                ..sample_trace()
            };
            let err = write_trace_dir(&t, &dir).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
            assert!(err.to_string().contains(&format!("{name:?}")), "{err}");
            let left: Vec<_> = std::fs::read_dir(&dir).map_or(Vec::new(), |d| d.collect());
            assert!(left.is_empty(), "no file was created");
        }
        // Any other name round-trips, to the metadata bytes it always had.
        let t = Trace {
            cell_name: "cell d.2019-05 (a)".to_string(),
            ..sample_trace()
        };
        write_trace_dir(&t, &dir).unwrap();
        assert_eq!(
            std::fs::read_to_string(dir.join(FILE_METADATA)).unwrap(),
            "cell_name,schema,horizon\ncell d.2019-05 (a),v3-2019,172800000000\n"
        );
        assert_eq!(read_trace_dir_lenient(&dir).0.cell_name, t.cell_name);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Yields `bytes` at most `step` at a time and fails once `fail_at`
    /// bytes (if any) were read.
    struct Trickle<'a> {
        bytes: &'a [u8],
        step: usize,
        fail_at: Option<usize>,
        at: usize,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.fail_at == Some(self.at) {
                return Err(io::Error::other("disk on fire"));
            }
            let end = (self.at + self.step.min(buf.len()))
                .min(self.fail_at.unwrap_or(usize::MAX))
                .min(self.bytes.len());
            let chunk = &self.bytes[self.at..end];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.at = end;
            Ok(chunk.len())
        }
    }

    /// The refill sizes of the boundary tests: every phase of a short
    /// sequence, and one byte either side of the reader's own buffer.
    const STEPS: [usize; 7] = [1, 2, 3, 7, 4095, READ_CHUNK - 1, READ_CHUNK + 1];

    /// A machine table of some 200 KiB with, scattered through it, what a
    /// refill must not tear: `\r\n`, blank lines, a multi-byte character
    /// and an invalid byte sequence (both in lines `parse` rejects), a line
    /// longer than the buffer, and a last line without its newline.
    fn boundary_table(invalid_utf8: bool) -> Vec<u8> {
        let mut bytes = b"time,machine_id,event_type,cpu,mem,platform\r\n".to_vec();
        for i in 0..6000u32 {
            match i % 1000 {
                100 => bytes.extend_from_slice(b"\r\n\n"),
                300 => bytes.extend_from_slice("1,2,ädd,0.5,0.5,0\n".as_bytes()),
                500 if invalid_utf8 && i > 3000 => bytes.extend_from_slice(b"1,2,\xE2\x82,0,0,0\n"),
                700 => {
                    bytes.extend_from_slice(b"7,");
                    bytes.resize(bytes.len() + READ_CHUNK + 10, b'0');
                    bytes.extend_from_slice(b"8,update,0.5,0.25,1\r\n");
                }
                _ => {}
            }
            let end = if i % 3 == 0 { "\r\n" } else { "\n" };
            bytes.extend_from_slice(
                format!("{i},{},add,0.5,0.25,{}{end}", i * 7, i % 256).as_bytes(),
            );
        }
        bytes.extend_from_slice(b"9,9,remove,0,0,9");
        bytes
    }

    fn assert_same_ingest(
        got: (Vec<MachineEvent>, Quarantine),
        want: &(Vec<MachineEvent>, Quarantine),
        what: &str,
    ) {
        assert!(got.0 == want.0, "{what}: rows");
        assert_eq!(got.1.line_counts, want.1.line_counts, "{what}: counts");
        assert_eq!(
            got.1.table_errors, want.1.table_errors,
            "{what}: table errors"
        );
        assert_eq!(
            format!("{:?}", got.1.lines),
            format!("{:?}", want.1.lines),
            "{what}: rejected lines"
        );
    }

    #[test]
    fn lenient_reader_reads_the_same_across_any_refill_boundary() {
        let header_only: &[u8] = b"time,machine_id,event_type,cpu,mem,platform\n";
        let tables = [
            boundary_table(false),
            boundary_table(true),
            header_only.to_vec(),
            Vec::new(),
        ];
        for (t, bytes) in tables.iter().enumerate() {
            let want = lenient::<MachineCodec>(&bytes[..]);
            if t < 2 {
                assert!(
                    want.0.len() > 3000 && want.1.total_lines() >= 3,
                    "table {t}"
                );
                assert_eq!(
                    want.1.table_errors.len(),
                    t,
                    "only the invalid bytes end a table"
                );
            }
            for step in STEPS {
                let trickle = Trickle {
                    bytes,
                    step,
                    fail_at: None,
                    at: 0,
                };
                assert_same_ingest(
                    lenient::<MachineCodec>(trickle),
                    &want,
                    &format!("table {t} step {step}"),
                );
            }
        }
        // A failing source: the lines complete by then, and the number of
        // the one that was being read.
        let bytes = &tables[0];
        for fail_at in [0, 1, 44, 45, 46, 70_000, 150_000, bytes.len()] {
            let complete = bytes[..fail_at]
                .iter()
                .rposition(|&b| b == b'\n')
                .map_or(0, |p| p + 1);
            let mut want = lenient::<MachineCodec>(&bytes[..complete]);
            let line = bytes[..complete].iter().filter(|&&b| b == b'\n').count() + 1;
            want.1.table_errors.push((
                FILE_MACHINE.to_string(),
                format!("io error near line {line}: disk on fire"),
            ));
            for step in STEPS {
                let trickle = Trickle {
                    bytes,
                    step,
                    fail_at: Some(fail_at),
                    at: 0,
                };
                assert_same_ingest(
                    lenient::<MachineCodec>(trickle),
                    &want,
                    &format!("fail at {fail_at} step {step}"),
                );
            }
        }
    }

    #[test]
    fn a_source_length_is_only_a_hint() {
        let bytes = boundary_table(false);
        let want = lenient::<MachineCodec>(&bytes[..]);
        let len = bytes.len() as u64;
        for expected in [len, 1, len / 10, len * 10, u64::MAX] {
            let mut q = Quarantine::default();
            let rows = read_table_lenient::<MachineCodec>(&bytes[..], expected, &mut q);
            if expected == len {
                // Sized once, from the first buffer's lines.
                assert!(rows.capacity() < rows.len() * 3 / 2, "{}", rows.capacity());
            }
            assert_same_ingest((rows, q), &want, &format!("expecting {expected} bytes"));
        }
    }

    /// Reads the directory `files` through [`read_tables`], the source of
    /// each file in `failing` failing half way through its bytes.
    fn read_failing(files: &[(&'static str, Vec<u8>)], failing: &[&str]) -> (Trace, Quarantine) {
        read_tables(|file| {
            let (_, bytes) = files.iter().find(|(f, _)| *f == file).unwrap();
            let source = Trickle {
                bytes,
                step: 4096,
                fail_at: failing.contains(&file).then_some(bytes.len() / 2),
                at: 0,
            };
            Ok((source, bytes.len() as u64))
        })
    }

    #[test]
    fn a_failing_source_on_either_thread_keeps_file_order() {
        let tables = |t: &Trace| {
            [
                (FILE_MACHINE, rendered::<MachineCodec>(&t.machine_events)),
                (
                    FILE_COLLECTION,
                    rendered::<CollectionCodec>(&t.collection_events),
                ),
                (FILE_INSTANCE, rendered::<InstanceCodec>(&t.instance_events)),
                (FILE_USAGE, rendered::<UsageCodec>(&t.usage)),
            ]
        };
        let mut files = vec![(
            FILE_METADATA,
            b"cell_name,schema,horizon\nseeded,v3-2019,9\n".to_vec(),
        )];
        files.extend(tables(&seeded_trace(2000)));
        assert!(files[3].1.len() > 2 * READ_CHUNK, "several buffers");
        let (whole, q) = read_failing(&files, &[]);
        assert!(q.is_clean(), "{}", q.summary());
        let whole = tables(&whole);
        // Failing on the spawned side, on the calling one, and on both.
        let sides: [&[&str]; 3] = [
            &[FILE_USAGE, FILE_MACHINE],
            &[FILE_INSTANCE],
            &[FILE_USAGE, FILE_INSTANCE, FILE_COLLECTION, FILE_METADATA],
        ];
        for failing in sides {
            let (got, q) = read_failing(&files, failing);
            let in_file_order: Vec<&str> = files
                .iter()
                .map(|&(file, _)| file)
                .filter(|file| failing.contains(file))
                .collect();
            let errors: Vec<&str> = q.table_errors.iter().map(|(f, _)| f.as_str()).collect();
            assert_eq!(errors, in_file_order);
            assert!(
                q.table_errors
                    .iter()
                    .all(|(_, e)| e.contains("disk on fire")),
                "{:?}",
                q.table_errors
            );
            assert_eq!(q.total_lines(), 0);
            let named = got.cell_name == "seeded" && got.horizon == Micros(9);
            assert_eq!(named, !failing.contains(&FILE_METADATA));
            // A table whose source did not fail is read whole; one whose
            // source failed keeps the rows before the failure.
            for ((file, whole), (_, read)) in whole.iter().zip(tables(&got)) {
                if failing.contains(file) {
                    assert!(whole.starts_with(&read), "{file}");
                    assert!(read.len() > whole.len() / 3, "{file}");
                    assert!(read.len() <= whole.len() / 2 + 4096, "{file}");
                } else {
                    assert!(read == *whole, "{file} read whole");
                }
            }
        }
    }

    #[test]
    fn a_panic_reading_a_spawned_table_reaches_the_caller() {
        let payload = std::panic::catch_unwind(|| {
            read_tables(|file| {
                if file == FILE_USAGE {
                    panic!("no source for {file}");
                }
                Ok((&b""[..], 0))
            })
        })
        .unwrap_err();
        let message = payload.downcast_ref::<String>().map(String::as_str);
        assert_eq!(message, Some("no source for instance_usage.csv"));
    }

    #[test]
    fn find_byte_finds_the_first_of_neighbouring_matches() {
        // The word-at-a-time mask also flags the byte after a match when
        // it is one more than the needle (`,-`, `\n\x0b`).
        for len in 0..40 {
            for at in 0..len {
                let mut bytes = vec![b'x'; len];
                bytes[at] = b',';
                for b in &mut bytes[at + 1..] {
                    *b = b'-';
                }
                assert_eq!(find_byte::<b','>(&bytes), Some(at), "{len} {at}");
                bytes[at] = b'-';
                assert_eq!(find_byte::<b','>(&bytes), None, "{len} {at}");
            }
        }
    }

    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// Every field of a row as an integer, floats by `to_bits`: `==` on
    /// rows calls `-0.0` and `0.0` equal and a NaN unequal to itself.
    /// Every NaN is written `NaN`, so a NaN counts as the one that reads
    /// back.
    trait Bits {
        fn bits(&self) -> Vec<u64>;
    }

    fn float_bits(r: Resources) -> [u64; 2] {
        [r.cpu, r.mem].map(|v| if v.is_nan() { f64::NAN } else { v }.to_bits())
    }

    fn opt_bits(v: Option<u64>) -> [u64; 2] {
        [u64::from(v.is_some()), v.unwrap_or(0)]
    }

    impl Bits for MachineEvent {
        fn bits(&self) -> Vec<u64> {
            let mut out = vec![
                self.time.0,
                self.machine_id.0.into(),
                self.event_type as u64,
            ];
            out.extend(float_bits(self.capacity));
            out.push(self.platform.0.into());
            out
        }
    }

    impl Bits for CollectionEvent {
        fn bits(&self) -> Vec<u64> {
            let mut out = vec![
                self.time.0,
                self.collection_id.0,
                self.event_type as u64,
                self.collection_type as u64,
                self.priority.0.into(),
                self.scheduler as u64,
                self.vertical_scaling as u64,
                self.user_id.0.into(),
            ];
            out.extend(opt_bits(self.parent_id.map(|c| c.0)));
            out.extend(opt_bits(self.alloc_collection_id.map(|c| c.0)));
            out
        }
    }

    impl Bits for InstanceEvent {
        fn bits(&self) -> Vec<u64> {
            let mut out = vec![
                self.time.0,
                self.instance_id.collection.0,
                self.instance_id.index.into(),
                self.event_type as u64,
                self.priority.0.into(),
            ];
            out.extend(opt_bits(self.machine_id.map(|m| m.0.into())));
            out.extend(float_bits(self.request));
            out.extend(opt_bits(self.alloc_instance.map(|a| a.collection.0)));
            out.extend(opt_bits(self.alloc_instance.map(|a| a.index.into())));
            out
        }
    }

    impl Bits for UsageRecord {
        fn bits(&self) -> Vec<u64> {
            let mut out = vec![
                self.start.0,
                self.end.0,
                self.instance_id.collection.0,
                self.instance_id.index.into(),
                self.machine_id.0.into(),
            ];
            for r in [self.avg_usage, self.max_usage, self.limit] {
                out.extend(float_bits(r));
            }
            out.extend(
                self.cpu_histogram
                    .0
                    .iter()
                    .map(|&v| u64::from(if v.is_nan() { f32::NAN } else { v }.to_bits())),
            );
            out
        }
    }

    fn below(rng: &mut StdRng, n: usize) -> usize {
        (rng.random::<u64>() % n as u64) as usize
    }

    /// Column values at and between the edges of their types.
    fn any_u64(rng: &mut StdRng) -> u64 {
        [0, u64::MAX, rng.random(), rng.random::<u64>() % 100_000][below(rng, 4)]
    }

    fn any_u32(rng: &mut StdRng) -> u32 {
        [0, u32::MAX, rng.random(), rng.random::<u32>() % 1000][below(rng, 4)]
    }

    fn any_f64(rng: &mut StdRng) -> f64 {
        let edges = [-0.0, 0.0, 1e300, 5e-324, 0.1 + 0.2, f64::NAN, f64::INFINITY];
        match below(rng, 3) {
            0 => f64::from_bits(rng.random()),
            1 => edges[below(rng, edges.len())],
            _ => rng.random(),
        }
    }

    fn any_resources(rng: &mut StdRng) -> Resources {
        Resources::new(any_f64(rng), any_f64(rng))
    }

    fn any_instance(rng: &mut StdRng) -> InstanceId {
        InstanceId::new(CollectionId(any_u64(rng)), any_u32(rng))
    }

    /// Seeded rows of all four tables: every enum value in turn, optional
    /// fields present and absent, and floats that repeat from row to row
    /// (a memo hit) or do not.
    fn seeded_trace(rows: usize) -> Trace {
        let rng = &mut StdRng::seed_from_u64(0xC5F0);
        let mut t = Trace::new("seeded", SchemaVersion::V3Trace2019, Micros::ZERO);
        let mut request = Resources::new(0.25, 0.125);
        for i in 0..rows {
            if rng.random_bool(0.5) {
                request = any_resources(rng);
            }
            let event_type = EventType::ALL[i % EventType::ALL.len()];
            t.machine_events.push(MachineEvent {
                time: Micros(any_u64(rng)),
                machine_id: MachineId(any_u32(rng)),
                event_type: [
                    MachineEventType::Add,
                    MachineEventType::Remove,
                    MachineEventType::Update,
                ][i % 3],
                capacity: any_resources(rng),
                platform: Platform([0, u8::MAX, rng.random::<u32>() as u8][i % 3]),
            });
            t.collection_events.push(CollectionEvent {
                time: Micros(any_u64(rng)),
                collection_id: CollectionId(any_u64(rng)),
                event_type,
                collection_type: [CollectionType::Job, CollectionType::AllocSet][i % 2],
                priority: Priority([0, u16::MAX, 450, rng.random::<u32>() as u16][i % 4]),
                scheduler: [SchedulerKind::Default, SchedulerKind::Batch][i / 2 % 2],
                vertical_scaling: [
                    VerticalScalingMode::Off,
                    VerticalScalingMode::Constrained,
                    VerticalScalingMode::Full,
                ][i % 3],
                parent_id: rng.random_bool(0.5).then(|| CollectionId(any_u64(rng))),
                alloc_collection_id: rng.random_bool(0.5).then(|| CollectionId(any_u64(rng))),
                user_id: UserId(any_u32(rng)),
            });
            t.instance_events.push(InstanceEvent {
                time: Micros(any_u64(rng)),
                instance_id: any_instance(rng),
                event_type,
                machine_id: rng.random_bool(0.5).then(|| MachineId(any_u32(rng))),
                request,
                priority: Priority([0, u16::MAX, 450, rng.random::<u32>() as u16][i % 4]),
                alloc_instance: rng.random_bool(0.5).then(|| any_instance(rng)),
            });
            let mut cpu_histogram = CpuHistogram([0.0; 21]);
            for bucket in &mut cpu_histogram.0 {
                *bucket = match below(rng, 3) {
                    0 => f32::from_bits(rng.random()),
                    1 => [-0.0, f32::MAX, f32::MIN_POSITIVE, 1e-45][below(rng, 4)],
                    _ => rng.random(),
                };
            }
            t.usage.push(UsageRecord {
                start: Micros(any_u64(rng)),
                end: Micros(any_u64(rng)),
                instance_id: any_instance(rng),
                machine_id: MachineId(any_u32(rng)),
                avg_usage: any_resources(rng),
                max_usage: any_resources(rng),
                limit: request,
                cpu_histogram,
            });
        }
        t
    }

    /// The table of `rows`, written and read back: the rows again, floats
    /// by bits. What damaged lines read as — each of `csv_fuzz.rs`'s
    /// replacement fields and byte-level edits — is held to the reference
    /// reader by `csv_fuzz.rs::lenient_reader_and_repair_survive_mutated_tables`.
    fn reads_back<C: Codec>(rows: &[C::Row])
    where
        C::Row: Bits,
    {
        let back = round_trip::<C>(rows);
        assert_eq!(back.len(), rows.len(), "{}", C::FILE);
        for (got, want) in back.iter().zip(rows) {
            assert_eq!(got.bits(), want.bits(), "{}", C::FILE);
        }
    }

    #[test]
    fn every_rendered_line_reads_back_to_its_row() {
        let mut t = seeded_trace(120);
        // A priority comes back as `Priority::new` keeps it: at most 450.
        for e in &mut t.collection_events {
            e.priority = Priority::new(e.priority.0);
        }
        for e in &mut t.instance_events {
            e.priority = Priority::new(e.priority.0);
        }
        reads_back::<MachineCodec>(&t.machine_events);
        reads_back::<CollectionCodec>(&t.collection_events);
        reads_back::<InstanceCodec>(&t.instance_events);
        reads_back::<UsageCodec>(&t.usage);
    }

    #[test]
    fn lines_render_does_not_write_read_as_std_parses_them() {
        let usage = format!("1,2,3,4,5{}", ",0.5".repeat(27));
        // (table, a line, the columns `4294967296` is too wide for)
        let valid: [(&str, &str, &[usize]); 4] = [
            (FILE_MACHINE, "1,2,add,0.5,0.25,3", &[1, 2, 5]),
            (
                FILE_COLLECTION,
                "1,2,submit,job,200,default,off,3,4,5",
                &[2, 3, 4, 5, 6, 9],
            ),
            (
                FILE_INSTANCE,
                "1,2,3,submit,4,0.5,0.25,200,5,6",
                &[2, 3, 4, 7, 9],
            ),
            (FILE_USAGE, usage.as_str(), &[3, 4]),
        ];
        let reads = |file: &str, line: &str| verdict_in(file, line).is_ok();
        for (file, line, narrow) in valid {
            assert!(reads(file, line), "{file}");
            // Extra trailing fields: ignored, though `render` does not
            // write them.
            for extra in [",", ",7", ",,"] {
                let line = format!("{line}{extra}");
                assert!(reads(file, &line), "{file}: {line}");
            }
            // A line that stops one field short, with or without the comma.
            let short = &line[..line.rfind(',').unwrap()];
            assert!(!reads(file, short), "{file}: {short}");
            assert!(!reads(file, &format!("{short},")), "{file}: {short},");
            // `4294967296` in every column: too wide for the narrow ones,
            // no name, and a `u64` or a float everywhere else.
            let fields: Vec<&str> = line.split(',').collect();
            for column in 0..fields.len() {
                let mut fields = fields.clone();
                fields[column] = "4294967296";
                let read = reads(file, &fields.join(","));
                assert_eq!(read, !narrow.contains(&column), "{file}: column {column}");
            }
            // A sign in the first integer column: `u64::from_str` takes `+1`.
            for (field, read) in [("-0", false), ("-1", false), ("+1", true)] {
                let line = format!("{field}{}", &line[1..]);
                assert_eq!(reads(file, &line), read, "{file}: {line}");
            }
        }
        // Nine fields ending in a comma: the end of the line is not a
        // second comma.
        let nine = "1,2,3,submit,4,0.5,0.25,200,";
        assert!(!reads(FILE_INSTANCE, nine));
        // A half-specified alloc pair, either half.
        for line in [
            "1,2,3,submit,4,0.5,0.25,200,5,",
            "1,2,3,submit,4,0.5,0.25,200,,6",
        ] {
            assert!(!reads(FILE_INSTANCE, line), "{line}");
        }
        // `,-0` and `,-1` inside a line, where the comma search sees `,-`.
        for line in [
            "1,-0,3,submit,4,0.5,0.25,200,5,6",
            "1,2,3,submit,-1,0.5,0.25,200,5,6",
        ] {
            assert!(!reads(FILE_INSTANCE, line), "{line}");
        }
        // A float column takes them.
        assert!(reads(FILE_INSTANCE, "1,2,3,submit,4,-0,-1,200,5,6"));
    }
}
