//! Plain-text (CSV) round-trip of trace tables.
//!
//! The 2011 trace shipped as CSV files; this module writes and reads the
//! same style for every table in the model so traces can be persisted,
//! inspected with standard tools, and diffed. Fields never contain commas,
//! so no quoting is needed.
//!
//! Each table has one `Codec`: how a row is rendered, how a line is
//! parsed, and how a line the writer could have written is recognised.
//! There is one reader, [`read_trace_dir_lenient`]: each table goes
//! through `read_table_lenient`, where `Lines` hands out every line as a
//! slice of its read buffer; the codec's recogniser walks those bytes
//! once and answers with the row for any line `render` emits; every other
//! line goes to `parse`, which is the definition of what the reader
//! accepts, of the order a line's bad fields are reported in, and of
//! every message a quarantined line carries. A directory is read and
//! written on two threads (`read_tables`, `write_tables`, sharing
//! `on_two_threads`): the instance table on one, the other three tables
//! on the other; the reader merges the tables' quarantines in file order,
//! so the result is the same as reading one file after another. The
//! file-format rules the codecs, `write_table` and `Lines` must keep
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

/// A float field: `f64::from_str` for an `f64` column, `f32::from_str`
/// (one grammar, each rounded once) for a histogram bucket.
fn parse_float<T: std::str::FromStr>(s: &str, line: usize) -> Result<T, CsvError> {
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

/// A line being walked by a recogniser ([`Codec::recognise`]), left to
/// right and once: every method reads the field at the cursor and stops
/// at its comma, [`Cursor::next`] steps over the comma, and
/// [`Cursor::end`] holds when nothing is left, so a line is recognised
/// only with exactly its table's field count.
struct Cursor<'a> {
    line: &'a [u8],
    at: usize,
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
            text: None,
        }
    }

    /// Steps over the comma that ends the field just read.
    fn next(&mut self) -> Option<&mut Self> {
        if *self.line.get(self.at)? != b',' {
            return None;
        }
        self.at += 1;
        Some(self)
    }

    /// Holds at the end of the line.
    fn end(&self) -> Option<()> {
        (self.at == self.line.len()).then_some(())
    }

    /// An integer field, converted while looking for its comma: decimal
    /// digits only, as the writer renders one. A sign, a blank or a
    /// value over `u64::MAX` is for `parse_u64` to judge.
    fn int(&mut self) -> Option<u64> {
        let mut v: u64 = 0;
        let mut digits = 0;
        for &b in &self.line[self.at..] {
            let d = u64::from(b.wrapping_sub(b'0'));
            if d > 9 {
                break;
            }
            // Nineteen digits cannot overflow.
            v = if digits < 19 {
                v * 10 + d
            } else {
                v.checked_mul(10)?.checked_add(d)?
            };
            digits += 1;
        }
        if digits == 0 {
            return None;
        }
        self.at += digits;
        Some(v)
    }

    /// An integer field of a column narrower than `u64`.
    fn narrow<T: TryFrom<u64>>(&mut self) -> Option<T> {
        T::try_from(self.int()?).ok()
    }

    /// An integer field that may be empty.
    fn optional<T>(&mut self, read: impl FnOnce(&mut Self) -> Option<T>) -> Option<Option<T>> {
        match self.line.get(self.at) {
            None | Some(b',') => Some(None),
            Some(_) => read(self).map(Some),
        }
    }

    /// Steps to the end of the field, whatever it holds; where in `line`
    /// it lies.
    fn span(&mut self) -> std::ops::Range<usize> {
        let rest = &self.line[self.at..];
        let from = self.at;
        self.at += find_byte::<b','>(rest).unwrap_or(rest.len());
        from..self.at
    }

    /// The bytes of the field.
    fn field(&mut self) -> &'a [u8] {
        &self.line[self.span()]
    }

    /// A float field: whatever `T::from_str` accepts, as `parse_float`.
    fn float<T: std::str::FromStr>(&mut self) -> Option<T> {
        let span = self.span();
        let text = match self.text {
            Some(text) => text,
            None => *self.text.insert(std::str::from_utf8(self.line).ok()?),
        };
        text.get(span)?.parse().ok()
    }

    /// A field holding the name of one of `values`.
    fn name<T: Copy>(&mut self, values: &[T], name: impl Fn(T) -> &'static str) -> Option<T> {
        let field = self.field();
        values
            .iter()
            .copied()
            .find(|&v| name(v).as_bytes() == field)
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
/// and converts only on a miss; parsing remembers the previous field
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

    /// The value of a field, `None` when `f64::from_str` refuses it.
    fn recognise(&mut self, field: &[u8]) -> Option<f64> {
        if !field.is_empty() && field == self.text {
            return Some(f64::from_bits(self.bits));
        }
        let v: f64 = std::str::from_utf8(field).ok()?.parse().ok()?;
        self.bits = v.to_bits();
        self.text.clear();
        self.text.extend_from_slice(field);
        Some(v)
    }

    fn parse(&mut self, s: &str, line: usize) -> Result<f64, CsvError> {
        match self.recognise(s.as_bytes()) {
            Some(v) => Ok(v),
            // Refused again, this time with the message.
            None => parse_float(s, line),
        }
    }
}

/// Appends `v` as `Display` writes it, then a comma (the columns whose
/// values do not come back, or too few rows to matter).
fn push_float(out: &mut Vec<u8>, v: f64) {
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
    /// This is the definition of the table's accepted language, of which
    /// of a line's bad fields is reported, and of every message.
    fn parse(&mut self, line: &str, n: usize) -> Result<Self::Row, CsvError>;
    /// The row of a line `render` could have written, in one walk over
    /// its bytes; `None` hands the line to [`Codec::parse`], which alone
    /// decides whether it is an error. `Some(row)` only where `parse`
    /// returns `Ok(row)`.
    fn recognise(&mut self, line: &[u8]) -> Option<Self::Row>;
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

/// Reads one table, quarantining instead of aborting: a line that is
/// neither recognised nor parsed is rejected with `parse`'s message, and
/// an I/O failure or a line that is not UTF-8 ends the table with a table
/// error, keeping what was read so far. `bytes` is how many bytes `r` is
/// expected to yield (0: no idea).
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
        let row = match codec.recognise(line) {
            Some(row) => row,
            None => {
                let Ok(line) = std::str::from_utf8(line) else {
                    break (n, invalid_utf8());
                };
                match codec.parse(line, n) {
                    Ok(row) => row,
                    Err(e) => {
                        q.reject_line(C::FILE, n, e.to_string());
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
            capacity: Resources::new(parse_float(f.get(3, n)?, n)?, parse_float(f.get(4, n)?, n)?),
            platform: Platform(parse_narrow(f.get(5, n)?, "platform", n)?),
        })
    }

    fn recognise(&mut self, line: &[u8]) -> Option<MachineEvent> {
        use MachineEventType::{Add, Remove, Update};
        let mut c = Cursor::new(line);
        let e = MachineEvent {
            time: Micros(c.int()?),
            machine_id: MachineId(c.next()?.narrow()?),
            event_type: c.next()?.name(&[Add, Remove, Update], |ty| match ty {
                Add => "add",
                Remove => "remove",
                Update => "update",
            })?,
            capacity: Resources::new(c.next()?.float()?, c.next()?.float()?),
            platform: Platform(c.next()?.narrow()?),
        };
        c.end()?;
        Some(e)
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

    fn recognise(&mut self, line: &[u8]) -> Option<CollectionEvent> {
        let mut c = Cursor::new(line);
        let e = CollectionEvent {
            time: Micros(c.int()?),
            collection_id: CollectionId(c.next()?.int()?),
            event_type: c.next()?.name(&EventType::ALL, EventType::name)?,
            collection_type: c.next()?.name(
                &[CollectionType::Job, CollectionType::AllocSet],
                CollectionType::name,
            )?,
            priority: Priority::new(c.next()?.narrow()?),
            scheduler: c.next()?.name(
                &[SchedulerKind::Default, SchedulerKind::Batch],
                scheduler_name,
            )?,
            vertical_scaling: c.next()?.name(
                &[
                    VerticalScalingMode::Off,
                    VerticalScalingMode::Constrained,
                    VerticalScalingMode::Full,
                ],
                VerticalScalingMode::name,
            )?,
            parent_id: c.next()?.optional(Cursor::int)?.map(CollectionId),
            alloc_collection_id: c.next()?.optional(Cursor::int)?.map(CollectionId),
            user_id: UserId(c.next()?.narrow()?),
        };
        c.end()?;
        Some(e)
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

    fn recognise(&mut self, line: &[u8]) -> Option<InstanceEvent> {
        let mut c = Cursor::new(line);
        let e = InstanceEvent {
            time: Micros(c.int()?),
            instance_id: InstanceId::new(CollectionId(c.next()?.int()?), c.next()?.narrow()?),
            event_type: c.next()?.name(&EventType::ALL, EventType::name)?,
            machine_id: c.next()?.optional(Cursor::narrow)?.map(MachineId),
            request: Resources::new(
                self.cpu.recognise(c.next()?.field())?,
                self.mem.recognise(c.next()?.field())?,
            ),
            priority: Priority::new(c.next()?.narrow()?),
            alloc_instance: match (
                c.next()?.optional(Cursor::int)?,
                c.next()?.optional(Cursor::narrow)?,
            ) {
                (Some(collection), Some(index)) => {
                    Some(InstanceId::new(CollectionId(collection), index))
                }
                (None, None) => None,
                _ => return None,
            },
        };
        c.end()?;
        Some(e)
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

    fn parse(&mut self, line: &str, n: usize) -> Result<UsageRecord, CsvError> {
        let f = Fields::<32>::split(line);
        let mut hist = [0.0f32; 21];
        for (k, h) in hist.iter_mut().enumerate() {
            *h = parse_float(f.get(11 + k, n)?, n)?;
        }
        Ok(UsageRecord {
            start: Micros(parse_u64(f.get(0, n)?, n)?),
            end: Micros(parse_u64(f.get(1, n)?, n)?),
            instance_id: InstanceId::new(
                CollectionId(parse_u64(f.get(2, n)?, n)?),
                parse_narrow(f.get(3, n)?, "instance_index", n)?,
            ),
            machine_id: MachineId(parse_narrow(f.get(4, n)?, "machine_id", n)?),
            avg_usage: Resources::new(parse_float(f.get(5, n)?, n)?, parse_float(f.get(6, n)?, n)?),
            max_usage: Resources::new(parse_float(f.get(7, n)?, n)?, parse_float(f.get(8, n)?, n)?),
            limit: Resources::new(
                self.limit_cpu.parse(f.get(9, n)?, n)?,
                self.limit_mem.parse(f.get(10, n)?, n)?,
            ),
            cpu_histogram: CpuHistogram(hist),
        })
    }

    fn recognise(&mut self, line: &[u8]) -> Option<UsageRecord> {
        let mut c = Cursor::new(line);
        let mut u = UsageRecord {
            start: Micros(c.int()?),
            end: Micros(c.next()?.int()?),
            instance_id: InstanceId::new(CollectionId(c.next()?.int()?), c.next()?.narrow()?),
            machine_id: MachineId(c.next()?.narrow()?),
            avg_usage: Resources::new(c.next()?.float()?, c.next()?.float()?),
            max_usage: Resources::new(c.next()?.float()?, c.next()?.float()?),
            limit: Resources::new(
                self.limit_cpu.recognise(c.next()?.field())?,
                self.limit_mem.recognise(c.next()?.field())?,
            ),
            cpu_histogram: CpuHistogram([0.0; 21]),
        };
        for bucket in &mut u.cpu_histogram.0 {
            *bucket = c.next()?.float()?;
        }
        c.end()?;
        Some(u)
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
            cpu_histogram: CpuHistogram::from_samples(&[0.05, 0.1, 0.15, 0.2]),
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
        let line = text.lines().nth(1).unwrap();
        for back in [
            read_clean::<UsageCodec>(&written),
            vec![UsageCodec::default().parse(line, 2).unwrap()],
        ] {
            assert_eq!(back[0].cpu_histogram.0[20].to_bits(), odd.to_bits());
            let mut again = Vec::new();
            write_usage(&mut again, &back).unwrap();
            assert_eq!(again, written);
        }
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
                FILE_MACHINE => MachineCodec.parse(line, 2).map(|_| ()),
                FILE_COLLECTION => CollectionCodec.parse(line, 2).map(|_| ()),
                FILE_INSTANCE => InstanceCodec::default().parse(line, 2).map(|_| ()),
                _ => UsageCodec::default().parse(line, 2).map(|_| ()),
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
    trait Bits {
        fn bits(&self) -> Vec<u64>;
    }

    fn float_bits(r: Resources) -> [u64; 2] {
        [r.cpu.to_bits(), r.mem.to_bits()]
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
            out.extend(self.cpu_histogram.0.iter().map(|v| u64::from(v.to_bits())));
            out
        }
    }

    /// What the recogniser promises about `line`: `Some(row)` only where
    /// `parse` returns that row. Returns whether it recognised the line.
    fn holds_to_parse<C: Codec>(recogniser: &mut C, parser: &mut C, line: &[u8]) -> bool
    where
        C::Row: Bits,
    {
        let Some(row) = recogniser.recognise(line) else {
            return false;
        };
        let text = std::str::from_utf8(line).expect("a recognised line is UTF-8");
        let parsed = parser
            .parse(text, 1)
            .unwrap_or_else(|e| panic!("recognised, but {e}: {text}"));
        assert_eq!(row.bits(), parsed.bits(), "{text}");
        true
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

    /// `csv_fuzz.rs`'s replacement fields.
    const FIELDS: [&str; 16] = [
        "",
        "+1",
        "-1",
        "1e3",
        "nan",
        "NaN",
        "inf",
        "-0",
        "0x10",
        " 1",
        "1 ",
        "18446744073709551615",
        "18446744073709551616",
        "4294967296",
        "000000000000000000000000000000000000000007",
        "1.7976931348623157e309",
    ];

    /// One of `csv_fuzz.rs`'s byte-level edits, within a line.
    fn mutate_line(line: &mut Vec<u8>, rng: &mut StdRng) {
        if line.is_empty() {
            return;
        }
        let at = below(rng, line.len());
        match below(rng, 7) {
            0 => line[at] ^= 1 << below(rng, 8),
            1 => {
                let len = (1 + below(rng, 16)).min(line.len() - at);
                line.drain(at..at + len);
            }
            2 => line.truncate(at),
            3 => line.insert(at, b'\r'),
            4 => line.insert(at, 0),
            5 => {
                let bad: &[u8] =
                    [&[0xFF][..], &[0xC3], &[0xE2, 0x82], &[0xF0, 0x9F]][below(rng, 4)];
                line.splice(at..at, bad.iter().copied());
            }
            _ => line.insert(at, b','),
        }
    }

    /// Completeness: every line `render` writes for `rows` is recognised,
    /// to the row `parse` returns. Soundness: whatever is made of those
    /// lines by each of `FIELDS` in every column and by byte-level damage,
    /// a recognised line is one `parse` takes to the same row.
    fn recogniser_agrees_with_parse<C: Codec>(rows: &[C::Row], rng: &mut StdRng)
    where
        C::Row: Bits,
    {
        let mut table = Vec::new();
        write_table::<C>(&mut table, rows).unwrap();
        let lines: Vec<&[u8]> = table.split(|&b| b == b'\n').skip(1).collect();
        let lines = &lines[..rows.len()];
        let (mut recogniser, mut parser) = (C::default(), C::default());
        let hits = lines
            .iter()
            .filter(|line| holds_to_parse(&mut recogniser, &mut parser, line))
            .count();
        assert_eq!(
            hits,
            lines.len(),
            "{}: a rendered line was declined",
            C::FILE
        );

        let (mut substituted, mut damaged) = (0, 0);
        for line in lines {
            let fields: Vec<&[u8]> = line.split(|&b| b == b',').collect();
            for column in 0..fields.len() {
                for field in FIELDS {
                    let mut fields = fields.clone();
                    fields[column] = field.as_bytes();
                    let line = fields.join(&b","[..]);
                    substituted += usize::from(holds_to_parse(&mut recogniser, &mut parser, &line));
                }
            }
            for _ in 0..40 {
                let mut line = line.to_vec();
                for _ in 0..=below(rng, 3) {
                    mutate_line(&mut line, rng);
                }
                damaged += usize::from(holds_to_parse(&mut recogniser, &mut parser, &line));
            }
        }
        // The damage must land on both sides of the recogniser.
        assert!(
            substituted > 0 && damaged > 0,
            "{}: nothing recognised",
            C::FILE
        );
    }

    #[test]
    fn recognisers_take_every_rendered_line_and_nothing_parse_refuses() {
        let t = seeded_trace(120);
        let rng = &mut StdRng::seed_from_u64(0x5EED);
        recogniser_agrees_with_parse::<MachineCodec>(&t.machine_events, rng);
        recogniser_agrees_with_parse::<CollectionCodec>(&t.collection_events, rng);
        recogniser_agrees_with_parse::<InstanceCodec>(&t.instance_events, rng);
        recogniser_agrees_with_parse::<UsageCodec>(&t.usage, rng);
    }

    #[test]
    fn recognisers_decline_what_render_does_not_write() {
        /// Whether the table's recogniser takes the line, and whether
        /// `parse` does.
        fn verdicts(file: &str, line: &str) -> (bool, bool) {
            let bytes = line.as_bytes();
            match file {
                FILE_MACHINE => (
                    MachineCodec.recognise(bytes).is_some(),
                    MachineCodec.parse(line, 2).is_ok(),
                ),
                FILE_COLLECTION => (
                    CollectionCodec.recognise(bytes).is_some(),
                    CollectionCodec.parse(line, 2).is_ok(),
                ),
                FILE_INSTANCE => (
                    InstanceCodec::default().recognise(bytes).is_some(),
                    InstanceCodec::default().parse(line, 2).is_ok(),
                ),
                _ => (
                    UsageCodec::default().recognise(bytes).is_some(),
                    UsageCodec::default().parse(line, 2).is_ok(),
                ),
            }
        }
        let usage = format!("1,2,3,4,5{}", ",0.5".repeat(27));
        let valid = [
            (FILE_MACHINE, "1,2,add,0.5,0.25,3"),
            (FILE_COLLECTION, "1,2,submit,job,200,default,off,3,4,5"),
            (FILE_INSTANCE, "1,2,3,submit,4,0.5,0.25,200,5,6"),
            (FILE_USAGE, usage.as_str()),
        ];
        for (file, line) in valid {
            assert_eq!(verdicts(file, line), (true, true), "{file}");
            // Extra trailing fields: `parse` ignores them, `render` does
            // not write them.
            for extra in [",", ",7", ",,"] {
                let line = format!("{line}{extra}");
                assert_eq!(verdicts(file, &line), (false, true), "{file}: {line}");
            }
            // A line that stops one field short, with or without the comma.
            let short = &line[..line.rfind(',').unwrap()];
            assert_eq!(verdicts(file, short), (false, false), "{file}: {short}");
            // `4294967296` in every column: too wide for the narrow ones,
            // and then `parse` refuses it too.
            let fields: Vec<&str> = line.split(',').collect();
            for column in 0..fields.len() {
                let mut fields = fields.clone();
                fields[column] = "4294967296";
                let (recognised, parsed) = verdicts(file, &fields.join(","));
                assert_eq!(recognised, parsed, "{file}: column {column}");
            }
            // A sign in the first integer column: `+1` is `parse`'s alone.
            for (field, parsed) in [("-0", false), ("-1", false), ("+1", true)] {
                let line = format!("{field}{}", &line[1..]);
                assert_eq!(verdicts(file, &line), (false, parsed), "{file}: {line}");
            }
        }
        // Nine fields ending in a comma: the end of the line is not a
        // second comma.
        let nine = "1,2,3,submit,4,0.5,0.25,200,";
        assert_eq!(verdicts(FILE_INSTANCE, nine), (false, false));
        // A half-specified alloc pair, either half.
        for line in [
            "1,2,3,submit,4,0.5,0.25,200,5,",
            "1,2,3,submit,4,0.5,0.25,200,,6",
        ] {
            assert_eq!(verdicts(FILE_INSTANCE, line), (false, false), "{line}");
        }
        // `,-0` and `,-1` inside a line, where the comma search sees `,-`.
        for line in [
            "1,-0,3,submit,4,0.5,0.25,200,5,6",
            "1,2,3,submit,-1,0.5,0.25,200,5,6",
        ] {
            assert_eq!(verdicts(FILE_INSTANCE, line), (false, false), "{line}");
        }
        // A float column takes them.
        assert_eq!(
            verdicts(FILE_INSTANCE, "1,2,3,submit,4,-0,-1,200,5,6"),
            (true, true)
        );
    }
}
