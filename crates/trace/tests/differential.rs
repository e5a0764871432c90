//! Differential suite: the library's CSV, repair and validate kernels
//! against the implementations they replaced (kept in `reference/`).
//!
//! Inputs are simulated Tiny cells (2019 and 2011 profiles, machine
//! faults on and off) and what `CorruptionConfig::lossy()` / `harsh()`
//! make of them for several seeds. Asserted equal: every byte written,
//! every row and every `Quarantine` entry read back, the repaired trace
//! and its `RepairReport`, and `validate`'s violations in order. The
//! strict table readers are also fed the same bytes a few at a time, so
//! that every kind of line end, long line and broken byte sequence gets
//! torn by a refill of the reader's buffer.

mod reference;

use borg_sim::{
    corrupt_trace, write_trace_dir_lossy, CellSim, CorruptionConfig, FaultConfig, SimConfig,
};
use borg_trace::csv::{
    self, read_trace_dir, read_trace_dir_lenient, write_trace_dir, Quarantine, FILE_COLLECTION,
    FILE_INSTANCE, FILE_MACHINE, FILE_METADATA, FILE_USAGE,
};
use borg_trace::repair::{repair, RepairReport};
use borg_trace::trace::Trace;
use borg_trace::validate::{validate, validate_with, ValidateConfig};
use borg_workload::cells::CellProfile;
use std::io::{self, BufRead, Read};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

const FILES: [&str; 5] = [
    FILE_MACHINE,
    FILE_COLLECTION,
    FILE_INSTANCE,
    FILE_USAGE,
    FILE_METADATA,
];

const CORRUPTION_SEEDS: [u64; 3] = [1, 7, 2019];

/// Four Tiny cells: both eras, machine faults off and on (seed 6 fires
/// failures in the two-day window, see `tests/chaos_roundtrip.rs`).
fn cells() -> &'static [(String, Trace)] {
    static CELLS: OnceLock<Vec<(String, Trace)>> = OnceLock::new();
    CELLS.get_or_init(|| {
        let mut out = Vec::new();
        for profile in [CellProfile::cell_2019('a'), CellProfile::cell_2011()] {
            for (faults, seed) in [(false, 3), (true, 6)] {
                let cfg = SimConfig {
                    faults: faults.then(|| FaultConfig::from_model(&profile.failure_model)),
                    ..SimConfig::tiny_for_tests(seed)
                };
                let trace = CellSim::run_cell(&profile, &cfg).trace;
                assert!(trace.instance_events.len() > 1000, "cell is not trivial");
                out.push((format!("{}-faults-{faults}", profile.name), trace));
            }
        }
        out
    })
}

fn corruptions() -> [(&'static str, CorruptionConfig); 2] {
    [
        ("lossy", CorruptionConfig::lossy()),
        ("harsh", CorruptionConfig::harsh()),
    ]
}

/// A fresh scratch directory under the system temp dir (tests run on
/// parallel threads, so no two calls share one).
fn scratch(tag: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "borg_diff_{}_{}_{tag}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn assert_dirs_equal(a: &Path, b: &Path, what: &str) {
    for file in FILES {
        let left = std::fs::read(a.join(file)).expect("library wrote the file");
        let right = std::fs::read(b.join(file)).expect("reference wrote the file");
        assert!(left == right, "{what}: {file} differs");
    }
}

fn assert_traces_equal(a: &Trace, b: &Trace, what: &str) {
    assert_eq!(a.cell_name, b.cell_name, "{what}: cell name");
    assert_eq!(a.schema, b.schema, "{what}: schema");
    assert_eq!(a.horizon, b.horizon, "{what}: horizon");
    assert!(a.machine_events == b.machine_events, "{what}: machines");
    assert!(
        a.collection_events == b.collection_events,
        "{what}: collections"
    );
    assert!(a.instance_events == b.instance_events, "{what}: instances");
    assert!(a.usage == b.usage, "{what}: usage");
    assert!(
        reference::render_tables(a) == reference::render_tables(b),
        "{what}: rendered bytes"
    );
}

fn assert_quarantines_equal(a: &Quarantine, b: &Quarantine, what: &str) {
    assert_eq!(a.line_counts, b.line_counts, "{what}: counts");
    assert_eq!(a.table_errors, b.table_errors, "{what}: table errors");
    assert_eq!(
        format!("{:?}", a.lines),
        format!("{:?}", b.lines),
        "{what}: details"
    );
}

/// Every damaged directory the suite reads: each cell through each
/// corruption profile and seed, written by the library's lossy writer.
fn for_each_damaged_dir(mut f: impl FnMut(&str, &Path)) {
    for (cell, trace) in cells() {
        for (profile, cc) in corruptions() {
            for seed in CORRUPTION_SEEDS {
                let what = format!("{cell}/{profile}/{seed}");
                let dir = scratch(&format!("dmg_{cell}_{profile}_{seed}"));
                let (damaged, mut ledger) = corrupt_trace(trace, &cc, seed);
                write_trace_dir_lossy(&damaged, &dir, &cc, seed, &mut ledger).unwrap();
                f(&what, &dir);
                std::fs::remove_dir_all(&dir).ok();
            }
        }
    }
}

#[test]
fn table_writers_write_the_same_bytes() {
    for (cell, t) in cells() {
        let mut ours = Vec::new();
        csv::write_machine_events(&mut ours, &t.machine_events).unwrap();
        csv::write_collection_events(&mut ours, &t.collection_events).unwrap();
        csv::write_instance_events(&mut ours, &t.instance_events).unwrap();
        csv::write_usage(&mut ours, &t.usage).unwrap();
        assert!(
            ours == reference::render_tables(t),
            "{cell}: table bytes differ"
        );
    }
}

#[test]
fn directory_writers_write_the_same_files() {
    for (cell, t) in cells() {
        let ours = scratch(&format!("w_ours_{cell}"));
        let theirs = scratch(&format!("w_ref_{cell}"));
        write_trace_dir(t, &ours).unwrap();
        reference::write_trace_dir(t, &theirs).unwrap();
        assert_dirs_equal(&ours, &theirs, cell);
        for (profile, cc) in corruptions() {
            for seed in CORRUPTION_SEEDS {
                let what = format!("{cell}/{profile}/{seed}");
                let (damaged, ledger) = corrupt_trace(t, &cc, seed);
                let (mut ours_ledger, mut ref_ledger) = (ledger.clone(), ledger);
                write_trace_dir_lossy(&damaged, &ours, &cc, seed, &mut ours_ledger).unwrap();
                reference::write_trace_dir_lossy(&damaged, &theirs, &cc, seed, &mut ref_ledger)
                    .unwrap();
                assert_dirs_equal(&ours, &theirs, &what);
                assert_eq!(ours_ledger, ref_ledger, "{what}: ledger");
                assert_eq!(
                    ours_ledger.garbled() > 0,
                    cc.garble_fraction > 0.0,
                    "{what}: garbling happens exactly when asked for"
                );
            }
        }
        std::fs::remove_dir_all(&ours).ok();
        std::fs::remove_dir_all(&theirs).ok();
    }
}

#[test]
fn readers_ingest_the_same_rows_and_quarantine() {
    for (cell, t) in cells() {
        let dir = scratch(&format!("r_clean_{cell}"));
        write_trace_dir(t, &dir).unwrap();
        let (ours, q) = read_trace_dir_lenient(&dir);
        let (theirs, rq) = reference::read_trace_dir_lenient(&dir);
        assert_traces_equal(&ours, &theirs, cell);
        assert_traces_equal(&ours, t, &format!("{cell}: round trip"));
        assert_quarantines_equal(&q, &rq, cell);
        assert!(q.is_clean());
        let strict = read_trace_dir(&dir).expect("clean directory reads strictly");
        assert_traces_equal(&strict, t, &format!("{cell}: strict"));
        std::fs::remove_dir_all(&dir).ok();
    }
    let mut quarantined = 0;
    for_each_damaged_dir(|what, dir| {
        let (ours, q) = read_trace_dir_lenient(dir);
        let (theirs, rq) = reference::read_trace_dir_lenient(dir);
        assert_traces_equal(&ours, &theirs, what);
        assert_quarantines_equal(&q, &rq, what);
        quarantined += q.total_lines();
        // The strict reader stops where the reference's first rejected
        // line is, with the same message.
        let strict = read_trace_dir(dir).map(|_| ()).map_err(|e| e.to_string());
        let want = match rq.lines.first() {
            Some(l) => Err(format!("{}: {}", l.file, l.message)),
            None => Ok(()),
        };
        assert_eq!(strict, want, "{what}: strict reader");
    });
    assert!(quarantined > 0, "the harsh profile garbles lines");
}

#[test]
fn repair_makes_the_same_trace_and_report() {
    // Every kind of action, summed over the suite: all must occur.
    let mut seen = RepairReport::default();
    let mut check = |what: &str, ingested: Trace| {
        let (mut ours, mut theirs) = (ingested.clone(), ingested);
        // The second and third passes run on repaired input, where the
        // tables are (nearly) in output order already.
        for pass in 1..=3 {
            let report = repair(&mut ours);
            let ref_report = reference::repair(&mut theirs);
            assert_eq!(report, ref_report, "{what}: report of pass {pass}");
            assert_traces_equal(&ours, &theirs, &format!("{what}: pass {pass}"));
            seen.instance_events.deduped += report.instance_events.deduped;
            seen.instance_events.synthesized += report.instance_events.synthesized;
            seen.instance_events.dropped += report.instance_events.dropped;
            seen.usage.deduped += report.usage.deduped;
            seen.lost_inserted += report.lost_inserted;
            seen.submits_backfilled += report.submits_backfilled;
            seen.machines_backfilled += report.machines_backfilled;
        }
    };
    for (cell, t) in cells() {
        check(cell, t.clone());
    }
    for_each_damaged_dir(|what, dir| check(what, read_trace_dir_lenient(dir).0));
    for (kind, count) in [
        ("instance rows deduped", seen.instance_events.deduped),
        (
            "instance rows synthesized",
            seen.instance_events.synthesized,
        ),
        ("instance rows dropped", seen.instance_events.dropped),
        ("usage rows deduped", seen.usage.deduped),
        ("lost terminations inserted", seen.lost_inserted),
        ("collection submits back-filled", seen.submits_backfilled),
        ("machine adds back-filled", seen.machines_backfilled),
    ] {
        assert!(count > 0, "the damaged inputs never needed: {kind}");
    }
}

#[test]
fn validate_reports_the_same_violations_in_order() {
    let mut violations = 0;
    let mut check = |what: &str, t: &Trace| {
        let ours = validate(t);
        assert_eq!(ours, reference::validate(t), "{what}: default config");
        violations += ours.len();
        for max_violations in [1, 7, 100] {
            let cfg = ValidateConfig {
                capacity_tolerance: 0.5,
                max_violations,
            };
            assert_eq!(
                validate_with(t, &cfg),
                reference::validate_with(t, &cfg),
                "{what}: capped at {max_violations}"
            );
        }
    };
    for (cell, t) in cells() {
        check(cell, t);
    }
    for_each_damaged_dir(|what, dir| {
        let (mut t, _) = read_trace_dir_lenient(dir);
        check(what, &t);
        repair(&mut t);
        check(&format!("{what}: repaired"), &t);
        assert!(validate(&t).is_empty(), "{what}: repair leaves violations");
    });
    assert!(violations > 0, "the damaged inputs violate invariants");
}

/// A source that yields `bytes` at most `step` at a time, whichever way it
/// is read, and fails once `fail_at` bytes (if any) were taken.
struct Trickle<'a> {
    bytes: &'a [u8],
    step: usize,
    fail_at: Option<usize>,
    at: usize,
}

impl BufRead for Trickle<'_> {
    fn fill_buf(&mut self) -> io::Result<&[u8]> {
        if self.fail_at == Some(self.at) {
            return Err(io::Error::other("disk on fire"));
        }
        let end = (self.at + self.step)
            .min(self.fail_at.unwrap_or(usize::MAX))
            .min(self.bytes.len());
        Ok(&self.bytes[self.at..end])
    }

    fn consume(&mut self, amount: usize) {
        self.at += amount;
    }
}

impl Read for Trickle<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let chunk = self.fill_buf()?;
        let len = chunk.len().min(buf.len());
        buf[..len].copy_from_slice(&chunk[..len]);
        self.consume(len);
        Ok(len)
    }
}

/// Bytes per refill: every phase of a short byte sequence, and one byte
/// either side of the readers' own 64 KiB buffer.
const STEPS: [usize; 7] = [1, 2, 3, 7, 4095, 64 * 1024 - 1, 64 * 1024 + 1];

/// A strict table reader, of the library or of the reference.
type StrictReader<'a, T> = &'a dyn Fn(&mut dyn BufRead) -> Result<Vec<T>, csv::CsvError>;

/// What a strict reader made of a table, comparable.
fn outcome<T>(read: Result<Vec<T>, csv::CsvError>) -> Result<Vec<T>, String> {
    read.map_err(|e| e.to_string())
}

/// One table as written (`valid`), and the same bytes with, in turn:
/// `\r\n` line ends, no final newline, blank lines, a line longer than
/// the readers' buffer, a multi-byte character and an invalid byte
/// sequence in the middle, only the header, and nothing. Every variant is
/// read through [`Trickle`] at every step size and must come out as it
/// does from the slice, and as the reference reader has it; so must a
/// source that fails part of the way through.
fn assert_refill_proof<T: PartialEq + std::fmt::Debug>(
    what: &str,
    valid: &[u8],
    ours: StrictReader<T>,
    theirs: StrictReader<T>,
) {
    // Three buffers' worth is as good as the whole table, and one byte at
    // a time is slow.
    let cut = valid.len().min(3 * 64 * 1024);
    let valid = &valid[..cut
        - valid[..cut]
            .iter()
            .rev()
            .take_while(|&&b| b != b'\n')
            .count()];
    let text = std::str::from_utf8(valid).expect("tables are written as UTF-8");
    let lines: Vec<&str> = text.lines().collect();
    let middle = lines.len() / 2;
    let with_line = |at: usize, extra: &[u8]| {
        let mut bytes = lines[..at].join("\n").into_bytes();
        bytes.push(b'\n');
        bytes.extend_from_slice(extra);
        bytes.push(b'\n');
        bytes.extend_from_slice(lines[at..].join("\n").as_bytes());
        bytes
    };
    // A valid row whose first field has 70 000 leading zeros.
    let long = format!("{}{}", "0".repeat(70_000), lines[middle]);
    let variants: Vec<(&str, Vec<u8>)> = vec![
        ("as written", valid.to_vec()),
        ("crlf", text.replace('\n', "\r\n").into_bytes()),
        ("no final newline", valid[..valid.len() - 1].to_vec()),
        ("blank lines", with_line(middle, b"\r\n")),
        ("long line", with_line(middle, long.as_bytes())),
        ("multi-byte", with_line(middle, "1,2,\u{20ac}3".as_bytes())),
        ("invalid bytes", with_line(middle, b"1,2,\xE2\x82,3")),
        ("header only", format!("{}\n", lines[0]).into_bytes()),
        ("empty", Vec::new()),
    ];
    for (variant, bytes) in &variants {
        let want = outcome(ours(&mut &bytes[..]));
        assert_eq!(
            want,
            outcome(theirs(&mut &bytes[..])),
            "{what}/{variant}: reference"
        );
        assert_eq!(
            want.is_ok(),
            !matches!(*variant, "multi-byte" | "invalid bytes"),
            "{what}/{variant}: {:?}",
            want.as_ref().err()
        );
        for step in STEPS {
            let mut source = Trickle {
                bytes,
                step,
                fail_at: None,
                at: 0,
            };
            assert!(
                outcome(ours(&mut source)) == want,
                "{what}/{variant}: {step} bytes at a time"
            );
        }
    }
    for fail_at in [0, 1, valid.len() / 3, valid.len() - 1, valid.len()] {
        for step in STEPS {
            let source = |at| Trickle {
                bytes: valid,
                step,
                fail_at: Some(fail_at),
                at,
            };
            assert_eq!(
                outcome(ours(&mut source(0))),
                outcome(theirs(&mut source(0))),
                "{what}: failing after {fail_at} bytes, {step} at a time"
            );
        }
    }
}

#[test]
fn strict_readers_read_the_same_across_any_refill_boundary() {
    let (cell, t) = &cells()[0];
    let mut table = Vec::new();
    csv::write_machine_events(&mut table, &t.machine_events).unwrap();
    assert_refill_proof(
        &format!("{cell}/{FILE_MACHINE}"),
        &table,
        &|r| csv::read_machine_events(r),
        &|r| reference::read_machine_events(r),
    );
    table.clear();
    csv::write_collection_events(&mut table, &t.collection_events).unwrap();
    assert_refill_proof(
        &format!("{cell}/{FILE_COLLECTION}"),
        &table,
        &|r| csv::read_collection_events(r),
        &|r| reference::read_collection_events(r),
    );
    table.clear();
    csv::write_instance_events(&mut table, &t.instance_events).unwrap();
    assert!(table.len() > 2 * 64 * 1024, "several buffers of instances");
    assert_refill_proof(
        &format!("{cell}/{FILE_INSTANCE}"),
        &table,
        &|r| csv::read_instance_events(r),
        &|r| reference::read_instance_events(r),
    );
    table.clear();
    csv::write_usage(&mut table, &t.usage).unwrap();
    assert_refill_proof(
        &format!("{cell}/{FILE_USAGE}"),
        &table,
        &|r| csv::read_usage(r),
        &|r| reference::read_usage(r),
    );
}
