//! Differential suite: the library's CSV, repair and validate kernels
//! against the implementations they replaced (kept in `reference/`).
//!
//! Inputs are simulated Tiny cells (2019 and 2011 profiles, machine
//! faults on and off) and what `CorruptionConfig::lossy()` / `harsh()`
//! make of them for several seeds. Asserted equal: every byte written,
//! every row and every `Quarantine` entry read back, the repaired trace
//! and its `RepairReport`, and `validate`'s violations in order. Each
//! table is also rewritten with every kind of line end, a long line and
//! broken byte sequences inside an otherwise clean directory, and a
//! directory with rejected lines in every table past the detail cap
//! holds the merge of the tables' quarantines to one sequential read.

mod reference;

use borg_sim::{
    corrupt_trace, write_trace_dir_lossy, CellSim, CorruptionConfig, FaultConfig, SimConfig,
};
use borg_trace::collection::CollectionId;
use borg_trace::csv::{
    self, read_trace_dir_lenient, write_trace_dir, Quarantine, FILE_COLLECTION, FILE_INSTANCE,
    FILE_MACHINE, FILE_METADATA, FILE_USAGE, QUARANTINE_DETAIL_CAP,
};
use borg_trace::instance::{InstanceEvent, InstanceId};
use borg_trace::repair::{repair, RepairReport};
use borg_trace::trace::Trace;
use borg_trace::validate::{validate, Violation, MAX_VIOLATIONS};
use borg_workload::cells::CellProfile;
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
        std::fs::remove_dir_all(&dir).ok();
    }
    let mut quarantined = 0;
    for_each_damaged_dir(|what, dir| {
        let (ours, q) = read_trace_dir_lenient(dir);
        let (theirs, rq) = reference::read_trace_dir_lenient(dir);
        assert_traces_equal(&ours, &theirs, what);
        assert_quarantines_equal(&q, &rq, what);
        quarantined += q.total_lines();
    });
    assert!(quarantined > 0, "the harsh profile garbles lines");
}

/// A directory without `metadata.csv` whose every table has rejected
/// lines, more than `QUARANTINE_DETAIL_CAP` in all with the cap falling
/// inside the instance table, and two tables ending in broken bytes. The
/// library reads the tables on two threads and merges their quarantines;
/// the reference reads one file after another. Rows, details, counts and
/// table errors must come out the same, in the same order.
#[test]
fn lenient_readers_quarantine_the_same_across_tables() {
    let (cell, t) = &cells()[0];
    let dir = scratch("merge");
    write_trace_dir(t, &dir).unwrap();
    std::fs::remove_file(dir.join(FILE_METADATA)).unwrap();
    // Per table: rejected lines, and whether the table ends in bytes
    // that are not UTF-8.
    let damage = [
        (FILE_MACHINE, 40, true),
        (FILE_COLLECTION, 70, false),
        (FILE_INSTANCE, 300, false),
        (FILE_USAGE, 30, true),
    ];
    for (file, bad, broken_end) in damage {
        let path = dir.join(file);
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        let mut bytes = Vec::new();
        let mut next = 0;
        for (i, line) in lines.iter().enumerate() {
            // The bad lines spread evenly after the header.
            while next < bad && next * (lines.len() - 1) / bad < i {
                bytes.extend_from_slice(format!("{next},x,garbled\n").as_bytes());
                next += 1;
            }
            bytes.extend_from_slice(line.as_bytes());
            bytes.push(b'\n');
        }
        if broken_end {
            bytes.extend_from_slice(b"1,2,\xE2\x82,3\n");
        }
        std::fs::write(&path, bytes).unwrap();
    }
    let (ours, q) = read_trace_dir_lenient(&dir);
    let (theirs, rq) = reference::read_trace_dir_lenient(&dir);
    assert_traces_equal(&ours, &theirs, cell);
    assert_quarantines_equal(&q, &rq, cell);
    for (file, bad, _) in damage {
        assert_eq!(q.count_for(file), bad as u64, "{file}");
    }
    assert_eq!(q.lines.len(), QUARANTINE_DETAIL_CAP);
    assert_eq!(q.lines.last().unwrap().file, FILE_INSTANCE);
    let errors: Vec<&str> = q.table_errors.iter().map(|(f, _)| f.as_str()).collect();
    assert_eq!(errors, [FILE_METADATA, FILE_MACHINE, FILE_USAGE]);
    std::fs::remove_dir_all(&dir).ok();
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
        assert_eq!(ours, reference::validate(t), "{what}");
        violations += ours.len();
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

#[test]
fn validate_stops_at_the_cap_like_the_reference() {
    // A clean cell plus one orphan instance more than the cap holds.
    let mut t = cells()[0].1.clone();
    let event = t.instance_events[0];
    for id in 0..=MAX_VIOLATIONS as u64 {
        let instance_id = InstanceId::new(CollectionId(u64::MAX - id), 0);
        t.instance_events.push(InstanceEvent {
            instance_id,
            ..event
        });
    }
    let ours = validate(&t);
    assert_eq!(ours.len(), MAX_VIOLATIONS);
    assert_eq!(ours, reference::validate(&t));
}

#[test]
fn validate_stops_at_the_cap_across_the_walks_two_sides() {
    // 20 000 one-row instances of collection 1, the walk cut between
    // instances 9 999 and 10 000: three in five below the cut and all
    // above it begin with a `Schedule`, 16 000 violations in all. With a
    // collection's two violations first, the cap leaves room for 9 998:
    // the low side's 6 000 and the high side's first 3 998.
    let mut t = cells()[0].1.clone();
    t.instance_events.clear();
    t.usage.clear();
    let collection = t.collection_events[0];
    let event = |ty| borg_trace::CollectionEvent {
        event_type: ty,
        collection_id: CollectionId(u64::MAX),
        ..collection
    };
    use borg_trace::state::EventType::{Kill, Schedule, Submit};
    // A `Kill` before the `Submit`: illegal, and a termination before it.
    let at = |ty, secs| borg_trace::CollectionEvent {
        time: borg_trace::Micros::from_secs(secs),
        ..event(ty)
    };
    t.collection_events.extend([at(Submit, 5), at(Kill, 2)]);
    let cell = t.collection_events[0].collection_id;
    let row = InstanceEvent {
        instance_id: InstanceId::new(cell, 0),
        event_type: Submit,
        ..cells()[0].1.instance_events[0]
    };
    for index in (0..20_000).rev() {
        let illegal = index >= 10_000 || index % 5 < 3;
        t.instance_events.push(InstanceEvent {
            instance_id: InstanceId::new(cell, index),
            event_type: if illegal { Schedule } else { Submit },
            ..row
        });
    }
    let ours = validate(&t);
    assert_eq!(ours.len(), MAX_VIOLATIONS);
    assert_eq!(ours, reference::validate(&t));
    let index = |v: &Violation| match v {
        Violation::IllegalInstanceTransition { instance, .. } => Some(instance.index),
        _ => None,
    };
    let low = ours
        .iter()
        .filter(|v| index(v).is_some_and(|i| i < 10_000))
        .count();
    let high = ours
        .iter()
        .filter(|v| index(v).is_some_and(|i| i >= 10_000))
        .count();
    assert_eq!((low, high), (6_000, 3_998));
}

/// The bytes of a table as written (`valid`) with, in turn: `\r\n` line
/// ends, no final newline, blank lines, a line longer than the reader's
/// buffer, a multi-byte character and an invalid byte sequence in the
/// middle, only the header, and nothing.
fn line_variants(valid: &[u8]) -> Vec<(&'static str, Vec<u8>)> {
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
    vec![
        ("crlf", text.replace('\n', "\r\n").into_bytes()),
        ("no final newline", valid[..valid.len() - 1].to_vec()),
        ("blank lines", with_line(middle, b"\r\n")),
        ("long line", with_line(middle, long.as_bytes())),
        ("multi-byte", with_line(middle, "1,2,\u{20ac}3".as_bytes())),
        ("invalid bytes", with_line(middle, b"1,2,\xE2\x82,3")),
        ("header only", format!("{}\n", lines[0]).into_bytes()),
        ("empty", Vec::new()),
    ]
}

/// Each table of a clean directory replaced, in turn, by each of its
/// [`line_variants`]: the directory reads the same rows and `Quarantine`
/// as the reference has them. Only the two broken lines are quarantined,
/// the invalid bytes ending their table.
#[test]
fn lenient_readers_read_the_same_line_variants() {
    let (cell, t) = &cells()[0];
    let dir = scratch("variants");
    write_trace_dir(t, &dir).unwrap();
    // Three buffers' worth of each table is as good as the whole of it.
    let tables = [FILE_MACHINE, FILE_COLLECTION, FILE_INSTANCE, FILE_USAGE];
    for file in tables {
        let path = dir.join(file);
        let mut written = std::fs::read(&path).unwrap();
        if written.len() > 3 * 64 * 1024 {
            written.truncate(3 * 64 * 1024);
            while written.pop().is_some_and(|b| b != b'\n') {}
            written.push(b'\n');
            std::fs::write(&path, &written).unwrap();
        }
    }
    for file in tables {
        let path = dir.join(file);
        let written = std::fs::read(&path).unwrap();
        if file == FILE_INSTANCE {
            assert!(
                written.len() > 2 * 64 * 1024,
                "several buffers of instances"
            );
        }
        for (variant, bytes) in line_variants(&written) {
            let what = format!("{cell}/{file}/{variant}");
            std::fs::write(&path, bytes).unwrap();
            let (ours, q) = read_trace_dir_lenient(&dir);
            let (theirs, rq) = reference::read_trace_dir_lenient(&dir);
            assert_traces_equal(&ours, &theirs, &what);
            assert_quarantines_equal(&q, &rq, &what);
            let (lines, table_errors) = match variant {
                "multi-byte" => (1, 0),
                "invalid bytes" => (0, 1),
                _ => (0, 0),
            };
            assert_eq!(q.total_lines(), lines, "{what}: {}", q.summary());
            assert_eq!(q.table_errors.len(), table_errors, "{what}");
        }
        std::fs::write(&path, &written).unwrap();
    }
    std::fs::remove_dir_all(&dir).ok();
}
