//! Seeded byte-level fuzzing of the lenient CSV reader and the repair
//! pipeline behind it (ROADMAP: "fuzz the lenient CSV reader").
//!
//! Each round takes the four valid tables of a small simulated trace,
//! damages some of them (bit flips, deleted and duplicated spans, a cut
//! in the middle of a line, stray `\r`, NUL and invalid UTF-8 bytes,
//! numeric fields replaced by overlong digits, `+1`, `1e3`, `nan`, ...),
//! and checks that
//!
//! * `read_trace_dir_lenient` never panics and agrees with the reference
//!   reader (`lines()` + `split(',')`) row for row, rejected line for
//!   rejected line, table error for table error;
//! * `repair` agrees with the reference repair on whatever was ingested;
//! * `validate` after `repair` is clean, except for the two things repair
//!   does not claim to mend: a usage magnitude the mutation inflated past
//!   the machine's capacity, and a NaN in a CPU histogram (no order of
//!   the buckets makes `NaN <= x` true).
//!
//! A failure prints the round; rounds are a pure function of `SEED`.

mod reference;

use borg_sim::{CellSim, SimConfig};
use borg_trace::csv::{
    self, read_trace_dir_lenient, FILE_COLLECTION, FILE_INSTANCE, FILE_MACHINE, FILE_METADATA,
    FILE_USAGE,
};
use borg_trace::repair::repair;
use borg_trace::trace::Trace;
use borg_trace::validate::{validate, Violation};
use borg_workload::cells::CellProfile;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

const SEED: u64 = 0x5EED_C5F0;
const ROUNDS: usize = 500;
/// Rows kept per table, so a round is cheap and a mutation usually lands
/// somewhere that matters.
const ROWS: usize = 120;

const TABLES: [&str; 4] = [FILE_MACHINE, FILE_COLLECTION, FILE_INSTANCE, FILE_USAGE];

/// Replacement fields: the edges of what `u64::from_str` and
/// `f64::from_str` accept, and a little beyond.
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

/// The valid tables every round starts from, in `TABLES` order, plus the
/// metadata file.
fn valid_tables() -> (Vec<Vec<u8>>, Vec<u8>) {
    let profile = CellProfile::cell_2019('a');
    let mut t = CellSim::run_cell(&profile, &SimConfig::tiny_for_tests(3)).trace;
    // The busiest machines and their tenants, so the tables still refer
    // to each other after the cut.
    t.instance_events.truncate(ROWS * 3);
    t.usage.truncate(ROWS);
    t.collection_events.truncate(ROWS);
    t.machine_events.truncate(ROWS);
    let mut tables = vec![Vec::new(); 4];
    csv::write_machine_events(&mut tables[0], &t.machine_events).unwrap();
    csv::write_collection_events(&mut tables[1], &t.collection_events).unwrap();
    csv::write_instance_events(&mut tables[2], &t.instance_events).unwrap();
    csv::write_usage(&mut tables[3], &t.usage).unwrap();
    let meta = format!(
        "cell_name,schema,horizon\n{},v3-2019,{}\n",
        t.cell_name, t.horizon.0
    );
    (tables, meta.into_bytes())
}

/// Start and end of the line containing `at`, newline excluded.
fn line_span(bytes: &[u8], at: usize) -> (usize, usize) {
    let start = bytes[..at]
        .iter()
        .rposition(|&b| b == b'\n')
        .map_or(0, |p| p + 1);
    let end = bytes[at..]
        .iter()
        .position(|&b| b == b'\n')
        .map_or(bytes.len(), |p| at + p);
    (start, end)
}

/// Uniform in `0..n` (`n > 0`).
fn below(rng: &mut StdRng, n: usize) -> usize {
    (rng.random::<u64>() % n as u64) as usize
}

/// One random edit of `bytes`.
fn mutate(bytes: &mut Vec<u8>, rng: &mut StdRng) {
    if bytes.is_empty() {
        return;
    }
    let at = below(rng, bytes.len());
    match below(rng, 9) {
        0 => bytes[at] ^= 1 << below(rng, 8),
        1 => {
            let len = (1 + below(rng, 16)).min(bytes.len() - at);
            bytes.drain(at..at + len);
        }
        2 => {
            // Duplicate a whole line.
            let (start, end) = line_span(bytes, at);
            let mut line = bytes[start..end].to_vec();
            line.push(b'\n');
            bytes.splice(start..start, line);
        }
        3 => bytes.truncate(at),
        4 => bytes.insert(at, b'\r'),
        5 => bytes.insert(at, 0),
        6 => {
            let bad: &[u8] = [&[0xFF][..], &[0xC3], &[0xE2, 0x82], &[0xF0, 0x9F]][below(rng, 4)];
            bytes.splice(at..at, bad.iter().copied());
        }
        7 => bytes.insert(at, b','),
        _ => {
            // Replace the field under `at`.
            let (line_start, line_end) = line_span(bytes, at);
            let start = bytes[line_start..at]
                .iter()
                .rposition(|&b| b == b',')
                .map_or(line_start, |p| line_start + p + 1);
            let end = bytes[at..line_end]
                .iter()
                .position(|&b| b == b',')
                .map_or(line_end, |p| at + p);
            let field = FIELDS[below(rng, FIELDS.len())];
            bytes.splice(start..end, field.bytes());
        }
    }
}

fn assert_same(a: &Trace, b: &Trace, what: &str) {
    assert_eq!(
        (&a.cell_name, a.schema, a.horizon),
        (&b.cell_name, b.schema, b.horizon),
        "{what}: metadata"
    );
    assert_eq!(
        (
            a.machine_events.len(),
            a.collection_events.len(),
            a.instance_events.len(),
            a.usage.len()
        ),
        (
            b.machine_events.len(),
            b.collection_events.len(),
            b.instance_events.len(),
            b.usage.len()
        ),
        "{what}: row counts"
    );
    assert!(
        reference::render_tables(a) == reference::render_tables(b),
        "{what}: rows differ"
    );
}

#[test]
fn lenient_reader_and_repair_survive_mutated_tables() {
    let (tables, meta) = valid_tables();
    let dir = std::env::temp_dir().join(format!("borg_csv_fuzz_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut rng = StdRng::seed_from_u64(SEED);
    let (mut quarantined, mut table_errors, mut repaired_rows, mut fully_clean) = (0, 0, 0, 0);
    let mut over_capacity = 0;
    for round in 0..ROUNDS {
        let what = format!("round {round}");
        for (file, valid) in TABLES.iter().zip(&tables) {
            let mut bytes = valid.clone();
            if rng.random_bool(0.6) {
                for _ in 0..=below(&mut rng, 6) {
                    mutate(&mut bytes, &mut rng);
                }
            }
            std::fs::write(dir.join(file), bytes).unwrap();
        }
        let mut meta = meta.clone();
        if rng.random_bool(0.1) {
            mutate(&mut meta, &mut rng);
        }
        if rng.random_bool(0.05) {
            std::fs::remove_file(dir.join(TABLES[below(&mut rng, 4)])).unwrap();
        }
        // Not UTF-8 is a table error for the metadata file too.
        std::fs::write(dir.join(FILE_METADATA), meta).unwrap();

        let (mut ours, q) = read_trace_dir_lenient(&dir);
        let (mut theirs, rq) = reference::read_trace_dir_lenient(&dir);
        assert_same(&ours, &theirs, &what);
        assert_eq!(
            q.line_counts, rq.line_counts,
            "{what}: rejected-line counts"
        );
        assert_eq!(q.table_errors, rq.table_errors, "{what}: table errors");
        assert_eq!(
            format!("{:?}", q.lines),
            format!("{:?}", rq.lines),
            "{what}: rejected lines"
        );
        quarantined += q.total_lines();
        table_errors += q.table_errors.len();

        let report = repair(&mut ours);
        assert_eq!(
            report,
            reference::repair(&mut theirs),
            "{what}: repair report"
        );
        assert_same(&ours, &theirs, &format!("{what}: repaired"));
        repaired_rows += report.total_actions();

        let left = validate(&ours);
        assert_eq!(left, reference::validate(&ours), "{what}: violations");
        for v in &left {
            let excused = match v {
                Violation::MachineOverCapacity { .. } => true,
                Violation::NonMonotoneHistogram { instance } => ours.usage.iter().any(|u| {
                    u.instance_id == *instance && u.cpu_histogram.0.iter().any(|x| x.is_nan())
                }),
                _ => false,
            };
            assert!(excused, "{what}: repair left {v}");
        }
        fully_clean += usize::from(left.is_empty());
        over_capacity += left
            .iter()
            .filter(|v| matches!(v, Violation::MachineOverCapacity { .. }))
            .count();
    }
    std::fs::remove_dir_all(&dir).ok();
    // The mutations must reach every layer, and the excuses stay rare.
    assert!(
        quarantined > ROUNDS as u64,
        "only {quarantined} lines quarantined"
    );
    assert!(table_errors > 0, "no table error provoked");
    assert!(repaired_rows > 0, "nothing to repair");
    assert!(over_capacity > 0, "no window over capacity");
    assert!(
        fully_clean * 10 >= ROUNDS * 9,
        "only {fully_clean}/{ROUNDS} rounds validate clean"
    );
}
