//! `trace_roundtrip`: a mid-size cell-day, simulated in set-up, written
//! clean and through the lossy writer, then read leniently, repaired and
//! validated from both directories. `borg-trace` does nearly all of the
//! work and the simulator none. Writes sit beside reads, and a repair
//! that does real work sits beside the no-op one, so a reader gain that
//! costs the writer, or a fast path that only helps pristine input, shows.

use super::{fleet_cfg, fleet_profile, remove_scratch, scratch_dir, trace_rows, FLEET_DAY_ROWS};
use crate::digest::trace_digest;
use crate::harness::Bench;
use borg_sim::{corrupt_trace, write_trace_dir_lossy, CellSim, CorruptionConfig};
use borg_trace::csv::{read_trace_dir_lenient, write_trace_dir};
use borg_trace::repair::repair;
use borg_trace::trace::Trace;
use borg_trace::validate::validate;
use std::path::PathBuf;

/// Passes after which a repair that still finds work counts as diverging.
const MAX_REPAIR_PASSES: u32 = 6;

/// What set-up leaves behind.
struct Fixture {
    clean: Trace,
    clean_digest: u64,
    csv_bytes: u64,
    clean_dir: PathBuf,
    lossy_dir: PathBuf,
}

pub fn run(b: &mut Bench) {
    let sizes = b.sizes();
    let seed = b.opts.seed;
    let profile = fleet_profile();
    let cfg = fleet_cfg(&profile, sizes.fleet_machines, sizes.cell_hours, seed);
    let lossy = CorruptionConfig::lossy();
    let mut repaired_reference: Option<u64> = None;

    b.run(
        |b| {
            let clean = CellSim::run_cell(&profile, &cfg).trace;
            let (clean_digest, csv_bytes) = trace_digest(&clean);
            Fixture {
                clean,
                clean_digest,
                csv_bytes,
                clean_dir: scratch_dir(b, "clean"),
                lossy_dir: scratch_dir(b, "lossy"),
            }
        },
        |b, fx| {
            b.input_rows(trace_rows(&fx.clean), FLEET_DAY_ROWS);
            b.measure(|b| {
                b.span("trace.write", |_| {
                    write_trace_dir(&fx.clean, &fx.clean_dir).expect("clean trace written")
                });
                b.span("trace.write_lossy", |_| {
                    let (damaged, mut ledger) = corrupt_trace(&fx.clean, &lossy, seed);
                    write_trace_dir_lossy(&damaged, &fx.lossy_dir, &lossy, seed, &mut ledger)
                        .expect("lossy trace written");
                });
            });
            b.set("trace.csv_bytes", fx.csv_bytes as f64);

            // Between read and repair (which re-sorts rows within a
            // timestamp) the clean trace must still render to the bytes it
            // was written as.
            let reread = read(b, &fx.clean_dir);
            b.check(
                "clean write -> read -> write is byte-identical",
                trace_digest(&reread).0 == fx.clean_digest,
            );
            repair_and_validate(b, reread, "trace.repair_clean");

            let damaged = read(b, &fx.lossy_dir);
            let mut repaired = repair_and_validate(b, damaged, "trace.repair_damaged");
            let digest = trace_digest(&repaired).0;
            match repaired_reference {
                None => {
                    // `repair` is not idempotent on this input (a second
                    // pass finds duplicates among the rows the first one
                    // made up), so the check is that it converges and
                    // stays valid.
                    let mut passes = 1;
                    while !repair(&mut repaired).is_noop() && passes < MAX_REPAIR_PASSES {
                        passes += 1;
                    }
                    let violations = validate(&repaired).len();
                    b.check(
                        &format!("repair converges: {passes} working pass(es), then {violations} violation(s)"),
                        passes < MAX_REPAIR_PASSES && violations == 0,
                    );
                    b.set("trace.repair_passes", f64::from(passes));
                    println!(
                        "trace_roundtrip: {} rows, {} CSV bytes, digest clean {:016x} repaired {digest:016x}",
                        trace_rows(&fx.clean),
                        fx.csv_bytes,
                        fx.clean_digest,
                    );
                    repaired_reference = Some(digest);
                }
                Some(want) => b.check("every iteration repairs to the same digest", digest == want),
            }
        },
    );
    remove_scratch(b);
}

/// Timed: `read_trace_dir_lenient` on one directory.
fn read(b: &mut Bench, dir: &std::path::Path) -> Trace {
    let (trace, quarantine) =
        b.measure(|b| b.span("trace.read_lenient", |_| read_trace_dir_lenient(dir)));
    b.add("trace.rows_read", trace_rows(&trace) as f64);
    b.add("trace.quarantined_lines", quarantine.total_lines() as f64);
    trace
}

/// Timed: `repair` + `validate`. The repair span is named by the caller so
/// the no-op and the working repair stay apart. Every violation left after
/// repair is a failed check.
fn repair_and_validate(b: &mut Bench, mut trace: Trace, repair_span: &'static str) -> Trace {
    let (report, violations) = b.measure(|b| {
        let report = b.span(repair_span, |_| repair(&mut trace));
        let violations = b.span("trace.validate", |_| validate(&trace).len());
        (report, violations)
    });
    b.add("trace.repair_actions", report.total_actions() as f64);
    b.add("trace.violations", violations as f64);
    b.check(
        &format!("{repair_span}: validate after repair finds {violations} violation(s)"),
        violations == 0,
    );
    trace
}
