//! The `summarize` binary, run for real on a trace directory: its report
//! of cell d (Tiny, seed 1) is pinned line for line, so a change to what
//! the trace's rows are counted as shows here as a moved line.

use borg_core::pipeline::{simulate_cell, SimScale};
use borg_trace::csv::write_trace_dir;
use borg_workload::cells::CellProfile;
use std::process::Command;

const PINNED: &str = "\
=== trace summary: cell d ===
schema: v3-2019   window: 2.0 days
data quality: pristine (no quarantine, no repairs)

fleet: 24 machines, 13 shapes, capacity 13.4 NCU / 10.9 NMU
collections: 644 (631 jobs, 13 alloc sets)
final states:
   (alive at end): 177
             fail: 30
           finish: 89
             kill: 348

instances: 4888, instance events: 27473
job submissions per hour (Figure 8): median 9.0
task submissions per hour (Figure 9): median 110.5 new, 180.0 all; 4838 new tasks, 9547 submissions (churn 0.9733)
transitions (Figure 7): 1928 collection, 27473 instance
median scheduling delay (Figure 10): free 0.30s, beb 0.36s, mid 0.32s, prod 0.82s
collections with an eviction (§5.2): 10 of 644 (0.0155)
tasks per job: median 1, p95 48, max 100
usage samples: 3542 (avg cpu 0.0137 NCU per sampled task-window)

validation: all §9 invariants hold
";

#[test]
fn summarize_prints_the_pinned_report_of_cell_d() {
    let dir = std::env::temp_dir().join(format!("summarize_cli_{}", std::process::id()));
    let outcome = simulate_cell(&CellProfile::cell_2019('d'), SimScale::Tiny, 1);
    write_trace_dir(&outcome.trace, &dir).expect("trace written");
    let out = Command::new(env!("CARGO_BIN_EXE_summarize"))
        .arg(&dir)
        .output()
        .expect("the summarize binary runs");
    std::fs::remove_dir_all(&dir).ok();
    assert!(out.status.success(), "summarize: {:?}", out.status);
    let stdout = String::from_utf8(out.stdout).expect("report text is UTF-8");
    for (got, want) in stdout.lines().zip(PINNED.lines()) {
        assert_eq!(got, want);
    }
    assert_eq!(stdout, PINNED);
}
