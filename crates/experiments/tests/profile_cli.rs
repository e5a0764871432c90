//! The `profile` binary, run for real: a small cell-day prints its four
//! sections, with the engine-plane counters no other tool prints; a bad
//! command line is refused before any simulation runs, with exit code 2
//! and one line on stderr naming the reason, never a panic.

use std::process::Command;

#[test]
fn small_run_prints_the_four_sections() {
    let out = Command::new(env!("CARGO_BIN_EXE_profile"))
        .args(["--machines", "16", "--seed", "1"])
        .output()
        .expect("the profile binary runs");
    assert!(out.status.success(), "profile: {:?}", out.status);
    let report = String::from_utf8(out.stdout).expect("report text is UTF-8");
    for header in [
        "event-loop breakdown by event kind",
        "phase spans:",
        "scheduler index (engine plane):",
        "query-engine operator stats (sample: instance events at priority >= 120",
        "query-engine operator stats (sample: instance events ⋈ collection submits",
    ] {
        assert!(report.contains(header), "no {header:?}:\n{report}");
    }
    let row = |prefix: &str, suffix: &str| {
        report.lines().map(str::trim_start).any(|l| {
            l.split_whitespace()
                .next()
                .is_some_and(|name| name.starts_with(prefix) && name.ends_with(suffix))
        })
    };
    assert!(row("sim.index.", ""), "no sim.index.* row:\n{report}");
    assert!(
        row("query.op.group_by.", "_blocks"),
        "no query.op.group_by.*_blocks row:\n{report}"
    );
    assert!(
        row("query.op.join.", "_builds"),
        "no query.op.join.*_builds row:\n{report}"
    );
    // The first sample's filter drops rows: fewer out than in.
    let counter = |name: &str| -> u64 {
        report
            .lines()
            .find_map(|l| {
                let mut words = l.split_whitespace();
                if words.next() != Some(name) {
                    return None;
                }
                words.next()?.parse().ok()
            })
            .unwrap_or_else(|| panic!("no {name} row:\n{report}"))
    };
    let (rows_in, rows_out) = (
        counter("query.op.filter.rows_in"),
        counter("query.op.filter.rows_out"),
    );
    assert!(
        rows_out < rows_in,
        "filter kept {rows_out} of {rows_in} rows"
    );
}

#[test]
fn bad_command_lines_exit_2_with_one_line() {
    for (args, needle) in [
        (&["--bogus"][..], "unknown argument \"--bogus\""),
        (&["--seed"], "--seed needs an integer"),
        (&["--seed", "x"], "--seed needs an integer"),
        (&["--machines", "0"], "--machines needs a positive integer"),
        (&["--shards", "0"], "unknown argument \"--shards\""),
        (&["--trace-out", "x"], "unknown argument \"--trace-out\""),
        (&["--serve"], "unknown argument \"--serve\""),
        (&["--full"], "unknown argument \"--full\""),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_profile"))
            .args(args)
            .output()
            .expect("the profile binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
        assert!(stderr.contains(needle), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} ran anyway");
    }
}
