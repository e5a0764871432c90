//! The `serve` binary, run for real: its stdout is a function of the
//! command line alone, and still shows the overload digests and the
//! incident's prod budget that EXPERIMENTS.md records.

use std::process::Command;

fn serve_tiny() -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_serve"))
        .args(["--scale", "tiny", "--seed", "2019"])
        .output()
        .expect("the serve binary runs");
    assert!(out.status.success(), "serve: {:?}", out.status);
    String::from_utf8(out.stdout).expect("report text is UTF-8")
}

#[test]
fn tiny_report_is_reproducible_and_matches_experiments_md() {
    let report = serve_tiny();
    assert_eq!(report, serve_tiny(), "two runs printed different reports");
    for digest in ["60eb1453afe02ffa", "f18efd0ae552ac57", "22930fe85dda1bbe"] {
        assert!(
            report.contains(&format!("digest {digest}")),
            "overload digest {digest} missing:\n{report}"
        );
    }
    let prod_budget = report
        .lines()
        .find(|l| l.trim_start().starts_with("prod") && l.contains("150ms"))
        .unwrap_or_else(|| panic!("no prod budget row:\n{report}"));
    let fields: Vec<&str> = prod_budget.split_whitespace().collect();
    assert_eq!(
        fields[3..5],
        ["236", "1"],
        "prod total / bad: {prod_budget}"
    );
}
