//! The `borg-lint` binary as `scripts/check.sh` drives it: the summary
//! line whose `ms` figure the lint budget reads, the usage error every
//! unknown flag gets, and exit code 3 for a rotted site marker.

use std::path::Path;
use std::process::{Command, Output};

fn borg_lint(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_borg-lint"))
        .args(args)
        .output()
        .expect("run borg-lint")
}

#[test]
fn clean_workspace_ends_with_the_line_check_sh_parses() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let out = borg_lint(&["--root", root.to_str().expect("utf-8 root")]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "stdout:\n{stdout}");
    let last = stdout.lines().last().unwrap_or_default();
    // check.sh: `sed -n 's/^borg-lint: clean (.*, \([0-9.]*\) ms)$/\1/p'`.
    let inner = last
        .strip_prefix("borg-lint: clean (")
        .and_then(|r| r.strip_suffix(" ms)"))
        .unwrap_or_else(|| panic!("summary line changed shape: `{last}`"));
    let (files, ms) = inner
        .split_once(" files, ")
        .unwrap_or_else(|| panic!("summary line changed shape: `{last}`"));
    assert!(files.parse::<usize>().expect("file count") > 0, "{last}");
    assert!(ms.parse::<f64>().expect("total ms") >= 0.0, "{last}");
}

#[test]
fn removed_flags_are_usage_errors() {
    for args in [
        &["--baseline", "f"][..],
        &["--write-baseline", "f"],
        &["--format", "json"],
        &["--json", "f"],
        &["-q"],
    ] {
        let out = borg_lint(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed to stdout");
        assert_eq!(
            stderr.matches("unknown argument").count(),
            1,
            "{args:?}: {stderr}"
        );
        assert!(
            stderr.starts_with(&format!("borg-lint: unknown argument `{}`", args[0])),
            "{args:?}: {stderr}"
        );
    }
}

#[test]
fn rotted_site_marker_exits_3() {
    let root = std::env::temp_dir().join(format!("borg_lint_cli_{}", std::process::id()));
    let src = root.join("crates/sim/src");
    std::fs::create_dir_all(&src).expect("mkdir");
    std::fs::write(
        src.join("x.rs"),
        "pub fn f(xs: &[u64]) -> u64 {\n    \
         // lint: S2-ok (nothing here panics anymore)\n    \
         xs.first().copied().unwrap_or(0)\n}\n",
    )
    .expect("write x.rs");
    let out = borg_lint(&["--root", root.to_str().expect("utf-8 root")]);
    std::fs::remove_dir_all(&root).expect("clean up");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(3), "stdout:\n{stdout}");
    assert!(
        stdout.contains("crates/sim/src/x.rs:2: unused suppression"),
        "{stdout}"
    );
}
