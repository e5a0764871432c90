//! The `profile` binary on bad command lines: each is refused before any
//! simulation runs, with exit code 2 and one line on stderr naming the
//! reason, never a panic.

use std::process::Command;

#[test]
fn bad_command_lines_exit_2_with_one_line() {
    for (args, needle) in [
        (&["--bogus"][..], "unknown argument \"--bogus\""),
        (&["--seed"], "--seed needs an integer"),
        (&["--seed", "x"], "--seed needs an integer"),
        (&["--machines", "0"], "--machines needs a positive integer"),
        (&["--shards", "0"], "unknown argument \"--shards\""),
        (&["--trace-out"], "--trace-out needs a path"),
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
