//! CLI for `borg-lint`; see `--help`. Exit codes: 0 clean, 1 findings,
//! 2 usage or I/O error, 3 no findings but rotted site markers (delete
//! them).

use std::path::PathBuf;
use std::process::ExitCode;

use borg_lint::{lint_workspace, RuleId};

const USAGE: &str = "\
borg-lint: workspace determinism & soundness lint (see DESIGN.md §10)

usage: borg-lint [options]
  --root DIR      workspace root to scan (default: .)
  --list-rules    print the rule catalogue and exit
  -h, --help      this text

Suppress a finding at its site: `// lint: <rule>-ok (reason)`.

exit codes: 0 clean · 1 findings · 2 usage/IO error · 3 no findings,
but rotted site markers remain
";

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(v) => root = PathBuf::from(v),
                None => return usage_error("--root needs a value"),
            },
            "--list-rules" => {
                for r in RuleId::ALL {
                    println!("{} {}: {}", r.id(), r.slug(), r.describe());
                }
                return ExitCode::SUCCESS;
            }
            "-h" | "--help" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => return usage_error(&format!("unknown argument `{other}`")),
        }
    }

    let report = match lint_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("borg-lint: scanning {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };

    for d in &report.diags {
        println!("{}", d.render());
    }
    for u in &report.unused {
        println!("warning: {}", u.render());
    }
    let n = report.diags.len();
    let rotted = report.unused.len();
    if n > 0 {
        println!(
            "borg-lint: {n} diagnostic{} (fix, or suppress at the site with \
             `// lint: <rule>-ok (reason)`)",
            if n == 1 { "" } else { "s" }
        );
        ExitCode::FAILURE
    } else if rotted > 0 {
        println!(
            "borg-lint: clean, but {rotted} rotted suppression{} remain{} — delete them",
            if rotted == 1 { "" } else { "s" },
            if rotted == 1 { "s" } else { "" }
        );
        ExitCode::from(3)
    } else {
        println!(
            "borg-lint: clean ({} files, {:.1} ms)",
            report.n_files, report.total_ms
        );
        ExitCode::SUCCESS
    }
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("borg-lint: {msg}\n{USAGE}");
    ExitCode::from(2)
}
