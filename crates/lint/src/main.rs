//! CLI for `borg-lint`; see `--help`. Exit codes: 0 clean, 1 findings,
//! 2 usage or I/O error, 3 clean findings but rotted suppressions or
//! baseline entries (delete them).

use std::path::PathBuf;
use std::process::ExitCode;

use borg_lint::{json, lint_workspace, render_baseline, Allowlist, RuleId};

const USAGE: &str = "\
borg-lint: workspace determinism & soundness lint (see DESIGN.md §10)

usage: borg-lint [options]
  --root DIR             workspace root to scan (default: .)
  --baseline FILE        suppress diagnostics listed in FILE
                         (also read from $LINT_BASELINE when unset)
  --write-baseline FILE  write current diagnostics to FILE and exit 0
  --format text|json     findings format on stdout (default: text)
  --json FILE            also write the JSON report to FILE
  --list-rules           print the rule catalogue and exit
  -q, --quiet            print only the summary line

exit codes: 0 clean · 1 findings · 2 usage/IO error · 3 clean but
unused suppressions or baseline entries remain
";

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut baseline: Option<PathBuf> = None;
    let mut write_baseline: Option<PathBuf> = None;
    let mut json_file: Option<PathBuf> = None;
    let mut format = String::from("text");
    let mut quiet = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(v) => root = PathBuf::from(v),
                None => return usage_error("--root needs a value"),
            },
            "--baseline" => match args.next() {
                Some(v) => baseline = Some(PathBuf::from(v)),
                None => return usage_error("--baseline needs a value"),
            },
            "--write-baseline" => match args.next() {
                Some(v) => write_baseline = Some(PathBuf::from(v)),
                None => return usage_error("--write-baseline needs a value"),
            },
            "--format" => match args.next().as_deref() {
                Some("text") => format = "text".into(),
                Some("json") => format = "json".into(),
                Some(other) => {
                    return usage_error(&format!("--format must be text or json, got `{other}`"))
                }
                None => return usage_error("--format needs a value"),
            },
            "--json" => match args.next() {
                Some(v) => json_file = Some(PathBuf::from(v)),
                None => return usage_error("--json needs a value"),
            },
            "--list-rules" => {
                for r in RuleId::ALL {
                    println!("{} {}: {}", r.id(), r.slug(), r.describe());
                }
                return ExitCode::SUCCESS;
            }
            "-q" | "--quiet" => quiet = true,
            "-h" | "--help" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => return usage_error(&format!("unknown argument `{other}`")),
        }
    }

    if baseline.is_none() {
        if let Ok(env) = std::env::var("LINT_BASELINE") {
            if !env.is_empty() {
                baseline = Some(PathBuf::from(env));
            }
        }
    }
    let allow = match &baseline {
        None => Allowlist::empty(),
        Some(path) => {
            let text = match std::fs::read_to_string(path) {
                Ok(t) => t,
                Err(e) => return io_error(&format!("reading {}: {e}", path.display())),
            };
            match Allowlist::parse(&text) {
                Ok(a) => a,
                Err(e) => return io_error(&e),
            }
        }
    };

    let report = match lint_workspace(&root, &allow) {
        Ok(r) => r,
        Err(e) => return io_error(&format!("scanning {}: {e}", root.display())),
    };

    if let Some(path) = write_baseline {
        if let Err(e) = std::fs::write(&path, render_baseline(&report.diags)) {
            return io_error(&format!("writing {}: {e}", path.display()));
        }
        println!(
            "borg-lint: wrote {} entries to {}",
            report.diags.len(),
            path.display()
        );
        return ExitCode::SUCCESS;
    }

    if let Some(path) = &json_file {
        if let Err(e) = std::fs::write(path, json::render_report(&report)) {
            return io_error(&format!("writing {}: {e}", path.display()));
        }
    }
    if format == "json" {
        print!("{}", json::render_report(&report));
        return if report.diags.is_empty() {
            if report.unused.is_empty() && report.unused_baseline.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(3)
            }
        } else {
            ExitCode::FAILURE
        };
    }

    if !quiet {
        for d in &report.diags {
            println!("{}", d.render());
        }
        for u in &report.unused {
            println!("warning: {}", u.render());
        }
        for e in &report.unused_baseline {
            println!("warning: unused baseline entry `{e}` (no finding matches; delete it)");
        }
    }
    let n = report.diags.len();
    let rotted = report.unused.len() + report.unused_baseline.len();
    if n > 0 {
        println!(
            "borg-lint: {n} diagnostic{} (suppress at the site with `// lint: <rule>-ok \
             (reason)` or run with --write-baseline)",
            if n == 1 { "" } else { "s" }
        );
        ExitCode::FAILURE
    } else if rotted > 0 {
        println!(
            "borg-lint: clean, but {rotted} rotted suppression{}/baseline entr{} remain — \
             delete them",
            if rotted == 1 { "" } else { "s" },
            if rotted == 1 { "y" } else { "ies" }
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

fn io_error(msg: &str) -> ExitCode {
    eprintln!("borg-lint: {msg}");
    ExitCode::from(2)
}
