//! `borg-lint` — workspace determinism & soundness lint pass.
//!
//! An offline, dependency-free static-analysis tool enforcing the
//! project invariants that the bit-identity contracts (parallel ==
//! sequential query scans, indexed == naive placement) and the paper's
//! figure-reproducibility rest on. It lexes every `.rs` file in the
//! workspace with its own token-level lexer ([`lexer`]) and runs seven
//! named, individually-suppressable rules ([`rules`]) over each token
//! stream. DESIGN.md §10 has the rule catalogue.
//!
//! Scope, by construction:
//!
//! - **Deterministic crates** ([`DETERMINISTIC_CRATES`]) get the
//!   determinism rules (D1, D3), the library-panic rule (S2) and the
//!   metric rule (M1) on their library code.
//! - **Contract crates** ([`C3_CRATES`]) additionally get C3
//!   (order-sensitive reductions) on their library code: the crates
//!   whose output the golden digests, parallel == sequential and the
//!   serve log digests pin.
//! - D2 covers the library and binary code of every crate except the
//!   one *blessed* wall-clock helper (`crates/telemetry/src/clock.rs`).
//! - Tests, benches and examples are exempt from every rule: they may
//!   iterate maps and unwrap freely. `#[cfg(test)]` modules inside
//!   library files are recognised and skipped the same way.
//! - `unsafe` is rustc's job: `[workspace.lints.rust] unsafe_code =
//!   "deny"` rejects it in every build.
//! - `borg-lint` itself is not scanned — its sources quote the very
//!   patterns it hunts.

pub mod json;
pub mod lexer;
pub mod rules;

pub use rules::{Diagnostic, RuleId, UnusedSuppression};

use lexer::{lex, Tok, TokKind};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Crates whose outputs must be reproducible bit-for-bit run to run.
/// `telemetry` is included deliberately: its deterministic plane is part
/// of the byte-identity contracts, and its one wall-clock site
/// (`crates/telemetry/src/clock.rs`) is the D2 blessed helper rather
/// than an unscanned hole.
pub const DETERMINISTIC_CRATES: &[&str] = &[
    "sim",
    "workload",
    "query",
    "analysis",
    "core",
    "trace",
    "telemetry",
    "serve",
    "borg2019",
];

/// Crates whose library code C3 polices for order-sensitive reductions:
/// the simulator and its inputs (`sim`, `workload`, `trace`), which the
/// golden trace digests pin; the query engine, which parallel ==
/// sequential pins; and the service (`serve`, `telemetry`), which the
/// serve log digests pin. `analysis` and `core` are left out:
/// `golden_analyses.rs` pins their output bits directly, so a reduction
/// whose order changed there fails that test instead.
pub const C3_CRATES: &[&str] = &["sim", "workload", "trace", "query", "serve", "telemetry"];

/// Which cargo target kind a file belongs to; rules scope on this.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Target {
    Lib,
    Bin,
    Test,
    Bench,
    Example,
}

/// Lint-relevant classification of one workspace file.
#[derive(Debug, Clone)]
pub struct FileClass {
    /// Directory name under `crates/` (or `borg2019` for the root
    /// package).
    pub krate: String,
    pub target: Target,
    /// True for [`DETERMINISTIC_CRATES`].
    pub deterministic: bool,
}

/// Classifies a repo-relative, `/`-separated path. `None` means the
/// file is out of scope entirely (the linter itself, its fixtures,
/// build artifacts).
pub fn classify(rel: &str) -> Option<FileClass> {
    if !rel.ends_with(".rs") || rel.starts_with("target/") || rel.starts_with("crates/lint/") {
        return None;
    }
    let (krate, rest) = match rel.strip_prefix("crates/") {
        Some(r) => {
            let (k, rest) = r.split_once('/')?;
            (k.to_string(), rest)
        }
        None => ("borg2019".to_string(), rel),
    };
    let target = if rest.starts_with("src/bin/") || rest == "src/main.rs" {
        Target::Bin
    } else if rest.starts_with("src/") {
        Target::Lib
    } else if rest.starts_with("tests/") {
        Target::Test
    } else if rest.starts_with("benches/") {
        Target::Bench
    } else if rest.starts_with("examples/") {
        Target::Example
    } else {
        return None;
    };
    let deterministic = DETERMINISTIC_CRATES.contains(&krate.as_str());
    Some(FileClass {
        krate,
        target,
        deterministic,
    })
}

/// Accumulated wall time per rule/stage, in milliseconds, in first-seen
/// order. CI budgets the total; the per-entry split tells you which
/// rule to fix when the budget trips.
#[derive(Debug, Default)]
pub struct Timings {
    entries: Vec<(String, f64)>,
}

impl Timings {
    pub fn add(&mut self, key: &str, ms: f64) {
        match self.entries.iter_mut().find(|(k, _)| k == key) {
            Some(e) => e.1 += ms,
            None => self.entries.push((key.to_string(), ms)),
        }
    }

    pub fn entries(&self) -> &[(String, f64)] {
        &self.entries
    }
}

/// Everything one workspace lint run produced.
pub struct WorkspaceReport {
    /// Findings, baseline-filtered, sorted by (file, line, rule).
    pub diags: Vec<Diagnostic>,
    /// Site suppressions no finding consumed (and unknown markers).
    pub unused: Vec<UnusedSuppression>,
    /// Baseline entries no finding matched, in `path:line:RULE` form.
    pub unused_baseline: Vec<String>,
    pub timings: Timings,
    pub total_ms: f64,
    pub n_files: usize,
}

/// Lints a set of in-memory sources, one file at a time: lex → test
/// regions → rules. `files` holds `(rel_path, src)` pairs; out-of-scope
/// paths are skipped.
pub fn lint_sources(files: &[(String, String)], allow: &Allowlist) -> WorkspaceReport {
    let t_total = Instant::now();
    let mut timings = Timings::default();
    let mut diags: Vec<Diagnostic> = Vec::new();
    let mut unused: Vec<UnusedSuppression> = Vec::new();
    let mut n_files = 0;
    for (rel, src) in files {
        let Some(fc) = classify(rel) else { continue };
        n_files += 1;
        let t0 = Instant::now();
        let mut comments: Vec<(u32, String)> = Vec::new();
        let mut toks: Vec<Tok> = Vec::new();
        for t in lex(src) {
            if t.kind == TokKind::Comment {
                // A block comment spanning lines suppresses only at its
                // start line; good enough for `// …` markers.
                comments.push((t.line, t.text));
            } else {
                toks.push(t);
            }
        }
        let in_test = rules::test_regions(&toks);
        timings.add("lex", t0.elapsed().as_secs_f64() * 1e3);
        let outcome = rules::lint_tokens(
            &rules::FileInput {
                rel,
                toks: &toks,
                comments: &comments,
                in_test: &in_test,
                fc: &fc,
            },
            &mut timings,
        );
        diags.extend(outcome.diags);
        unused.extend(outcome.unused);
    }
    diags.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));

    // Baseline filtering, tracking which entries still earn their keep.
    let mut entry_used = vec![false; allow.len()];
    diags.retain(|d| match allow.matching(d) {
        Some(i) => {
            entry_used[i] = true;
            false
        }
        None => true,
    });
    let unused_baseline: Vec<String> = entry_used
        .iter()
        .enumerate()
        .filter(|(_, used)| !**used)
        .map(|(i, _)| allow.render_entry(i))
        .collect();

    WorkspaceReport {
        diags,
        unused,
        unused_baseline,
        timings,
        total_ms: t_total.elapsed().as_secs_f64() * 1e3,
        n_files,
    }
}

/// Lints one source text under its repo-relative path (see
/// [`lint_sources`]). Out-of-scope paths return no diagnostics.
pub fn lint_source(rel: &str, src: &str) -> Vec<Diagnostic> {
    lint_sources(&[(rel.to_string(), src.to_string())], &Allowlist::empty()).diags
}

/// An allowlist/baseline: `path:line:RULE` or `path:*:RULE` entries,
/// one per line, `#` comments and blank lines ignored. Paths are
/// repo-relative with `/` separators.
#[derive(Debug, Default)]
pub struct Allowlist {
    entries: Vec<(String, Option<u32>, String)>,
}

impl Allowlist {
    pub fn empty() -> Self {
        Self::default()
    }

    /// Parses the allowlist format; returns a line-numbered error for
    /// malformed entries.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut entries = Vec::new();
        for (no, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            // Split from the right: paths contain no ':', but be strict.
            let mut parts = line.rsplitn(3, ':');
            let (rule, lineno, path) = match (parts.next(), parts.next(), parts.next()) {
                (Some(r), Some(l), Some(p)) => (r.trim(), l.trim(), p.trim()),
                _ => {
                    return Err(format!(
                        "allowlist line {}: expected `path:line:RULE`, got `{line}`",
                        no + 1
                    ))
                }
            };
            let lineno = if lineno == "*" {
                None
            } else {
                Some(lineno.parse::<u32>().map_err(|_| {
                    format!("allowlist line {}: bad line number `{lineno}`", no + 1)
                })?)
            };
            entries.push((path.to_string(), lineno, rule.to_string()));
        }
        Ok(Self { entries })
    }

    /// True when `d` is covered by an entry.
    pub fn allows(&self, d: &Diagnostic) -> bool {
        self.matching(d).is_some()
    }

    /// Index of the first entry covering `d`, for used-entry tracking.
    pub fn matching(&self, d: &Diagnostic) -> Option<usize> {
        self.entries.iter().position(|(path, line, rule)| {
            path == &d.file && rule == d.rule.id() && line.map(|l| l == d.line).unwrap_or(true)
        })
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Renders entry `i` back to its `path:line:RULE` form.
    pub fn render_entry(&self, i: usize) -> String {
        let (path, line, rule) = &self.entries[i];
        match line {
            Some(l) => format!("{path}:{l}:{rule}"),
            None => format!("{path}:*:{rule}"),
        }
    }
}

/// Renders diagnostics in allowlist format, for `--write-baseline`.
pub fn render_baseline(diags: &[Diagnostic]) -> String {
    let mut out = String::from(
        "# borg-lint baseline: pre-existing diagnostics tolerated during incremental\n\
         # adoption. Format: path:line:RULE (line may be `*`). Shrink me over time.\n",
    );
    for d in diags {
        out.push_str(&format!("{}:{}:{}\n", d.file, d.line, d.rule.id()));
    }
    out
}

/// Collects every in-scope `.rs` file under `root` (sorted, so runs
/// are deterministic) and lints the set as one workspace.
pub fn lint_workspace(root: &Path, allow: &Allowlist) -> io::Result<WorkspaceReport> {
    let mut rels = Vec::new();
    collect_rs_files(root, root, &mut rels)?;
    rels.sort();
    let mut files = Vec::with_capacity(rels.len());
    for rel in rels {
        let src = fs::read_to_string(root.join(&rel))?;
        files.push((rel, src));
    }
    Ok(lint_sources(&files, allow))
}

/// Recursive walk gathering `.rs` paths relative to `root`, skipping
/// VCS metadata, build output, and the linter's own sources.
fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<String>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == ".git" || name == "target" {
                continue;
            }
            collect_rs_files(root, &path, out)?;
        } else if name.ends_with(".rs") {
            if let Some(rel) = relative_unix(root, &path) {
                if classify(&rel).is_some() {
                    out.push(rel);
                }
            }
        }
    }
    Ok(())
}

/// `path` relative to `root`, `/`-separated; `None` if not under root.
fn relative_unix(root: &Path, path: &Path) -> Option<String> {
    let rel: PathBuf = path.strip_prefix(root).ok()?.to_path_buf();
    let parts: Vec<String> = rel
        .components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect();
    Some(parts.join("/"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_scopes() {
        let fc = classify("crates/sim/src/cell.rs").unwrap();
        assert!(fc.deterministic);
        assert_eq!(fc.target, Target::Lib);

        let fc = classify("crates/sim/tests/behavior.rs").unwrap();
        assert_eq!(fc.target, Target::Test);

        let fc = classify("crates/experiments/src/bin/paper.rs").unwrap();
        assert!(!fc.deterministic);
        assert_eq!(fc.target, Target::Bin);

        let fc = classify("src/lib.rs").unwrap();
        assert_eq!(fc.krate, "borg2019");
        assert!(fc.deterministic);

        assert!(classify("crates/lint/src/lib.rs").is_none());
        assert!(classify("target/debug/build/foo.rs").is_none());
        assert!(classify("README.md").is_none());
    }

    #[test]
    fn allowlist_round_trip() {
        let d = Diagnostic {
            file: "crates/sim/src/cell.rs".into(),
            line: 42,
            rule: RuleId::D1,
            message: String::new(),
        };
        let text = render_baseline(std::slice::from_ref(&d));
        let allow = Allowlist::parse(&text).unwrap();
        assert!(allow.allows(&d));

        let wildcard = Allowlist::parse("crates/sim/src/cell.rs:*:D1\n").unwrap();
        assert!(wildcard.allows(&d));
        let other = Allowlist::parse("crates/sim/src/cell.rs:41:D1\n").unwrap();
        assert!(!other.allows(&d));
        assert!(Allowlist::parse("nonsense").is_err());
    }

    #[test]
    fn unused_baseline_entries_are_reported() {
        let allow = Allowlist::parse("crates/sim/src/cell.rs:999:D1\n# comment\n").unwrap();
        let report = lint_sources(
            &[(
                "crates/sim/src/other.rs".to_string(),
                "pub fn f() {}\n".to_string(),
            )],
            &allow,
        );
        assert_eq!(
            report.unused_baseline,
            vec!["crates/sim/src/cell.rs:999:D1"]
        );
    }
}
