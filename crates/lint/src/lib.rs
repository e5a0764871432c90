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
//! - Tests and examples are exempt from every rule: they may
//!   iterate maps and unwrap freely. `#[cfg(test)]` modules inside
//!   library files are recognised and skipped the same way.
//! - `unsafe` is rustc's job: `[workspace.lints.rust] unsafe_code =
//!   "deny"` rejects it in every build.
//! - `borg-lint` itself is not scanned — its sources quote the very
//!   patterns it hunts.

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

/// Everything one workspace lint run produced.
pub struct WorkspaceReport {
    /// Findings, sorted by (file, line, rule).
    pub diags: Vec<Diagnostic>,
    /// Site suppressions no finding consumed (and unknown markers).
    pub unused: Vec<UnusedSuppression>,
    pub total_ms: f64,
    pub n_files: usize,
}

/// Lints a set of in-memory sources, one file at a time: lex → test
/// regions → rules. `files` holds `(rel_path, src)` pairs; out-of-scope
/// paths are skipped.
pub fn lint_sources(files: &[(String, String)]) -> WorkspaceReport {
    let t_total = Instant::now();
    let mut diags: Vec<Diagnostic> = Vec::new();
    let mut unused: Vec<UnusedSuppression> = Vec::new();
    let mut n_files = 0;
    for (rel, src) in files {
        let Some(fc) = classify(rel) else { continue };
        n_files += 1;
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
        let outcome = rules::lint_tokens(&rules::FileInput {
            rel,
            toks: &toks,
            comments: &comments,
            in_test: &in_test,
            fc: &fc,
        });
        diags.extend(outcome.diags);
        unused.extend(outcome.unused);
    }
    diags.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));

    WorkspaceReport {
        diags,
        unused,
        total_ms: t_total.elapsed().as_secs_f64() * 1e3,
        n_files,
    }
}

/// Lints one source text under its repo-relative path (see
/// [`lint_sources`]). Out-of-scope paths return no diagnostics.
pub fn lint_source(rel: &str, src: &str) -> Vec<Diagnostic> {
    lint_sources(&[(rel.to_string(), src.to_string())]).diags
}

/// Collects every in-scope `.rs` file under `root` (sorted, so runs
/// are deterministic) and lints the set as one workspace.
pub fn lint_workspace(root: &Path) -> io::Result<WorkspaceReport> {
    let mut rels = Vec::new();
    collect_rs_files(root, root, &mut rels)?;
    rels.sort();
    let mut files = Vec::with_capacity(rels.len());
    for rel in rels {
        let src = fs::read_to_string(root.join(&rel))?;
        files.push((rel, src));
    }
    Ok(lint_sources(&files))
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
}
