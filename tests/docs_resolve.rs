//! Commands and paths quoted in the docs name things that exist: every
//! `check.sh --<mode>` in README.md, DESIGN.md and the verify skill is a
//! mode `scripts/check.sh` accepts, every `-p <package>` names a package
//! of this workspace, every backticked `crates/…` path in those docs and
//! EXPERIMENTS.md is in the tree, and so is every backticked
//! `file.rs::item` they cite. ROADMAP.md is left out: it cites deleted
//! paths as history.

use std::fs;
use std::path::{Path, PathBuf};

const DOCS: &[&str] = &["README.md", "DESIGN.md", ".claude/skills/verify/SKILL.md"];

/// The docs whose `crates/…` paths must resolve.
const PATH_DOCS: &[&str] = &[
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    ".claude/skills/verify/SKILL.md",
];

fn read(rel: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The leading run of `[a-z0-9-]` in a word, after any opening backtick
/// or parenthesis: the flag or name without the prose around it.
fn ident(word: &str) -> &str {
    let word = word.trim_start_matches(['`', '(']);
    let end = word
        .find(|c: char| !(c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-'))
        .unwrap_or(word.len());
    &word[..end]
}

/// The modes in `scripts/check.sh`'s `case "$arg"` list: its `--a | --b)`
/// alternatives.
fn check_modes() -> Vec<String> {
    read("scripts/check.sh")
        .lines()
        .map(str::trim)
        .skip_while(|l| *l != "case \"$arg\" in")
        .take_while(|l| *l != "esac")
        .filter(|l| l.starts_with("--") && l.ends_with(')'))
        .flat_map(|l| l.trim_end_matches(')').split('|'))
        .map(|m| m.trim().to_string())
        .collect()
}

/// The workspace's package names: each `crates/*/Cargo.toml`, plus the
/// root package.
fn packages() -> Vec<String> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut manifests = vec!["Cargo.toml".to_string()];
    for entry in fs::read_dir(root.join("crates")).expect("crates/ lists") {
        let name = entry.expect("crates/ entry").file_name();
        let rel = format!("crates/{}/Cargo.toml", name.to_string_lossy());
        if root.join(&rel).is_file() {
            manifests.push(rel);
        }
    }
    manifests
        .iter()
        .map(|m| {
            let text = read(m);
            let (_, package) = text.split_once("[package]").expect("a [package] table");
            let line = package
                .lines()
                .find_map(|l| l.trim().strip_prefix("name = \""))
                .unwrap_or_else(|| panic!("{m}: no package name"));
            line.trim_end_matches('"').to_string()
        })
        .collect()
}

#[test]
fn check_modes_and_packages_in_the_docs_exist() {
    let modes = check_modes();
    let packages = packages();
    assert!(modes.contains(&"--lint".to_string()), "{modes:?}");
    assert!(packages.contains(&"borg-sim".to_string()), "{packages:?}");
    let mut unresolved = Vec::new();
    for doc in DOCS {
        let text = read(doc);
        let words: Vec<&str> = text.split_whitespace().collect();
        for pair in words.windows(2) {
            let (word, next) = (pair[0], pair[1]);
            let name = ident(next);
            let mode = word.contains("check.sh") && name.starts_with("--");
            if mode && !modes.iter().any(|m| m == name) {
                unresolved.push(format!("{doc}: check.sh {name}"));
            }
            if ident(word) == "-p" && !packages.iter().any(|p| p == name) {
                unresolved.push(format!("{doc}: -p {name}"));
            }
        }
    }
    assert!(
        unresolved.is_empty(),
        "docs name modes or packages that do not exist (modes {modes:?}, packages \
         {packages:?}):\n{}",
        unresolved.join("\n")
    );
}

/// The words inside backticked spans of `text`. Code fences are dropped
/// first, so their lines read as prose and only inline spans count.
fn backticked_words(text: &str) -> Vec<String> {
    let text = text.replace("```", "");
    text.split('`')
        .skip(1)
        .step_by(2)
        .flat_map(str::split_whitespace)
        .map(str::to_string)
        .collect()
}

/// Every backticked word of `text` starting `crates/`, with a `:line` or
/// `::item` suffix stripped.
fn cited_paths(text: &str) -> Vec<String> {
    backticked_words(text)
        .iter()
        .filter(|word| word.starts_with("crates/"))
        .map(|word| word.split(':').next().unwrap_or(word).to_string())
        .collect()
}

#[test]
fn cited_crate_paths_in_the_docs_exist() {
    assert_eq!(
        cited_paths("see `crates/a.rs:12`, `crates/b.rs::item` and `cargo x crates/c/`"),
        ["crates/a.rs", "crates/b.rs", "crates/c/"]
    );
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut cited = 0;
    let mut unresolved = Vec::new();
    for doc in PATH_DOCS {
        for path in cited_paths(&read(doc)) {
            cited += 1;
            if !root.join(&path).exists() {
                unresolved.push(format!("{doc}: {path}"));
            }
        }
    }
    assert!(cited > 0, "no doc cites a crates/ path");
    assert!(
        unresolved.is_empty(),
        "docs cite paths that do not exist:\n{}",
        unresolved.join("\n")
    );
}

fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Every backticked `file.rs::item` of `text`, as the file and the
/// item's leading identifier.
fn cited_items(text: &str) -> Vec<(String, String)> {
    backticked_words(text)
        .iter()
        .filter_map(|word| {
            let (file, item) = word.split_once(".rs::")?;
            let end = item.find(|c| !is_ident_char(c)).unwrap_or(item.len());
            Some((format!("{file}.rs"), item[..end].to_string()))
        })
        .collect()
}

/// Whether `source` declares `item` as a `fn`, `struct`, `enum`, `trait`,
/// `const`, `type` or `mod`.
fn defines(source: &str, item: &str) -> bool {
    ["fn", "struct", "enum", "trait", "const", "type", "mod"]
        .iter()
        .any(|kw| {
            let decl = format!("{kw} {item}");
            source.match_indices(&decl).any(|(at, _)| {
                let before = source[..at].chars().next_back();
                let after = source[at + decl.len()..].chars().next();
                !before.is_some_and(is_ident_char) && !after.is_some_and(is_ident_char)
            })
        })
}

/// Every `.rs` file of the tree, by its path from the root, with its
/// source; build output and hidden directories are skipped.
fn rust_sources() -> Vec<(PathBuf, String)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut dirs = vec![root.to_path_buf()];
    let mut out = Vec::new();
    while let Some(dir) = dirs.pop() {
        for entry in fs::read_dir(&dir).expect("directory lists") {
            let path = entry.expect("directory entry").path();
            let name = path.file_name().unwrap_or_default().to_string_lossy();
            if path.is_dir() && !name.starts_with('.') && name != "target" {
                dirs.push(path);
            } else if name.ends_with(".rs") {
                let source = fs::read_to_string(&path).expect("source reads");
                out.push((
                    path.strip_prefix(root).expect("under root").to_path_buf(),
                    source,
                ));
            }
        }
    }
    out
}

#[test]
fn cited_items_in_the_docs_exist() {
    assert_eq!(
        cited_items("see `a/b.rs::f_1()`, (`c.rs::T`), `d.rs:12` and `e.rs`"),
        [
            ("a/b.rs".to_string(), "f_1".to_string()),
            ("c.rs".to_string(), "T".to_string())
        ]
    );
    assert!(defines("pub(crate) fn f_1<T>(", "f_1"));
    assert!(!defines("fn f_12() {}\nlet x = f_1;", "f_1"));
    let sources = rust_sources();
    let mut cited = 0;
    let mut unresolved = Vec::new();
    for doc in PATH_DOCS {
        for (file, item) in cited_items(&read(doc)) {
            cited += 1;
            let found = sources
                .iter()
                .any(|(path, source)| path.ends_with(&file) && defines(source, &item));
            if !found {
                unresolved.push(format!("{doc}: {file}::{item}"));
            }
        }
    }
    assert!(cited > 0, "no doc cites a file.rs::item");
    assert!(
        unresolved.is_empty(),
        "docs cite items no file of that name defines:\n{}",
        unresolved.join("\n")
    );
}
