//! Commands quoted in the docs name things that exist: every
//! `check.sh --<mode>` in README.md, DESIGN.md and the verify skill is a
//! mode `scripts/check.sh` accepts, and every `-p <package>` names a
//! package of this workspace.

use std::fs;
use std::path::Path;

const DOCS: &[&str] = &["README.md", "DESIGN.md", ".claude/skills/verify/SKILL.md"];

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
