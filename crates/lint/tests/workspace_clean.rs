//! The tier-1 gate: the whole workspace must be lint-clean with no
//! baseline — and no *rotted* annotations either. Every new diagnostic
//! is either a fix or a reviewed, reasoned `// lint: …-ok (…)`
//! annotation; every annotation must still be earning its keep.

use std::path::Path;

use borg_lint::{lint_workspace, Allowlist, C3_CRATES};

#[test]
fn workspace_has_zero_unsuppressed_diagnostics() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = lint_workspace(&root, &Allowlist::empty()).expect("workspace scan");
    assert!(
        report.diags.is_empty(),
        "borg-lint found {} diagnostic(s):\n{}\nfix them or annotate with \
         `// lint: <rule>-ok (reason)` — see DESIGN.md §10",
        report.diags.len(),
        report
            .diags
            .iter()
            .map(|d| d.render())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn workspace_has_zero_unused_suppressions() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = lint_workspace(&root, &Allowlist::empty()).expect("workspace scan");
    assert!(
        report.unused.is_empty(),
        "rotted lint suppressions in-tree (sites no longer fire — delete them):\n{}",
        report
            .unused
            .iter()
            .map(|u| u.render())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn every_c3_crate_exists() {
    // A renamed or deleted crate would silently drop out of C3's scope.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    for krate in C3_CRATES {
        let lib = root.join("crates").join(krate).join("src/lib.rs");
        assert!(
            lib.is_file(),
            "C3_CRATES names `{krate}`, but {} does not exist",
            lib.display()
        );
    }
}
