//! Per-rule fixture tests: every rule ID has a failing and a passing
//! fixture, and mutating a passing fixture (deleting the blessed
//! helper route or the suppression annotation) flips its verdict —
//! proving the rules fire for real rather than vacuously passing. The
//! suppression-rot and timing tests at the end cover the report itself.

use borg_lint::{lint_source, lint_sources, Allowlist, RuleId, C3_CRATES};

/// Paths that put fixtures in the scope each rule polices.
const SIM_LIB: &str = "crates/sim/src/fixture.rs";
const QUERY_LIB: &str = "crates/query/src/fixture.rs";
/// Library code of a crate in `C3_CRATES`.
const C3_LIB: &str = "crates/trace/src/fixture.rs";
const ANALYSIS_LIB: &str = "crates/analysis/src/fixture.rs";

fn rules_hit(rel: &str, src: &str) -> Vec<RuleId> {
    let mut rules: Vec<RuleId> = lint_source(rel, src).into_iter().map(|d| d.rule).collect();
    rules.dedup();
    rules
}

/// Count of diagnostics for one rule — fixtures often trip S2 alongside
/// the rule under test, so counts are always rule-filtered.
fn count_rule(rel: &str, src: &str, rule: RuleId) -> usize {
    lint_source(rel, src)
        .into_iter()
        .filter(|d| d.rule == rule)
        .count()
}

fn assert_clean(rel: &str, src: &str) {
    let diags = lint_source(rel, src);
    assert!(
        diags.is_empty(),
        "expected clean fixture, got:\n{}",
        diags
            .iter()
            .map(|d| d.render())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// Removes every line carrying a `// lint: …-ok (…)` suppression.
fn strip_suppressions(src: &str) -> String {
    src.lines()
        .filter_map(|l| {
            if l.trim_start().starts_with("// lint:") {
                None // whole-line suppression: drop the line
            } else if let Some(at) = l.find("// lint:") {
                Some(&l[..at]) // trailing suppression: keep the code
            } else {
                Some(l)
            }
        })
        .collect::<Vec<_>>()
        .join("\n")
}

// ---------------------------------------------------------------- D1

#[test]
fn d1_fail_fixture_fires() {
    let hits = rules_hit(SIM_LIB, include_str!("fixtures/d1_fail.rs"));
    assert_eq!(hits, vec![RuleId::D1], "both iteration shapes must flag");
    let count = lint_source(SIM_LIB, include_str!("fixtures/d1_fail.rs")).len();
    assert_eq!(count, 2, "method-call shape and for-loop shape");
}

#[test]
fn d1_pass_fixture_is_clean() {
    assert_clean(SIM_LIB, include_str!("fixtures/d1_pass.rs"));
}

#[test]
fn d1_deleting_blessed_helper_flips_verdict() {
    let mutated = include_str!("fixtures/d1_pass.rs").replace(
        "sorted_entries(&self.by_job)",
        "self.by_job.iter().map(|(k, v)| (*k, *v)).collect()",
    );
    assert!(rules_hit(SIM_LIB, &mutated).contains(&RuleId::D1));
}

#[test]
fn d1_deleting_annotation_flips_verdict() {
    let mutated = strip_suppressions(include_str!("fixtures/d1_pass.rs"));
    assert!(rules_hit(SIM_LIB, &mutated).contains(&RuleId::D1));
}

#[test]
fn d1_out_of_scope_crates_are_exempt() {
    // Non-deterministic crate: free to iterate maps.
    assert_clean(
        "crates/experiments/src/bin/fixture.rs",
        include_str!("fixtures/d1_fail.rs"),
    );
    // Tests of deterministic crates too.
    assert_clean(
        "crates/sim/tests/fixture.rs",
        include_str!("fixtures/d1_fail.rs"),
    );
}

// ---------------------------------------------------------------- D2

#[test]
fn d2_fail_fixture_fires() {
    let hits = rules_hit(SIM_LIB, include_str!("fixtures/d2_fail.rs"));
    assert_eq!(hits, vec![RuleId::D2]);
    let count = lint_source(SIM_LIB, include_str!("fixtures/d2_fail.rs")).len();
    assert_eq!(count, 3, "Instant::now, SystemTime::now, thread::current");
}

#[test]
fn d2_pass_fixture_is_clean() {
    assert_clean(SIM_LIB, include_str!("fixtures/d2_pass.rs"));
}

#[test]
fn d2_deleting_annotation_flips_verdict() {
    let mutated = strip_suppressions(include_str!("fixtures/d2_pass.rs"));
    assert!(rules_hit(SIM_LIB, &mutated).contains(&RuleId::D2));
}

#[test]
fn d2_bench_and_criterion_are_exempt() {
    assert_clean(
        "crates/criterion/src/lib.rs",
        include_str!("fixtures/d2_fail.rs"),
    );
    assert_clean(
        "crates/bench/src/lib.rs",
        include_str!("fixtures/d2_fail.rs"),
    );
}

#[test]
fn d2_blessed_telemetry_clock_is_exempt() {
    // The sanctioned wall-clock source: telemetry's timing plane reads
    // `Instant::now()` inside the one blessed file (DESIGN.md §12).
    // Only D2 is waived there — the fixture's other hits still apply,
    // so check rule presence rather than full cleanliness.
    let hits = rules_hit(
        "crates/telemetry/src/clock.rs",
        include_str!("fixtures/d2_fail.rs"),
    );
    assert!(
        !hits.contains(&RuleId::D2),
        "blessed clock file must not flag D2, got {hits:?}"
    );
}

#[test]
fn d2_rest_of_telemetry_crate_still_fails() {
    // A raw `Instant::now()` anywhere else in the (deterministic-scope)
    // telemetry crate keeps firing: the blessing is per-file, not
    // per-crate.
    let hits = rules_hit(
        "crates/telemetry/src/lib.rs",
        include_str!("fixtures/d2_fail.rs"),
    );
    assert!(hits.contains(&RuleId::D2));
}

#[test]
fn d2_real_clock_source_passes_the_linter() {
    // The actual blessed helper as committed — not just a synthetic
    // fixture — stays clean end to end.
    assert_clean(
        "crates/telemetry/src/clock.rs",
        include_str!("../../telemetry/src/clock.rs"),
    );
}

// ---------------------------------------------------------------- D3
//
// D3 is the *comparator* rule only: `partial_cmp().unwrap()` anywhere
// in deterministic library code. Reductions are rule C3.

#[test]
fn d3_fail_fixture_fires() {
    // Each site is also an S2 library panic, so count D3 specifically.
    let d3 = count_rule(
        ANALYSIS_LIB,
        include_str!("fixtures/d3_fail.rs"),
        RuleId::D3,
    );
    assert_eq!(d3, 2, "partial_cmp().unwrap() and partial_cmp().expect()");
}

#[test]
fn d3_pass_fixture_is_clean() {
    assert_clean(ANALYSIS_LIB, include_str!("fixtures/d3_pass.rs"));
}

#[test]
fn d3_unhandling_the_none_arm_flips_verdict() {
    let mutated = include_str!("fixtures/d3_pass.rs")
        .replace("unwrap_or(std::cmp::Ordering::Equal)", "unwrap()");
    assert!(rules_hit(ANALYSIS_LIB, &mutated).contains(&RuleId::D3));
}

#[test]
fn d3_fires_in_every_deterministic_crate() {
    // The comparator hazard panics wherever it runs: a contract crate
    // is policed the same as analysis.
    let d3 = count_rule(SIM_LIB, include_str!("fixtures/d3_fail.rs"), RuleId::D3);
    assert_eq!(d3, 2);
}

// ---------------------------------------------------------------- C3
//
// Order-sensitive reductions are policed in every function of the
// library code of the crates in `C3_CRATES`, and nowhere else.

#[test]
fn c3_fires_in_every_contract_crate() {
    for krate in C3_CRATES {
        let rel = format!("crates/{krate}/src/fixture.rs");
        let c3 = count_rule(&rel, include_str!("fixtures/c3_fail.rs"), RuleId::C3);
        assert_eq!(
            c3, 6,
            "{rel}: sum::<f64>, float fold, min_by, reduce, max_by_key, \
             and the sum in `unreached`, a helper nothing calls"
        );
    }
}

#[test]
fn c3_is_silent_outside_contract_crates_and_test_code() {
    for rel in [
        ANALYSIS_LIB,
        "crates/core/src/fixture.rs",
        "crates/experiments/src/bin/fixture.rs",
        "crates/sim/tests/fixture.rs",
        "crates/query/benches/fixture.rs",
    ] {
        let c3 = count_rule(rel, include_str!("fixtures/c3_fail.rs"), RuleId::C3);
        assert_eq!(c3, 0, "{rel}");
    }
    let in_test_module = "#[cfg(test)]\nmod tests {\n    fn total(xs: &[f64]) -> f64 {\n        \
                          xs.iter().sum::<f64>()\n    }\n}\n";
    assert_clean(C3_LIB, in_test_module);
}

#[test]
fn c3_pass_fixture_is_clean() {
    assert_clean(C3_LIB, include_str!("fixtures/c3_pass.rs"));
}

#[test]
fn c3_deleting_blessed_helper_flips_verdict() {
    let mutated = include_str!("fixtures/c3_pass.rs")
        .replace("sum_seq(xs.iter().copied())", "xs.iter().sum::<f64>()");
    assert!(rules_hit(C3_LIB, &mutated).contains(&RuleId::C3));
}

#[test]
fn c3_deleting_annotation_flips_verdict() {
    let mutated = strip_suppressions(include_str!("fixtures/c3_pass.rs"));
    assert!(rules_hit(C3_LIB, &mutated).contains(&RuleId::C3));
}

// ---------------------------------------------------------------- S2

#[test]
fn s2_fail_fixture_fires() {
    let hits = rules_hit(ANALYSIS_LIB, include_str!("fixtures/s2_fail.rs"));
    assert_eq!(hits, vec![RuleId::S2]);
    let count = lint_source(ANALYSIS_LIB, include_str!("fixtures/s2_fail.rs")).len();
    assert_eq!(count, 3, "unwrap, expect, panic!");
}

#[test]
fn s2_pass_fixture_is_clean() {
    assert_clean(ANALYSIS_LIB, include_str!("fixtures/s2_pass.rs"));
}

#[test]
fn s2_deleting_annotation_flips_verdict() {
    let mutated = strip_suppressions(include_str!("fixtures/s2_pass.rs"));
    assert!(rules_hit(ANALYSIS_LIB, &mutated).contains(&RuleId::S2));
}

#[test]
fn s2_cfg_test_modules_and_test_targets_are_exempt() {
    // The #[cfg(test)] module inside s2_pass unwraps; already covered by
    // the clean assertion. Whole test targets may panic freely too:
    assert_clean(
        "crates/analysis/tests/fixture.rs",
        include_str!("fixtures/s2_fail.rs"),
    );
}

// ---------------------------------------------------------------- S3

#[test]
fn s3_fail_fixture_fires() {
    let hits = rules_hit(QUERY_LIB, include_str!("fixtures/s3_fail.rs"));
    assert_eq!(hits, vec![RuleId::S3]);
}

#[test]
fn s3_pass_fixture_is_clean() {
    assert_clean(QUERY_LIB, include_str!("fixtures/s3_pass.rs"));
}

#[test]
fn s3_deleting_blessed_helper_flips_verdict() {
    let mutated = include_str!("fixtures/s3_pass.rs")
        .replace("(0..code32(num_rows))", "(0..num_rows as u32)");
    assert!(rules_hit(QUERY_LIB, &mutated).contains(&RuleId::S3));
}

#[test]
fn s3_deleting_annotation_flips_verdict() {
    let mutated = strip_suppressions(include_str!("fixtures/s3_pass.rs"));
    assert!(rules_hit(QUERY_LIB, &mutated).contains(&RuleId::S3));
}

#[test]
fn s3_only_polices_query() {
    assert_clean(SIM_LIB, include_str!("fixtures/s3_fail.rs"));
}

// ---------------------------------------------------------------- M1

#[test]
fn m1_fail_fixture_fires() {
    let hits = rules_hit(SIM_LIB, include_str!("fixtures/m1_fail.rs"));
    assert_eq!(hits, vec![RuleId::M1]);
    assert_eq!(
        count_rule(SIM_LIB, include_str!("fixtures/m1_fail.rs"), RuleId::M1),
        2,
        "plain Vec field and per-tier VecDeque array"
    );
}

#[test]
fn m1_pass_fixture_is_clean() {
    assert_clean(SIM_LIB, include_str!("fixtures/m1_pass.rs"));
}

#[test]
fn m1_switching_to_raw_vec_flips_verdict() {
    let mutated = include_str!("fixtures/m1_pass.rs").replace("[Histogram; 3]", "Vec<u64>");
    assert!(rules_hit(SIM_LIB, &mutated).contains(&RuleId::M1));
}

#[test]
fn m1_deleting_annotation_flips_verdict() {
    let mutated = strip_suppressions(include_str!("fixtures/m1_pass.rs"));
    assert!(rules_hit(SIM_LIB, &mutated).contains(&RuleId::M1));
}

#[test]
fn m1_telemetry_implements_the_registry_and_is_exempt() {
    assert_clean(
        "crates/telemetry/src/fixture.rs",
        include_str!("fixtures/m1_fail.rs"),
    );
}

// ------------------------------------------------- suppression syntax

#[test]
fn suppression_requires_a_reason() {
    let src = "pub fn f(xs: &[u64]) -> u64 {\n    // lint: library-panic-ok ()\n    *xs.first().unwrap()\n}\n";
    assert!(rules_hit(ANALYSIS_LIB, src).contains(&RuleId::S2));
}

#[test]
fn suppression_accepts_rule_ids_too() {
    let src = "pub fn f(xs: &[u64]) -> u64 {\n    // lint: S2-ok (demo invariant)\n    *xs.first().unwrap()\n}\n";
    assert_clean(ANALYSIS_LIB, src);
}

#[test]
fn suppression_for_one_rule_does_not_cover_another() {
    let src = "pub fn f(xs: &mut [f64]) {\n    // lint: library-panic-ok (only S2 suppressed)\n    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());\n}\n";
    let hits = rules_hit(ANALYSIS_LIB, src);
    assert!(
        hits.contains(&RuleId::D3),
        "D3 must survive an S2-only suppression"
    );
}

#[test]
fn one_comment_line_can_suppress_two_rules() {
    // The idiom for dual-rule sites (e.g. S2 + D3): both markers ride one `// lint:` comment, each with its
    // own reason — stacking two comment lines would push the first out
    // of the one-line suppression window.
    let src = "pub fn f(xs: &mut [f64]) {\n    \
               // lint: library-panic-ok (inputs NaN-free) float-reduction-ok (same invariant)\n    \
               xs.sort_by(|a, b| a.partial_cmp(b).unwrap());\n}\n";
    assert_clean(ANALYSIS_LIB, src);
}

// ------------------------------------------------ unused suppressions

fn ws(files: &[(&str, &str)]) -> Vec<(String, String)> {
    files
        .iter()
        .map(|(rel, src)| (rel.to_string(), src.to_string()))
        .collect()
}

#[test]
fn rotted_suppression_is_reported_workspace_wide() {
    let src = "\
pub fn safe(xs: &[f64]) -> f64 {
    // lint: library-panic-ok (nothing here panics anymore)
    xs.first().copied().unwrap_or(0.0)
}
";
    let report = lint_sources(&ws(&[(ANALYSIS_LIB, src)]), &Allowlist::empty());
    assert!(report.diags.is_empty());
    assert_eq!(report.unused.len(), 1, "unused: {:?}", report.unused);
    let u = &report.unused[0];
    assert_eq!(u.file, ANALYSIS_LIB);
    assert_eq!(u.marker, "library-panic");
    assert!(u.known, "library-panic is a real rule slug");
}

#[test]
fn unknown_marker_is_reported_as_unknown() {
    let src = "\
pub fn f() -> u64 {
    // lint: totally-bogus-rule-ok (typo'd slug)
    7
}
";
    let report = lint_sources(&ws(&[(ANALYSIS_LIB, src)]), &Allowlist::empty());
    assert_eq!(report.unused.len(), 1);
    assert!(!report.unused[0].known);
}

#[test]
fn consumed_suppression_is_not_reported() {
    let src = "\
pub fn f(xs: &[u64]) -> u64 {
    // lint: library-panic-ok (caller guarantees non-empty)
    *xs.first().unwrap()
}
";
    let report = lint_sources(&ws(&[(ANALYSIS_LIB, src)]), &Allowlist::empty());
    assert!(report.diags.is_empty());
    assert!(report.unused.is_empty(), "unused: {:?}", report.unused);
}

#[test]
fn one_rotted_marker_on_a_dual_comment_is_still_caught() {
    // Only the S2 half of a dual suppression fires; the S3 half is
    // rotted (S3 polices borg-query only) and must be reported.
    let src = "\
pub fn f(xs: &[u64]) -> u64 {
    // lint: library-panic-ok (caller guarantees non-empty) truncating-cast-ok (stale)
    *xs.first().unwrap()
}
";
    let report = lint_sources(&ws(&[(ANALYSIS_LIB, src)]), &Allowlist::empty());
    assert!(report.diags.is_empty());
    assert_eq!(report.unused.len(), 1, "unused: {:?}", report.unused);
    assert_eq!(report.unused[0].marker, "truncating-cast");
}

// --------------------------------------------------- report plumbing

#[test]
fn timings_cover_every_stage_and_fired_rule() {
    let hazard = "pub fn weigh(xs: &[f64]) -> f64 {\n    xs.iter().sum::<f64>()\n}\n";
    let report = lint_sources(
        &ws(&[
            ("crates/sim/src/cell.rs", "pub fn run() {}\n"),
            ("crates/workload/src/dist.rs", hazard),
        ]),
        &Allowlist::empty(),
    );
    let keys: Vec<&str> = report
        .timings
        .entries()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    for want in ["lex", "C3"] {
        assert!(keys.contains(&want), "missing timing key {want}: {keys:?}");
    }
    assert!(report.total_ms > 0.0);
    assert_eq!(report.n_files, 2);
    assert_eq!(report.diags.len(), 1, "diags: {:?}", report.diags);
}
