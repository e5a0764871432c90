//! Per-rule fixture tests: every rule ID has a failing and a passing
//! fixture, and mutating a passing fixture (deleting the blessed
//! helper route, the suppression annotation, a contract root, or a
//! blessed call edge) flips its verdict — proving the rules fire for
//! real rather than vacuously passing.

use borg_lint::{lint_source, RuleId};

/// Paths that put fixtures in the scope each rule polices.
const SIM_LIB: &str = "crates/sim/src/fixture.rs";
const QUERY_LIB: &str = "crates/query/src/fixture.rs";
/// Anchor file of the `map_blocks` contract root (graph::CONTRACT_ROOTS).
const CONTRACT: &str = "crates/query/src/parallel.rs";
/// Anchor file of the two `ShardedPlacement` contract roots.
const SHARD_CONTRACT: &str = "crates/sim/src/shard.rs";
const TRACE_LIB: &str = "crates/trace/src/fixture.rs";
const ANALYSIS_LIB: &str = "crates/analysis/src/fixture.rs";
/// The blessed pool boundary: C1 allows `.recv()` here, C2 skips it.
const POOL_FILE: &str = "crates/serve/src/pool.rs";

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
// Since the call-graph rework, D3 is the *comparator* rule only:
// `partial_cmp().unwrap()` anywhere in deterministic library code.
// The old reduction arm is rule C3, scoped by contract reachability.

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
fn d3_fires_outside_contract_files_too() {
    // The comparator hazard is not contract-scoped: it panics wherever
    // it runs. Plain deterministic lib files are policed the same.
    let d3 = count_rule(SIM_LIB, include_str!("fixtures/d3_fail.rs"), RuleId::D3);
    assert_eq!(d3, 2);
}

// ---------------------------------------------------------------- C1

#[test]
fn c1_untagged_send_fires() {
    let src = "pub fn ship(tx: &std::sync::mpsc::Sender<u64>, x: u64) {\n    \
               let _ = tx.send(x);\n}\n";
    assert_eq!(rules_hit(SIM_LIB, src), vec![RuleId::C1]);
}

#[test]
fn c1_tagged_send_is_clean() {
    let src = "pub fn ship(tx: &std::sync::mpsc::Sender<(usize, u64)>, i: usize, x: u64) {\n    \
               let _ = tx.send((i, x));\n}\n";
    assert_clean(SIM_LIB, src);
}

#[test]
fn c1_bare_recv_outside_pool_boundary_fires() {
    let src = "pub fn drain(rx: &std::sync::mpsc::Receiver<u64>) -> Option<u64> {\n    \
               rx.recv().ok()\n}\n";
    assert_eq!(rules_hit(SIM_LIB, src), vec![RuleId::C1]);
}

#[test]
fn c1_recv_inside_pool_boundary_is_blessed() {
    let src = "pub fn drain(rx: &std::sync::mpsc::Receiver<u64>) -> Option<u64> {\n    \
               rx.recv().ok()\n}\n";
    assert_clean(POOL_FILE, src);
}

#[test]
fn c1_annotation_suppresses() {
    let src = "pub fn ship(tx: &std::sync::mpsc::Sender<u64>, x: u64) {\n    \
               // lint: channel-protocol-ok (single-producer side channel, order-free)\n    \
               let _ = tx.send(x);\n}\n";
    assert_clean(SIM_LIB, src);
}

// ---------------------------------------------------------------- C2

#[test]
fn c2_fail_fixture_fires() {
    // Worker-body indexing plus a reachable helper's unwrap; the
    // `unreached` helper's unwrap is NOT pool-reachable and must not
    // count (C2 is graph-scoped, not file-scoped).
    let c2 = count_rule(SIM_LIB, include_str!("fixtures/c2_fail.rs"), RuleId::C2);
    assert_eq!(c2, 2, "worker indexing + reachable unwrap, nothing else");
}

#[test]
fn c2_pass_fixture_is_clean() {
    assert_clean(SIM_LIB, include_str!("fixtures/c2_pass.rs"));
}

#[test]
fn c2_deleting_annotation_flips_verdict() {
    let mutated = strip_suppressions(include_str!("fixtures/c2_pass.rs"));
    assert!(rules_hit(SIM_LIB, &mutated).contains(&RuleId::C2));
}

#[test]
fn c2_closure_worker_is_opaque_and_flagged() {
    // Swapping the named worker fn for a closure hides the dispatch
    // target from the graph — the pool site itself is flagged.
    let mutated =
        include_str!("fixtures/c2_pass.rs").replace("work as fn(u64) -> u64", "|j| j + 1");
    let c2 = count_rule(SIM_LIB, &mutated, RuleId::C2);
    assert_eq!(c2, 1, "exactly the opaque ServePool::new site");
}

#[test]
fn c2_skips_the_pool_boundary_file() {
    // The pool implementation's own re-raise sites are the protocol,
    // not payload code; C2 never fires inside it.
    let c2 = count_rule(POOL_FILE, include_str!("fixtures/c2_fail.rs"), RuleId::C2);
    assert_eq!(c2, 0);
}

// ---------------------------------------------------------------- C3
//
// The graph-scoped successor of the old `BIT_IDENTITY_FILES` list:
// order-sensitive reductions are policed exactly in code transitively
// reachable from a contract root, and nowhere else.

#[test]
fn c3_fail_fixture_fires() {
    let c3 = count_rule(CONTRACT, include_str!("fixtures/c3_fail.rs"), RuleId::C3);
    assert_eq!(
        c3, 3,
        "sum::<f64>, float fold, min_by — but NOT the unreached helper"
    );
}

#[test]
fn c3_pass_fixture_is_clean() {
    assert_clean(CONTRACT, include_str!("fixtures/c3_pass.rs"));
}

#[test]
fn c3_deleting_blessed_helper_flips_verdict() {
    let mutated = include_str!("fixtures/c3_pass.rs")
        .replace("sum_seq(xs.iter().copied())", "xs.iter().sum::<f64>()");
    assert!(rules_hit(CONTRACT, &mutated).contains(&RuleId::C3));
}

#[test]
fn c3_deleting_annotation_flips_verdict() {
    let mutated = strip_suppressions(include_str!("fixtures/c3_pass.rs"));
    assert!(rules_hit(CONTRACT, &mutated).contains(&RuleId::C3));
}

#[test]
fn c3_calling_an_unpoliced_helper_flips_verdict() {
    // `off_contract` carries a hazard but is unreached, so c3_pass is
    // clean. The moment the root grows a call to it, its body enters
    // contract scope and the hazard surfaces.
    let mutated = include_str!("fixtures/c3_pass.rs").replace(
        "sum_seq(xs.iter().copied()) + fast_total(xs)",
        "sum_seq(xs.iter().copied()) + fast_total(xs) + off_contract(xs)",
    );
    assert!(rules_hit(CONTRACT, &mutated).contains(&RuleId::C3));
}

#[test]
fn c3_outside_contract_anchor_files_is_silent() {
    // The same source in a plain deterministic lib file has no contract
    // root, hence no contract scope, hence no C3.
    let c3 = count_rule(
        ANALYSIS_LIB,
        include_str!("fixtures/c3_fail.rs"),
        RuleId::C3,
    );
    assert_eq!(c3, 0);
}

#[test]
fn c3_shard_fail_fixture_fires() {
    // Unordered reductions over per-shard winners: min_by, reduce, and
    // max_by_key, all reachable from the ShardedPlacement roots.
    let c3 = count_rule(
        SHARD_CONTRACT,
        include_str!("fixtures/c3_shard_fail.rs"),
        RuleId::C3,
    );
    assert_eq!(c3, 3, "min_by, reduce, max_by_key");
}

#[test]
fn c3_shard_pass_fixture_is_clean() {
    assert_clean(SHARD_CONTRACT, include_str!("fixtures/c3_shard_pass.rs"));
}

#[test]
fn c3_shard_replacing_blessed_loop_flips_verdict() {
    // Swapping the fixed-order combining loop for an unordered
    // reduction must be caught.
    let mutated = include_str!("fixtures/c3_shard_pass.rs").replace(
        "combine_winners(shards)",
        "shards.iter().filter_map(|s| s.first().copied()).reduce(f64::min)",
    );
    assert!(rules_hit(SHARD_CONTRACT, &mutated).contains(&RuleId::C3));
}

#[test]
fn c3_shard_deleting_annotation_flips_verdict() {
    let mutated = strip_suppressions(include_str!("fixtures/c3_shard_pass.rs"));
    assert!(rules_hit(SHARD_CONTRACT, &mutated).contains(&RuleId::C3));
}

// ---------------------------------------------------------------- G1

#[test]
fn g1_renamed_contract_root_fires_and_silences_c3() {
    // Renaming the root away is the failure mode the old hand-named
    // file list couldn't see: the anchor file is still present, so G1
    // fires at line 1 — and C3 must go silent (no root, no scope)
    // rather than silently policing nothing.
    let mutated =
        include_str!("fixtures/c3_fail.rs").replace("pub fn map_blocks", "pub fn map_blocks_v2");
    let diags = lint_source(CONTRACT, &mutated);
    let g1: Vec<_> = diags.iter().filter(|d| d.rule == RuleId::G1).collect();
    assert_eq!(g1.len(), 1, "missing `map_blocks` root must surface");
    assert_eq!(g1[0].line, 1);
    assert!(g1[0].message.contains("map_blocks"));
    assert_eq!(
        diags.iter().filter(|d| d.rule == RuleId::C3).count(),
        0,
        "no contract root resolved, so no contract scope"
    );
}

#[test]
fn g1_each_root_is_required_independently() {
    // shard.rs anchors TWO roots; deleting one fires exactly one G1.
    let mutated = include_str!("fixtures/c3_shard_pass.rs")
        .replace("pub fn first_preemptible", "pub fn later_preemptible");
    let diags = lint_source(SHARD_CONTRACT, &mutated);
    let g1: Vec<_> = diags.iter().filter(|d| d.rule == RuleId::G1).collect();
    assert_eq!(g1.len(), 1);
    assert!(g1[0].message.contains("first_preemptible"));
}

#[test]
fn g1_non_anchor_files_owe_no_roots() {
    assert_clean(SIM_LIB, "pub fn quiet() {}\n");
}

// ---------------------------------------------------------------- S1

#[test]
fn s1_fail_fixture_fires() {
    let hits = rules_hit(TRACE_LIB, include_str!("fixtures/s1_fail.rs"));
    assert_eq!(hits, vec![RuleId::S1]);
}

#[test]
fn s1_pass_fixture_is_clean() {
    assert_clean(TRACE_LIB, include_str!("fixtures/s1_pass.rs"));
}

#[test]
fn s1_deleting_safety_comment_flips_verdict() {
    let mutated: String = include_str!("fixtures/s1_pass.rs")
        .lines()
        .filter(|l| !l.contains("SAFETY:"))
        .collect::<Vec<_>>()
        .join("\n");
    assert!(rules_hit(TRACE_LIB, &mutated).contains(&RuleId::S1));
}

#[test]
fn s1_applies_even_in_tests_and_benches() {
    let hits = rules_hit(
        "crates/sim/tests/fixture.rs",
        include_str!("fixtures/s1_fail.rs"),
    );
    assert_eq!(hits, vec![RuleId::S1]);
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
    // The committed idiom for dual-rule sites (e.g. S2 + C2 in the sim
    // crate): both markers ride one `// lint:` comment, each with its
    // own reason — stacking two comment lines would push the first out
    // of the one-line suppression window.
    let src = "pub fn f(xs: &mut [f64]) {\n    \
               // lint: library-panic-ok (inputs NaN-free) float-reduction-ok (same invariant)\n    \
               xs.sort_by(|a, b| a.partial_cmp(b).unwrap());\n}\n";
    assert_clean(ANALYSIS_LIB, src);
}
