#!/usr/bin/env sh
# Repo-wide sanity gate: formatting, lints, build, tests, report smoke.
# `--help` lists the modes; at most one may be given.
#
# Everything runs with --offline: the container has no crates.io access and
# all dependencies are workspace-local (see DESIGN.md §8).
set -eu

cd "$(dirname "$0")/.."

usage() {
    cat <<'EOF'
usage: scripts/check.sh [MODE]

Default (no flag): lint, fmt, clippy, build, doc links, tests, paper and profile smoke.

Modes (at most one):
  --lint     borg-lint only, held to its 5 s budget (fast pre-commit loop)
  --chaos    chaos roundtrip, corruption detection, trace-kernel
             differential/fuzz suites, borg-trace unit tests and borg-sim's
             end-of-run checker tests, then the f32 bucket writer against
             Display on all 2^32 bit patterns (release build; 5.5 min of
             the mode's 6.5 on two cores)
  --pipeline pipeline-bench self-check only (benchmark/run.sh --check: unit tests + 5 tiny workloads)
  --help     this text
EOF
}

mode=
for arg in "$@"; do
    case "$arg" in
    --lint | --chaos | --pipeline)
        if [ -n "$mode" ]; then
            echo "more than one mode: $mode $arg" >&2
            usage >&2
            exit 2
        fi
        mode=$arg
        ;;
    --help | -h)
        usage
        exit 0
        ;;
    *)
        echo "unknown flag: $arg" >&2
        usage >&2
        exit 2
        ;;
    esac
done

if [ "$mode" = --pipeline ]; then
    echo "==> pipeline-bench self-check (unit tests + five workloads, tiny inputs, both modes)"
    bash benchmark/run.sh --check
    echo "Pipeline check passed."
    exit 0
fi

if [ "$mode" = --chaos ]; then
    echo "==> chaos roundtrip (fault injection & trace repair)"
    cargo test -p borg2019 --test chaos_roundtrip --offline -q
    echo "==> trace kernels vs reference implementations (differential + fuzz), corruption detection"
    cargo test -p borg-trace --test differential --test csv_fuzz --test corruption_detection --offline -q
    echo "==> the lifecycle walk's unit tests (borg-trace lib, borg-sim end-of-run checker)"
    cargo test -p borg-trace --lib --offline -q
    cargo test -p borg-sim --lib --offline -q check::
    echo "==> f32 bucket writer vs Display, every bit pattern (release)"
    cargo test --release -p borg-trace --lib --offline -- --ignored --nocapture
    echo "Chaos check passed."
    exit 0
fi

# borg-lint: workspace determinism & soundness rules (DESIGN.md §10).
# Runs first — it needs only `cargo build -p borg-lint`, so it reports
# before the full workspace compiles. The analysis is budgeted at 5 s of
# wall time — the linter sits on the pre-commit path, so its cost is a
# contract. The figure is the `X ms` of the linter's own `borg-lint: clean
# (N files, X ms)` line, so the guard is independent of cargo's compile
# time on a cold target dir; `crates/lint/tests/cli.rs` pins that line.
LINT_BUDGET_MS=5000
run_lint() {
    echo "==> borg-lint (determinism & soundness rules)"
    status=0
    report=$(cargo run -q --release -p borg-lint --offline -- --root .) || status=$?
    printf '%s\n' "$report"
    if [ "$status" -ne 0 ]; then
        exit "$status"
    fi
    total_ms=$(printf '%s\n' "$report" | sed -n 's/^borg-lint: clean (.*, \([0-9.]*\) ms)$/\1/p')
    if [ -z "$total_ms" ]; then
        echo "lint budget: no \`borg-lint: clean (N files, X ms)\` line in the report" >&2
        exit 1
    fi
    if ! awk -v t="$total_ms" -v b="$LINT_BUDGET_MS" 'BEGIN { exit !(t <= b) }'; then
        echo "lint budget: analysis took ${total_ms} ms, budget ${LINT_BUDGET_MS} ms" >&2
        exit 1
    fi
    echo "lint budget: ${total_ms} ms of ${LINT_BUDGET_MS} ms"
}

if [ "$mode" = --lint ]; then
    run_lint
    echo "Lint check passed."
    exit 0
fi

run_lint

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> cargo build --release"
cargo build --release --workspace --offline

echo "==> cargo doc (deny broken intra-doc links)"
RUSTDOCFLAGS="-D rustdoc::broken_intra_doc_links" cargo doc --workspace --no-deps --offline

echo "==> cargo test"
cargo test --workspace --offline -q

echo "==> paper smoke (every table, figure and section at tiny scale)"
cargo run -q --release -p borg-experiments --offline --bin paper -- --scale tiny >/dev/null

echo "==> telemetry profile smoke (64-machine cell-day)"
cargo run -q --release -p borg-experiments --offline --bin profile -- --machines 64 >/dev/null

echo "All checks passed."
