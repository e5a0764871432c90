#!/usr/bin/env bash
# pipeline-bench: build, generate inputs from the seed, run one workload,
# check its outputs, print every metric by name with its unit.
#
#   benchmark/run.sh <workload> [--seed N] [--seconds S] [--traced]
#   benchmark/run.sh --workload <name> --seed N --seconds S --trace 0|1
#   benchmark/run.sh --check        # all five workloads, tiny inputs, plus unit tests
#
# Everything the run writes goes under the cargo target directory
# (CARGO_TARGET_DIR if set, else target/benchmark at the repo root).
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
target="${CARGO_TARGET_DIR:-$root/target/benchmark}"
case "$target" in
    /*) ;;
    *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"
export PIPELINE_BENCH_OUT="$target"
PIPELINE_BENCH_RUSTC="$(rustc --version 2>/dev/null || echo unknown)"
PIPELINE_BENCH_COMMIT="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
export PIPELINE_BENCH_RUSTC PIPELINE_BENCH_COMMIT

manifest="$here/Cargo.toml"
cargo build --release --offline --manifest-path "$manifest" >&2
bin="$target/release/pipeline-bench"

if [[ "${1:-}" == "--check" ]]; then
    cargo test --release --offline --quiet --manifest-path "$manifest" >&2
    for workload in cell_day_512 paper_small trace_roundtrip sql_battery serve_closed; do
        for trace in 0 1; do
            out="$("$bin" --check --workload "$workload" --seconds 1 --trace "$trace")"
            echo "$workload --trace $trace: $(grep '^checks:' <<<"$out")"
        done
    done
    echo "pipeline-bench --check: ok"
    exit 0
fi

exec "$bin" "$@"
