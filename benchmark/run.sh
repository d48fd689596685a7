#!/usr/bin/env bash
# One command: build the harness in release mode, run one workload in
# its own process, check its outputs, print every metric by name.
#
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   benchmark/run.sh --smoke
#   benchmark/run.sh --selfcheck
#
# Builds into $CARGO_TARGET_DIR when set, else benchmark/target; writes
# summaries and traces to benchmark/out. Nothing outside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"

cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2

DHP_BENCH_RUSTC="$(rustc --version)"
DHP_BENCH_COMMIT="$(git -C "$here" rev-parse --short HEAD 2>/dev/null || echo unknown)"
export DHP_BENCH_RUSTC DHP_BENCH_COMMIT
exec "$target/release/dhp-benchmark" "$@"
