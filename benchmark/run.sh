#!/usr/bin/env bash
# Build the benchmark and the `hetsort` CLI it spawns, then run it.
#
#   benchmark/run.sh [--seed S] [--smoke]
#       every workload, untraced then traced, each in a fresh process
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one pass of one workload (what the BENCHMARK.json command runs)
#   benchmark/run.sh aa ...   see aa.sh
#
# Build output goes to $CARGO_TARGET_DIR when set (a relative path is
# relative to the repository root), else to the root's target/.
# Everything but the result goes to standard error.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
cargo build --release --offline --quiet --manifest-path Cargo.toml --bin hetsort >&2
exec "$CARGO_TARGET_DIR/release/hetsort-benchmark" "$@"
