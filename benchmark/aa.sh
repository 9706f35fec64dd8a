#!/usr/bin/env bash
# A/A check: the untraced suite ten times per workload (ten seeds),
# twice on the same build, held to the bounds in BENCHMARK.json: each
# set's quartile spread as the benchmark driver takes it, the two
# medians in either direction. One row per (metric, workload) pair with
# both medians and quartiles. Exits non-zero on disagreement.
#
#   benchmark/aa.sh [--seed S] [--seconds S]
set -euo pipefail
exec "$(dirname "${BASH_SOURCE[0]}")/run.sh" aa "$@"
