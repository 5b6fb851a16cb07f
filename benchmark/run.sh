#!/usr/bin/env bash
# Builds pdl_bench from this checkout (Release, into build-bench/) and runs
# it.  Every argument is passed through:
#
#   benchmark/run.sh [--workload NAME] [--seed N] [--seconds S]
#                    [--trace [0|1]] [--dir D] [--self-test]
#
# Without --workload it runs all three workloads.  Paths are relative to the
# repository root.  Build output goes to stderr, so the last line of stdout
# is the benchmark's JSON result.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

cmake -S benchmark -B build-bench -DCMAKE_BUILD_TYPE=Release >&2
cmake --build build-bench --target pdl_bench -j "$(nproc)" >&2

exec build-bench/pdl_bench "$@"
