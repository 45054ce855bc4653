#!/usr/bin/env bash
# Build the benchmark (Release) and run btwc_bench from the repository
# root. See benchmark/README.md.
#
#   benchmark/run.sh                     every workload, every pass;
#                                        results in $BUILD_DIR/
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#                                        one workload, one pass, last
#                                        stdout line = JSON result
#
# Environment: SEED (default 1) and OUT (results JSON) for the full
# run; BUILD_DIR, or CARGO_TARGET_DIR, picks the build directory
# (default build-bench). Build output goes to stderr.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="${BUILD_DIR:-${CARGO_TARGET_DIR:-build-bench}}"

jobs="$(nproc 2>/dev/null || echo 2)"
if [ "$jobs" -gt 4 ]; then
    jobs=4
fi
generator=()
if [ ! -f "$build/CMakeCache.txt" ] && command -v ninja >/dev/null 2>&1; then
    generator=(-G Ninja)
fi
{
    cmake -S benchmark -B "$build" -DCMAKE_BUILD_TYPE=Release "${generator[@]}"
    cmake --build "$build" --target btwc_bench --parallel "$jobs"
} >&2

args=(--config benchmark/workloads.json --benchmark BENCHMARK.json)
if [ -e .git ]; then
    args+=(--rev "$(git rev-parse HEAD 2>/dev/null || echo unknown)")
fi
if [ "$#" -eq 0 ]; then
    seed="${SEED:-1}"
    args+=(--seed "$seed"
           --json "${OUT:-$build/btwc_bench-seed$seed.json}"
           --spans "$build/btwc_bench-seed$seed.spans.jsonl")
fi
exec "$build/btwc_bench" "${args[@]}" "$@"
