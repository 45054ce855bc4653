#!/usr/bin/env bash
# CI entry point: tier-1 verify with warnings promoted to errors, a
# Release (-DNDEBUG) ctest leg so assert-stripped builds run the full
# suite (runtime-counted invariants like
# MemoryResult::unclear_syndromes are exercised where asserts are
# gone), Release-mode smoke runs of the examples, and a btwc_run
# scenario leg that validates the unified JSON Report and archives it
# as BENCH_scenario.json, and the repo benchmark's smoke test.
#
#   ./ci.sh            # full verify + Release suite + smoke
#   ./ci.sh --verify   # tier-1 verify (plus its deep-audit rerun) only
#   ./ci.sh --asan     # ASan+UBSan build + full ctest + audited scenario
#   ./ci.sh --tsan     # TSan build + concurrency tests + --threads 4 run
set -euo pipefail
cd "$(dirname "$0")"

JOBS="$(nproc 2>/dev/null || echo 2)"

# Probe whether the toolchain can link a given -fsanitize= combination
# (the runtime libs are separate packages; mirror the skip-not-fail
# policy of the micro_decoders and thread-scaling legs).
sanitizer_supported() {
    local probe_dir
    probe_dir="$(mktemp -d)"
    local ok=0
    echo 'int main() { return 0; }' > "${probe_dir}/probe.cpp"
    if c++ "-fsanitize=$1" -o "${probe_dir}/probe" \
           "${probe_dir}/probe.cpp" > /dev/null 2>&1; then
        ok=1
    fi
    rm -rf "${probe_dir}"
    [[ "${ok}" == 1 ]]
}

if [[ "${1:-}" == "--asan" ]]; then
    echo "== ASan+UBSan leg =="
    if ! sanitizer_supported "address,undefined"; then
        echo "toolchain cannot link -fsanitize=address,undefined;"
        echo "ASan leg skipped"
        exit 0
    fi
    cmake -B build-asan -S . \
          -DCMAKE_BUILD_TYPE=RelWithDebInfo \
          -DBTWC_SANITIZE=address,undefined
    cmake --build build-asan -j "${JOBS}"
    ctest --test-dir build-asan --output-on-failure --no-tests=error \
          -j "${JOBS}"
    # Deep-audit scenario under the sanitizers: the structural audit()
    # scans walk every container the fast paths touch, so ASan sees
    # the full object graph, not just what the metrics read.
    ./build-asan/btwc_run quick --threads 1 --audit deep \
        --json build-asan/BENCH_asan.json > /dev/null
    echo "ASan+UBSan OK"
    exit 0
fi

if [[ "${1:-}" == "--tsan" ]]; then
    echo "== TSan leg =="
    if ! sanitizer_supported "thread"; then
        echo "toolchain cannot link -fsanitize=thread; TSan leg skipped"
        exit 0
    fi
    cmake -B build-tsan -S . \
          -DCMAKE_BUILD_TYPE=RelWithDebInfo \
          -DBTWC_SANITIZE=thread
    cmake --build build-tsan -j "${JOBS}"
    # Concurrency-relevant suites only: TSan's 5-15x slowdown makes
    # the full matrix impractical, and the single-threaded decoders
    # are covered by the ASan leg.
    ctest --test-dir build-tsan --output-on-failure --no-tests=error \
          -j "${JOBS}" -R 'Engine|Fleet|Thread|Api'
    CORES="$(nproc 2>/dev/null || echo 1)"
    if [[ "${CORES}" -ge 2 ]]; then
        # The shared-link fleet is the most contended multi-thread
        # path: sharded tenants + one shared off-chip service.
        ./build-tsan/btwc_run fleet-shared-narrow --threads 4 \
            --cycles 1000 --json build-tsan/BENCH_tsan.json > /dev/null
        ./build-tsan/btwc_run quick --threads 4 --audit basic \
            --json build-tsan/BENCH_tsan_quick.json > /dev/null
    else
        echo "single core (nproc=${CORES}): --threads 4 TSan scenario"
        echo "skipped (no real interleaving to observe; mirror of the"
        echo "thread-scaling leg's skip-not-fail policy)"
    fi
    echo "TSan OK"
    exit 0
fi

echo "== docs check =="
# README.md must exist and quote the exact tier-1 verify command that
# ROADMAP.md declares, so the two can never drift apart.
test -f README.md || { echo "README.md missing" >&2; exit 1; }
TIER1="$(sed -n 's/^\*\*Tier-1 verify:\*\* `\(.*\)`$/\1/p' ROADMAP.md)"
test -n "${TIER1}" || { echo "ROADMAP.md tier-1 line missing" >&2; exit 1; }
grep -Fq "${TIER1}" README.md || {
    echo "README.md verify command does not match ROADMAP.md:" >&2
    echo "  ${TIER1}" >&2
    exit 1
}
test -f src/core/README.md || { echo "src/core/README.md missing" >&2; exit 1; }
test -f src/api/README.md || { echo "src/api/README.md missing" >&2; exit 1; }
echo "docs OK"

echo
echo "== repo lint (tools/lint.sh) =="
bash tools/lint.sh

echo
echo "== tier-1 verify (-Werror) =="
cmake -B build-ci -S . \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DCMAKE_CXX_FLAGS="-Werror"
cmake --build build-ci -j "${JOBS}"
ctest --test-dir build-ci --output-on-failure --no-tests=error -j "${JOBS}"

echo
echo "== deep-audit ctest (BTWC_AUDIT=deep, same build) =="
# The whole suite again with every structural audit armed, not only
# the tests that raise the level themselves: a test whose inputs break
# an audited contract (e.g. two outstanding requests on one half)
# fails here instead of passing unaudited.
BTWC_AUDIT=deep ctest --test-dir build-ci --output-on-failure \
    --no-tests=error -j "${JOBS}"

if [[ "${1:-}" == "--verify" ]]; then
    exit 0
fi

echo
echo "== clang-tidy (compile_commands.json) =="
# Static-analysis sweep over the library sources with the pinned
# .clang-tidy profile. Guarded like the micro_decoders leg: absent
# tooling skips, it never fails the build for a missing binary.
if command -v clang-tidy > /dev/null 2>&1; then
    if command -v run-clang-tidy > /dev/null 2>&1; then
        run-clang-tidy -p build-ci -quiet "src/.*\.cpp$"
    else
        find src -name '*.cpp' -print0 |
            xargs -0 -n 8 -P "${JOBS}" clang-tidy -p build-ci --quiet
    fi
    echo "clang-tidy OK"
else
    echo "clang-tidy not installed; leg skipped"
fi

echo
echo "== Release (-DNDEBUG) ctest =="
cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release
cmake --build build-release -j "${JOBS}"
ctest --test-dir build-release --output-on-failure --no-tests=error \
      -j "${JOBS}"

echo
echo "== Release smoke: examples/quickstart =="
./build-release/quickstart --distance 5 --p 0.003 --cycles 2000
echo
echo "== Release smoke: three-tier sharded lifetime =="
./build-release/sweep_explorer lifetime --distance 9 --p 0.005 \
    --cycles 20000 --tiers clique,uf,mwpm --threads 0
echo
echo "== Release smoke: async off-chip pipeline =="
./build-release/sweep_explorer lifetime --pipeline --real_offchip \
    --distance 7 --p 0.008 --cycles 20000 \
    --offchip-latency 4 --offchip-bandwidth 1 --batch 8
echo
echo "== Release smoke: shared-link fleet provisioning =="
./build-release/fleet_provisioning --shared-link --fleet-size 12 \
    --distance 5 --p 0.006 --qubits 200 --cycles 4000 \
    --exact_cycles 1500 --hot-fraction 0.1 --hot-mult 8
echo
echo "== scenario API: btwc_run -> BENCH_scenario.json =="
# Run a fast registry scenario through the unified front door and
# archive its machine-readable Report — the BENCH_* perf trajectory.
# --threads 1 keeps the metrics machine-independent (shard count
# changes the Monte-Carlo stream), which is what lets the btwc_diff
# gate below compare against the committed artifact bit-exactly. The
# JSON must parse and carry the schema's required top-level sections.
FRESH_SCENARIO="build-release/BENCH_scenario.fresh.json"
# --repeat 3 reports the median-walltime run: the metrics subtree is
# identical across repeats (fixed RNG stream), so the btwc_diff gate
# is unaffected while the archived walltime sidecar is de-noised.
# --audit deep turns on every structural audit() scan and the packed/
# byte cross-path re-decode (common/check.hpp): audits consume no
# randomness and alter no metrics, so the btwc_diff gate doubles as a
# machine check that deep auditing is observationally free.
./build-release/btwc_run quick --threads 1 --repeat 3 --audit deep \
    --json "${FRESH_SCENARIO}" > /dev/null
if command -v python3 > /dev/null 2>&1; then
    python3 - "${FRESH_SCENARIO}" <<'EOF'
import json
import sys
with open(sys.argv[1]) as f:
    data = json.load(f)
for key in ("scenario", "config", "metrics", "walltime"):
    assert key in data, f"BENCH_scenario.json missing '{key}'"
assert data["scenario"]["kind"] == "lifetime", data["scenario"]
assert data["metrics"]["cycles"] > 0, data["metrics"]
assert data["walltime"]["walltime_ms"] > 0, data["walltime"]
print("BENCH_scenario.json OK "
      f"(kind={data['scenario']['kind']}, "
      f"cycles={data['metrics']['cycles']}, "
      f"walltime_ms={data['walltime']['walltime_ms']:.1f})")
EOF
else
    # No python3: structural grep fallback on the stable key order.
    for key in '"scenario"' '"config"' '"metrics"' '"walltime"'; do
        grep -Fq "${key}" "${FRESH_SCENARIO}" || {
            echo "BENCH_scenario.json missing ${key}" >&2
            exit 1
        }
    done
    echo "BENCH_scenario.json OK (grep fallback)"
fi

echo
echo "== perf trajectory gate: btwc_diff vs committed BENCH_scenario.json =="
# The regression gate: the fresh Report's metrics subtree must match
# the committed artifact exactly (counters) / within tolerance
# (floats). Wall-clock lives under the sibling `walltime` subtree and
# never trips the gate. The committed artifact is only touched by an
# intentional refresh (the cp below, run by hand when a metrics
# change is deliberate), never by a passing CI run — otherwise every
# invocation would dirty the tree with machine-local walltime.
./build-release/btwc_diff BENCH_scenario.json "${FRESH_SCENARIO}" || {
    echo "metrics drifted; if intentional:" >&2
    echo "  cp ${FRESH_SCENARIO} BENCH_scenario.json  # and commit" >&2
    exit 1
}

echo
echo "== streaming decode gate: btwc_run stream-quick -> BENCH_stream.json =="
# The sliding-window streaming leg: the pinned stream-quick scenario
# (UF-screened sliding-window MWPM over a 4k-round syndrome stream)
# runs single-threaded under deep audits — every window decode
# re-proves the defect conservation ledger and the pair-path XOR
# contract — and its metrics subtree (counters, commit-lag histogram,
# conservation totals) must match the committed artifact exactly. The
# walltime sidecar carries the sustained decodes/sec and rounds/sec.
FRESH_STREAM="build-release/BENCH_stream.fresh.json"
./build-release/btwc_run stream-quick --threads 1 --repeat 3 --audit deep \
    --json "${FRESH_STREAM}" > /dev/null
./build-release/btwc_diff BENCH_stream.json "${FRESH_STREAM}" || {
    echo "stream metrics drifted; if intentional:" >&2
    echo "  cp ${FRESH_STREAM} BENCH_stream.json  # and commit" >&2
    exit 1
}

echo
echo "== decode fabric gate: btwc_run fabric-quick -> BENCH_fabric.json =="
# The multi-tenant fabric leg: the pinned fabric-quick scenario (a
# 2-link priority fabric with a hot tenant quartile and per-request
# deadlines) runs single-threaded under deep audits — conservation
# across links, the per-request starvation bound, and the FIFO
# head check are all re-proved every cycle — and its metrics
# subtree, including the per-link and per-tenant tables under
# metrics.fabric, must match the committed artifact exactly.
FRESH_FABRIC="build-release/BENCH_fabric.fresh.json"
./build-release/btwc_run fabric-quick --threads 1 --repeat 3 --audit deep \
    --json "${FRESH_FABRIC}" > /dev/null
./build-release/btwc_diff BENCH_fabric.json "${FRESH_FABRIC}" || {
    echo "fabric metrics drifted; if intentional:" >&2
    echo "  cp ${FRESH_FABRIC} BENCH_fabric.json  # and commit" >&2
    exit 1
}

echo
echo "== chaos fabric gate: btwc_run fabric-chaos -> BENCH_chaos.json =="
# The fault-injection leg: the pinned fabric-chaos scenario (a 2-link
# EDF fabric under a flapping link, delivery loss/duplication/
# corruption, and a beyond-bandwidth tenant surge, with the full
# degradation stack — timeout+retry, UF fallback, shedding, failover)
# runs single-threaded under deep audits. The fault draws are a pure
# hash stream keyed by (fseed, link, index), so the chaos run is as
# deterministic as the fault-free ones and its metrics subtree —
# including the metrics.faults ledger — diffs bit-exactly against the
# committed artifact.
FRESH_CHAOS="build-release/BENCH_chaos.fresh.json"
./build-release/btwc_run fabric-chaos --threads 1 --repeat 3 --audit deep \
    --json "${FRESH_CHAOS}" > /dev/null
./build-release/btwc_diff BENCH_chaos.json "${FRESH_CHAOS}" || {
    echo "chaos metrics drifted; if intentional:" >&2
    echo "  cp ${FRESH_CHAOS} BENCH_chaos.json  # and commit" >&2
    exit 1
}

echo
echo "== chaos soak: 10k-cycle flapping link under deep audits =="
# Long-horizon graceful-degradation soak (unpinned: it asserts bounds,
# not exact numbers — the pinning lives in the gate above). Every
# cycle re-proves the queue conservation, the fault ledger, and the
# cross-link audit; afterwards the run must have reached steady state:
# a bounded worst-case backlog and no leaked requests.
SOAK_SPEC="kind=fabric,d=3,p=6e-3,policy=mwpm,fleet=4,links=2"
SOAK_SPEC+=",scheduler=deadline,deadline=8,latency=2,bandwidth=1"
SOAK_SPEC+=",timeout=10,retries=1,shed=true,migrate=32"
SOAK_SPEC+=",faults=outage:500:60;drop:0.05;dup:0.05;corrupt:0.05;surge:250:40:2"
SOAK_SPEC+=",cycles=10000"
./build-release/btwc_run "${SOAK_SPEC}" --threads 1 --audit deep \
    --json build-release/BENCH_chaos_soak.json > /dev/null
if command -v python3 > /dev/null 2>&1; then
    python3 - build-release/BENCH_chaos_soak.json <<'EOF'
import json
import sys
with open(sys.argv[1]) as f:
    data = json.load(f)
m = data["metrics"]
assert m["max_backlog"] < 500, f"soak backlog unbounded: {m['max_backlog']}"
assert m["pending"] <= 16, f"soak leaked requests: pending={m['pending']}"
f = m["faults"]
assert f["outage_cycles"] > 0 and f["surge_enqueued"] > 0, f
print("chaos soak OK "
      f"(max_backlog={m['max_backlog']}, pending={m['pending']}, "
      f"shed={f['shed']}, degraded={f['degraded']}, "
      f"migrations={f['migrations']})")
EOF
else
    grep -Fq '"faults"' build-release/BENCH_chaos_soak.json || {
        echo "chaos soak report missing metrics.faults" >&2
        exit 1
    }
    echo "chaos soak OK (grep fallback)"
fi

echo
echo "== repo benchmark smoke: benchmark/ -> build-bench =="
# The standalone benchmark project (benchmark/README.md) rebuilds the
# library in Release and its smoke test runs every workload at 1/100
# volume through both passes. Its replicas drive the public tenant/link
# API (attach_shared_service, deliver_offchip_correction, tenant_stats)
# and must reproduce run_scenario's metrics exactly, so this leg
# catches an API or behaviour slip in the off-chip transport.
cmake -S benchmark -B build-bench -DCMAKE_BUILD_TYPE=Release
cmake --build build-bench -j "${JOBS}"
ctest --test-dir build-bench --output-on-failure --no-tests=error

echo
echo "== micro benchmarks: micro_decoders -> BENCH_decoders.json =="
# Matcher/decoder microbenchmarks join the perf trajectory next to the
# scenario Report. --benchmark_min_time is pinned so archived numbers
# are comparable across commits; the run lands in build-release/ (CI
# artifact), and the committed BENCH_decoders.json snapshot is
# refreshed by hand alongside hot-path changes. Skipped gracefully
# when google-benchmark is absent (micro_decoders is not built then).
if [[ -x build-release/micro_decoders ]]; then
    ./build-release/micro_decoders \
        --benchmark_filter='BM_MwpmDecodeSingle|BM_MwpmDecodeSyndrome|BM_MwpmDecodeMemory|BM_MwpmDecodeWindow|BM_SpacetimeMwpmWindow|BM_LutDecode|BM_CliqueScreen|BM_UnionFindDecodeSyndrome|BM_UnionFindDecodeWindow|BM_UnionFindDecodePair|BM_FrameInject|BM_SyndromeExtract|BM_StreamWindowDecode|BM_BtwcSystemStep|BM_TierChainDeepDecode|BM_LatticeBuild|BM_CheckDistancesBuild' \
        --benchmark_min_time=0.05 \
        --json build-release/BENCH_decoders.json
else
    echo "micro_decoders not built (google-benchmark missing); skipped"
fi

echo
echo "== thread-scaling leg =="
# Multi-core scaling of the packed per-cycle pipeline. On a
# multi-core runner, measure decodes/sec at --threads 1/2(/4) into
# build-release/BENCH_threads.json (walltime sidecar only — metrics
# change with the shard count, so no btwc_diff gate applies here). On
# a single-core runner real scaling numbers would be noise, so assert
# sharded determinism instead: the same sharded run twice must report
# identical metrics (skip-not-fail, never a red X for lack of cores).
CORES="$(nproc 2>/dev/null || echo 1)"
if [[ "${CORES}" -ge 2 ]]; then
    THREAD_POINTS="1 2"
    if [[ "${CORES}" -ge 4 ]]; then
        THREAD_POINTS="1 2 4"
    fi
    for t in ${THREAD_POINTS}; do
        ./build-release/btwc_run quick --threads "${t}" --repeat 3 \
            --json "build-release/BENCH_threads.t${t}.json" > /dev/null
    done
    if command -v python3 > /dev/null 2>&1; then
        python3 - "${THREAD_POINTS}" <<'EOF'
import json
import sys
points = {}
for t in sys.argv[1].split():
    with open(f"build-release/BENCH_threads.t{t}.json") as f:
        data = json.load(f)
    points[t] = data["walltime"]["cycles_per_sec"]
base = points[sorted(points, key=int)[0]]
out = {
    "threads": {
        t: {
            "cycles_per_sec": rate,
            "speedup": rate / base if base > 0 else 0.0,
        }
        for t, rate in points.items()
    }
}
with open("build-release/BENCH_threads.json", "w") as f:
    json.dump(out, f, indent=2)
    f.write("\n")
for t, rate in points.items():
    print(f"threads={t}: {rate:.0f} cycles/sec "
          f"({rate / base:.2f}x vs threads=1)")
EOF
    else
        echo "python3 missing; per-point JSONs kept, summary skipped"
    fi
else
    echo "single core (nproc=${CORES}): scaling skipped, checking"
    echo "sharded determinism instead"
    ./build-release/btwc_run quick --threads 2 \
        --json build-release/BENCH_threads.det1.json > /dev/null
    ./build-release/btwc_run quick --threads 2 \
        --json build-release/BENCH_threads.det2.json > /dev/null
    ./build-release/btwc_diff build-release/BENCH_threads.det1.json \
        build-release/BENCH_threads.det2.json
fi

echo
echo "CI OK"
