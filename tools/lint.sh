#!/usr/bin/env bash
# Repo-convention lint. Cheap greps over src/ enforcing the rules the
# contract subsystem and the determinism story depend on; wired into
# the ci.sh docs-check stage so a violation fails CI before anything
# compiles. Each check prints every offending line, so a red run is
# actionable without re-running locally.
#
#   tools/lint.sh          # run all checks
set -euo pipefail
cd "$(dirname "$0")/.."

FAILED=0

fail() {
    echo "lint: $1" >&2
    FAILED=1
}

# grep -rn wrapper that drops comment lines (`//`, `*`, `/*` prefixed)
# from the matches: prose like "wall-clock (…" or "@param time_weight"
# is not a convention violation. Returns 0 (and prints the offenders)
# when any non-comment match survives.
grep_code() {
    local pattern="$1"
    shift
    grep -rnE "${pattern}" "$@" --include='*.cpp' --include='*.hpp' |
        grep -vE '^[^:]+:[0-9]+:[[:space:]]*(//|\*|/\*)' |
        grep . # exit 0 iff matches survive the comment filter
}

# -- contract tiering ---------------------------------------------------
# Raw assert() is banned in the library: it vanishes under -DNDEBUG
# (both CI build types define it), aborts instead of throwing, and
# carries no message. Use BTWC_CHECK / BTWC_DCHECK / BTWC_AUDIT from
# common/check.hpp (the one definition site may spell "assert" in
# comments; only call-spellings are matched).
if grep_code '(^|[^_[:alnum:]])assert[[:space:]]*\(' src; then
    fail "raw assert() in src/; use BTWC_CHECK / BTWC_DCHECK / BTWC_AUDIT"
fi
if grep_code '<cassert>|<assert\.h>' src; then
    fail "cassert include in src/; common/check.hpp replaces it"
fi

# -- determinism --------------------------------------------------------
# Every Monte-Carlo stream is seeded; nondeterministic sources would
# silently break bit-exact reports, the btwc_diff gate, and sharded
# reproducibility. (The [^_[:alnum:]"] guard keeps identifiers like
# walltime_ms, lifetime( and string literals out of the match.)
if grep_code '[^_[:alnum:]"](rand|srand|time|clock|gettimeofday)[[:space:]]*\(' \
        src; then
    fail "nondeterminism source in src/; all randomness must flow from seeds"
fi
if grep_code 'random_device' src; then
    fail "std::random_device in src/; all randomness must flow from seeds"
fi

# One Bernoulli walk: every gap-skipping sweep runs on GapSampler,
# which draws what Rng::geometric draws but skips the logarithm on the
# draw that ends a walk. A direct geometric() call outside
# common/rng.* would grow a second walk beside it.
if grep_code '(\.|->)geometric[[:space:]]*\(' src |
        grep -v '^src/common/rng\.'; then
    fail "geometric() called outside src/common/rng.*; walk a GapSampler"
fi

# One fleet harness: run_fabric (src/fabric/harness.cpp) is the one
# loop that steps a fleet of BtwcSystem tenants in lockstep, for the
# fabric and the exact fleet alike. A second tenant vector in src/
# would grow a second harness beside it.
if grep_code 'vector[[:space:]]*<[[:space:]]*BtwcSystem[[:space:]]*>' src |
        grep -v '^src/fabric/harness\.cpp:'; then
    fail "vector<BtwcSystem> outside src/fabric/harness.cpp; run the fleet through run_fabric"
fi

# One tier walk: TierChain::decode_syndrome over a packed syndrome is
# the only walk through a decoder chain (the off-chip service resumes
# it per served request). A batch, event-list or byte-syndrome walk in
# src/ would grow a second one beside it.
if grep_code '(^|[^_[:alnum:]])(decode_batch|decode_batch_from|decode_from|events_from_syndrome)[[:space:]]*\(' \
        src; then
    fail "batch/event/byte tier walk in src/; call TierChain::decode_syndrome (resume with first_tier)"
fi

# One per-cycle pipeline: every harness extracts with measure_packed
# (or reads the noiseless syndrome()), filters with
# PackedMeasurementFilter and screens with CliqueDecoder::decode_packed.
# The byte extraction and byte filter remain only for the benchmark's
# replicas; a call elsewhere in src/ would grow a second pipeline.
if grep_code '(\.|->)measure(_perfect)?[[:space:]]*\(' src |
        grep -v '^src/surface/frame\.'; then
    fail "byte measure()/measure_perfect() outside src/surface/frame.*; call measure_packed or read syndrome()"
fi
if grep_code '(^|[^_[:alnum:]])MeasurementFilter([^_[:alnum:]]|$)' src |
        grep -v '^src/core/filter\.'; then
    fail "byte MeasurementFilter outside src/core/filter.*; use PackedMeasurementFilter"
fi

# One correction format: every decoder writes a packed correction (one
# bit per data qubit) into the caller's Result, and the frame applies
# it with the width-checked apply_mask. A side entry handing out a
# pooled mask, a second apply spelling (the apply_packed alias stays
# only for benchmark/replica.cpp) or a byte unpack of a correction
# would bring the byte masks back.
if grep_code '(^|[^_[:alnum:]])decode_mask[[:space:]]*\(' src; then
    fail "decode_mask( in src/; decode into the caller's Decoder::Result"
fi
if grep_code '(^|[^_[:alnum:]])apply_packed[[:space:]]*\(' src |
        grep -v '^src/surface/frame\.'; then
    fail "apply_packed( outside src/surface/frame.*; call apply_mask"
fi
if grep_code '(^|[^_[:alnum:]])to_bytes[[:space:]]*\(' src |
        grep -v '^src/surface/'; then
    fail "to_bytes( outside src/surface/; corrections stay packed"
fi

# One key table: every scenario key, spelling and enum value name lives
# in a row or name list of src/api/scenario.cpp, matched by loops over
# them. A string-literal comparison there would be a second,
# hand-written grammar beside the table.
if grep_code '[!=]=[[:space:]]*"' src/api/scenario.cpp; then
    fail "string-literal comparison in src/api/scenario.cpp; add a key-table row or value name"
fi

# No environment switches: the library reads one variable, the
# BTWC_AUDIT latch in src/common/check.cpp. A getenv() elsewhere in
# src/ would let a fast path or a behaviour ship behind a switch that
# no spec, flag or Report records.
if grep_code '(^|[^_[:alnum:]])(std::)?getenv[[:space:]]*\(' src |
        grep -v '^src/common/check\.cpp:'; then
    fail "getenv() in src/ outside src/common/check.cpp; add a spec key or flag instead"
fi

# -- hot-path idioms -----------------------------------------------------
# One popcount: without a POPCNT target (no build passes -mpopcnt) GCC
# lowers __builtin_popcount* to a libgcc call, so every count goes
# through popcount64 in src/surface/packed.hpp, which inlines on any
# target.
if grep_code '__builtin_popcount' src tests bench cli examples |
        grep -v '^src/surface/packed\.hpp:'; then
    fail "__builtin_popcount outside src/surface/packed.hpp; call popcount64 or and_parity"
fi

# MwpmDecoder loads its blossom instance in one pass through
# MaxWeightMatching::load_rows; a per-pair set_weight call there would
# bring back the per-edge build the row fill replaced.
if grep_code 'set_weight[[:space:]]*\(' src/matching/mwpm.cpp; then
    fail "set_weight( in src/matching/mwpm.cpp; load the instance with load_rows"
fi

# Flat lattice tables: RotatedSurfaceCode keeps each table in one flat
# array per check type (views over a shared support, owner slots,
# offset-plus-payload lists), so building a code costs a fixed number
# of allocations whatever d is. A nested vector in src/surface/ would
# bring back one allocation per check or per qubit.
if grep_code 'std::vector[[:space:]]*<[[:space:]]*std::vector' src/surface; then
    fail "nested std::vector in src/surface/; use a flat array with offsets or views"
fi

# Union-Find's per-call work follows its clusters: incident edges come
# from a per-check table plus the round index, so a new round count
# only extends the per-node arrays. A topology (edge list plus CSR
# incidence) rebuilt per round count would bring back work, and a
# rebuild at every flush tail, that scales with the window.
if grep_code 'prepare_topology[[:space:]]*\(|incident_offset' \
        src/matching/union_find.cpp src/matching/union_find.hpp; then
    fail "per-round-count topology cache in src/matching/union_find.*; derive incident edges from the per-check table"
fi

# -- header hygiene -----------------------------------------------------
# Every header carries #pragma once (the include graph is flat enough
# that guard macros would only invite copy-paste collisions).
MISSING_PRAGMA="$(grep -rL '^#pragma once' src --include='*.hpp' || true)"
if [[ -n "${MISSING_PRAGMA}" ]]; then
    echo "${MISSING_PRAGMA}"
    fail "header without #pragma once"
fi

# Includes are rooted at src/ (CMake adds it as the include dir);
# parent-relative paths break the flat-include convention and the
# clang-tidy compile database.
if grep_code '#include "\.\./' src tests bench cli examples; then
    fail 'parent-relative #include "../..."; include from the src/ root'
fi

if [[ "${FAILED}" != 0 ]]; then
    echo "lint FAILED" >&2
    exit 1
fi
echo "lint OK"
