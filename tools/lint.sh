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

# One key table: every scenario key, spelling and enum value name lives
# in a row or name list of src/api/scenario.cpp, matched by loops over
# them. A string-literal comparison there would be a second,
# hand-written grammar beside the table.
if grep_code '[!=]=[[:space:]]*"' src/api/scenario.cpp; then
    fail "string-literal comparison in src/api/scenario.cpp; add a key-table row or value name"
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
