#pragma once

/**
 * @file
 * Helpers shared by the golden-vector tests (test_pairings.cpp,
 * test_uf_decodes.cpp, test_mwpm_corrections.cpp): the FNV-1a-64 fold
 * behind their hash columns and the phenomenological event generator
 * their decode corpora draw from. Both are part of what the committed
 * files under tests/golden/ pin: changing either moves those files.
 */

#include <cstdint>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "decoders/decoder.hpp"
#include "surface/lattice.hpp"

namespace btwc {

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr uint64_t kFnvPrime = 0x100000001b3ull;

/** Fold the 8 little-endian bytes of `v` into an FNV-1a-64 hash. */
inline uint64_t
fnv1a(uint64_t h, int64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (static_cast<uint64_t>(v) >> (8 * i)) & 0xff;
        h *= kFnvPrime;
    }
    return h;
}

/**
 * Phenomenological detection events over `rounds` rounds: data flips
 * and measurement flips at rate p. With `close` the last round is
 * measured perfectly (a full memory window); without it every round
 * is noisy (a window cut from the middle of a stream). Self-contained
 * (code geometry and Rng only) so the corpora do not move when the
 * frame or extraction code does.
 */
inline std::vector<DetectionEvent>
phenomenological_events(const RotatedSurfaceCode &code, CheckType detector,
                        int rounds, double p, bool close, Rng &rng)
{
    const int nc = code.num_checks(detector);
    PackedBits error(code.num_data());
    PackedSyndrome prev(nc);
    PackedSyndrome cur;
    std::vector<DetectionEvent> events;
    for (int t = 0; t < rounds; ++t) {
        for (int q = 0; q < code.num_data(); ++q) {
            if (rng.bernoulli(p)) {
                error.flip(q);
            }
        }
        code.syndrome_of(detector, error, cur);
        if (!close || t + 1 < rounds) {
            for (int c = 0; c < nc; ++c) {
                if (rng.bernoulli(p)) {
                    cur.flip(c);
                }
            }
        }
        for (int c = 0; c < nc; ++c) {
            if (cur.test(c) != prev.test(c)) {
                events.push_back(DetectionEvent{c, t});
            }
        }
        std::swap(prev, cur);
    }
    return events;
}

} // namespace btwc
