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
    std::vector<uint8_t> error(static_cast<size_t>(code.num_data()), 0);
    std::vector<uint8_t> prev(static_cast<size_t>(nc), 0);
    std::vector<uint8_t> cur;
    std::vector<DetectionEvent> events;
    for (int t = 0; t < rounds; ++t) {
        for (uint8_t &e : error) {
            e ^= rng.bernoulli(p) ? 1 : 0;
        }
        code.syndrome_of(detector, error, cur);
        if (!close || t + 1 < rounds) {
            for (uint8_t &s : cur) {
                s ^= rng.bernoulli(p) ? 1 : 0;
            }
        }
        for (int c = 0; c < nc; ++c) {
            if ((cur[c] ^ prev[c]) & 1) {
                events.push_back(DetectionEvent{c, t});
            }
        }
        prev.swap(cur);
    }
    return events;
}

} // namespace btwc
