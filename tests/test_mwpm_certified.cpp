/**
 * @file
 * The certified path of `MwpmDecoder` (src/decoders/README.md,
 * "Certified instances"): instances whose boundary matching a dual
 * certificate proves unique skip the blossom, and k <= 2 instances
 * take their forced pairing. The decoder's certified_decodes() and
 * blossom_decodes() counters tell the two paths apart.
 *
 *  - Seeded phenomenological instances under AuditLevel::Deep, where
 *    every certified instance is re-solved by the blossom and the two
 *    pairings must agree, over d in {5, 9, 13, 21}, rounds in
 *    {1, 8, d + 1}, sparse to dense noise, unit and (482, 412)
 *    weights.
 *  - Hand-built ties, whose optimum is not unique, never certify.
 *  - Crowded k >= 3 instances (2 k^2 > rounds * num_checks) skip the
 *    attempt.
 *
 * tests/test_pairings.cpp checks that the `decode:` corpus of
 * tests/golden/mwpm_pairings.txt takes both paths.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "golden_corpus.hpp"
#include "matching/mwpm.hpp"
#include "surface/distance.hpp"
#include "surface/lattice.hpp"

namespace btwc {
namespace {

/** Counter deltas of one decode through `decode_matched`. */
struct Decoded
{
    uint64_t certified = 0;
    uint64_t solved = 0;
    MwpmDecoder::Result result;
    MwpmMatches matches;
};

Decoded
decode_counted(const MwpmDecoder &decoder,
               const std::vector<DetectionEvent> &events, int rounds)
{
    Decoded out;
    const uint64_t certified0 = decoder.certified_decodes();
    const uint64_t solved0 = decoder.blossom_decodes();
    decoder.decode_matched(events, rounds, out.matches, out.result);
    out.certified = decoder.certified_decodes() - certified0;
    out.solved = decoder.blossom_decodes() - solved0;
    return out;
}

TEST(MwpmCertified, DeepAuditAgreesWithBlossomOnSeededInstances)
{
    ScopedAuditLevel deep(AuditLevel::Deep);
    const int targets[] = {1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64};
    const int weights[2][2] = {{1, 1}, {482, 412}};
    for (const auto &w : weights) {
        uint64_t certified = 0;
        uint64_t solved = 0;
        uint64_t certified_large = 0;  // k >= 3: the certificate itself
        for (const int d : {5, 9, 13, 21}) {
            const RotatedSurfaceCode code(d);
            for (const int rounds : {1, 8, d + 1}) {
                const CheckType det =
                    rounds == 8 ? CheckType::X : CheckType::Z;
                const MwpmDecoder decoder(code, det, w[0], w[1]);
                Rng rng(7919ull * static_cast<uint64_t>(d) +
                        31ull * static_cast<uint64_t>(rounds) +
                        static_cast<uint64_t>(w[0]));
                const double nodes =
                    static_cast<double>(rounds * code.num_checks(det));
                for (const int target : targets) {
                    for (const bool close : {true, false}) {
                        const double p =
                            std::min(0.2, target / (5.0 * nodes));
                        const std::vector<DetectionEvent> events =
                            phenomenological_events(code, det, rounds, p,
                                                    close, rng);
                        // The deep audit throws if a certified pairing
                        // differs from the blossom's.
                        const Decoded got =
                            decode_counted(decoder, events, rounds);
                        const uint64_t took = got.certified + got.solved;
                        ASSERT_EQ(took, events.empty() ? 0u : 1u)
                            << "d=" << d << " rounds=" << rounds;
                        certified += got.certified;
                        solved += got.solved;
                        if (events.size() >= 3) {
                            certified_large += got.certified;
                        }
                    }
                }
            }
        }
        SCOPED_TRACE(::testing::Message() << "weights " << w[0] << ","
                                          << w[1]);
        EXPECT_GT(certified_large, 20u);
        EXPECT_GT(certified, certified_large);
        EXPECT_GT(solved, 20u);
    }
}

/** The four checks of a unit square in `code`'s Z check graph, far
 * from the boundary: a-b-c-d-a one hop apart, diagonals two. */
std::vector<int>
unit_square(const RotatedSurfaceCode &code, const CheckGraphDistances &g)
{
    const int n = g.num_checks();
    for (int a = 0; a < n; ++a) {
        if (g.boundary_hops(a) < 2) {
            continue;
        }
        for (int b = 0; b < n; ++b) {
            if (g.distance(a, b) != 1 || g.boundary_hops(b) < 2) {
                continue;
            }
            for (int c = 0; c < n; ++c) {
                if (g.distance(b, c) != 1 || g.distance(a, c) != 2 ||
                    g.boundary_hops(c) < 2) {
                    continue;
                }
                for (int d = 0; d < n; ++d) {
                    if (g.distance(c, d) == 1 && g.distance(d, a) == 1 &&
                        g.distance(b, d) == 2 && g.boundary_hops(d) >= 2) {
                        return {a, b, c, d};
                    }
                }
            }
        }
    }
    ADD_FAILURE() << "no interior unit square at d=" << code.distance();
    return {};
}

TEST(MwpmCertified, UnitSquareTieFallsBack)
{
    // Two perfect pairings of the square cost 2; every boundary option
    // costs more. The optimum is not unique, so no certificate exists.
    const RotatedSurfaceCode code(9);
    const CheckGraphDistances &g = code.check_distances(CheckType::Z);
    const MwpmDecoder decoder(code, CheckType::Z);
    std::vector<DetectionEvent> events;
    for (const int c : unit_square(code, g)) {
        events.push_back({c, 0});
    }
    ASSERT_EQ(events.size(), 4u);
    const Decoded got = decode_counted(decoder, events, 1);
    EXPECT_EQ(got.certified, 0u);
    EXPECT_EQ(got.solved, 1u);
    EXPECT_EQ(got.result.weight, 2);
}

TEST(MwpmCertified, EquidistantPartnerFallsBack)
{
    // One check firing in three consecutive rounds: the middle defect
    // is one time step from both others, which share its boundary
    // distance, so pairing it with either one ties.
    const RotatedSurfaceCode code(9);
    const CheckGraphDistances &g = code.check_distances(CheckType::Z);
    const MwpmDecoder decoder(code, CheckType::Z);
    int check = 0;
    while (g.boundary_hops(check) < 2) {
        ++check;
    }
    const std::vector<DetectionEvent> events = {
        {check, 2}, {check, 3}, {check, 4}};
    const Decoded got = decode_counted(decoder, events, 8);
    EXPECT_EQ(got.certified, 0u);
    EXPECT_EQ(got.solved, 1u);
    EXPECT_EQ(got.result.weight, 1 + g.boundary_hops(check) + 1);

    // Moving one end far away breaks the tie: the near pair is the
    // unique optimum, and it certifies.
    const std::vector<DetectionEvent> apart = {
        {check, 0}, {check, 6}, {check, 7}};
    const Decoded unique = decode_counted(decoder, apart, 8);
    EXPECT_EQ(unique.certified, 1u);
    EXPECT_EQ(unique.solved, 0u);
}

TEST(MwpmCertified, PairTiedWithItsRetirementsPairsAloneFallsBackWithMore)
{
    // Two checks whose distance equals the sum of their boundary
    // distances, w = b_i + b_j: pairing and retiring both tie.
    const RotatedSurfaceCode code(9);
    const CheckGraphDistances &g = code.check_distances(CheckType::Z);
    const MwpmDecoder decoder(code, CheckType::Z);
    const int n = g.num_checks();
    int tied_a = -1;
    int tied_b = -1;
    for (int a = 0; a < n && tied_a < 0; ++a) {
        for (int b = a + 1; b < n; ++b) {
            if (g.distance(a, b) ==
                g.boundary_hops(a) + g.boundary_hops(b) + 2) {
                tied_a = a;
                tied_b = b;
                break;
            }
        }
    }
    ASSERT_GE(tied_a, 0);

    // k = 2: the one perfect matching of the instance is forced, and
    // the mapping rule (w <= b_i + b_j) makes it a direct pair.
    const Decoded alone =
        decode_counted(decoder, {{tied_a, 0}, {tied_b, 0}}, 8);
    EXPECT_EQ(alone.certified, 1u);
    ASSERT_EQ(alone.matches.pairs.size(), 1u);
    EXPECT_EQ(alone.matches.pairs[0].a, 0);
    EXPECT_EQ(alone.matches.pairs[0].b, 1);

    // k = 3: the same pair plus a defect far away in time, which
    // alone would retire cleanly. The tie leaves two optima.
    const int far = g.boundary_check(tied_a);
    const Decoded with_more =
        decode_counted(decoder, {{tied_a, 0}, {tied_b, 0}, {far, 7}}, 8);
    EXPECT_EQ(with_more.certified, 0u);
    EXPECT_EQ(with_more.solved, 1u);
    EXPECT_EQ(with_more.result.weight,
              g.distance(tied_a, tied_b) + g.boundary_hops(far) + 1);

    // Control: an adjacent pair with the same far defect certifies, so
    // the fallback above is the tie's.
    int near_b = 0;
    while (g.distance(tied_a, near_b) != 1) {
        ++near_b;
    }
    const Decoded untied =
        decode_counted(decoder, {{tied_a, 0}, {near_b, 0}, {far, 7}}, 8);
    EXPECT_EQ(untied.certified, 1u);
    EXPECT_EQ(untied.solved, 0u);
}

TEST(MwpmCertified, CrowdedInstanceSkipsTheAttempt)
{
    // Two adjacent pairs and a boundary check, all in round 0 and at
    // least two hops apart otherwise: the two pairs and the retirement
    // are the unique optimum. A k >= 3 instance tries the certificate
    // only when 2 k^2 <= rounds * num_checks: d = 9 has 40 Z checks, so
    // five defects (2 k^2 = 50) certify over 2 rounds (80 nodes), and
    // over 1 round (40 nodes) the blossom solves the same pairing.
    const RotatedSurfaceCode code(9);
    const CheckGraphDistances &g = code.check_distances(CheckType::Z);
    const MwpmDecoder decoder(code, CheckType::Z);
    const int n = g.num_checks();
    auto apart = [&g](const std::vector<int> &from, int c) {
        return std::all_of(from.begin(), from.end(),
                           [&g, c](int f) { return g.distance(f, c) >= 2; });
    };
    std::vector<int> checks;
    for (int a = 0; a < n && checks.empty(); ++a) {
        for (int b = a + 1; b < n && checks.empty(); ++b) {
            if (g.distance(a, b) != 1) {
                continue;
            }
            for (int c = 0; c < n && checks.empty(); ++c) {
                for (int d = c + 1; d < n && checks.empty(); ++d) {
                    if (g.distance(c, d) != 1 || !apart({a, b}, c) ||
                        !apart({a, b}, d)) {
                        continue;
                    }
                    for (int e = 0; e < n; ++e) {
                        if (g.boundary_hops(e) == 0 &&
                            apart({a, b, c, d}, e)) {
                            checks = {a, b, c, d, e};
                            break;
                        }
                    }
                }
            }
        }
    }
    ASSERT_EQ(checks.size(), 5u);
    std::vector<DetectionEvent> events;
    for (const int c : checks) {
        events.push_back({c, 0});
    }
    const Decoded sparse = decode_counted(decoder, events, 2);
    EXPECT_EQ(sparse.certified, 1u);
    EXPECT_EQ(sparse.solved, 0u);
    const Decoded crowded = decode_counted(decoder, events, 1);
    EXPECT_EQ(crowded.certified, 0u);
    EXPECT_EQ(crowded.solved, 1u);
    EXPECT_EQ(crowded.result.weight, 3);
    EXPECT_EQ(crowded.result.weight, sparse.result.weight);
    EXPECT_EQ(crowded.result.correction, sparse.result.correction);
}

TEST(MwpmCertified, ExactDpMatcherNeverCertifies)
{
    // The subset-DP oracle is untouched: it always runs its DP.
    const RotatedSurfaceCode code(5);
    const MwpmDecoder decoder(code, CheckType::Z, 1, 1,
                              MwpmDecoder::Matcher::ExactDp);
    const std::vector<DetectionEvent> events = {{0, 0}, {5, 3}};
    const Decoded got = decode_counted(decoder, events, 4);
    EXPECT_EQ(got.certified, 0u);
    EXPECT_EQ(got.solved, 0u);
}

} // namespace
} // namespace btwc
