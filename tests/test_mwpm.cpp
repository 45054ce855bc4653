/**
 * @file
 * Tests for the spacetime MWPM decoder: distance guarantees (every
 * error of weight <= (d-1)/2 is corrected), measurement-error
 * handling, syndrome-consistency under random noise, and optimality of
 * the matching weight against an independent BFS + subset-DP oracle.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <queue>
#include <set>
#include <vector>

#include "common/rng.hpp"
#include "matching/exact.hpp"
#include "matching/mwpm.hpp"
#include "surface/frame.hpp"
#include "surface/lattice.hpp"

namespace btwc {
namespace {

/** Apply a correction mask and check syndrome + logical outcome. */
void
expect_corrects(const RotatedSurfaceCode & /*code*/, ErrorFrame &frame,
                const MwpmDecoder::Result &fix, bool expect_no_logical)
{
    frame.apply_mask(fix.correction);
    EXPECT_TRUE(frame.syndrome_clear());
    if (expect_no_logical) {
        EXPECT_FALSE(frame.logical_flipped());
    }
}

TEST(Mwpm, EmptySyndromeNoCorrection)
{
    const RotatedSurfaceCode code(5);
    const MwpmDecoder decoder(code, CheckType::Z);
    const PackedSyndrome syndrome(code.num_checks(CheckType::Z));
    const auto fix = decoder.decode_packed(syndrome);
    EXPECT_EQ(fix.weight, 0);
    EXPECT_EQ(fix.defects, 0);
    EXPECT_TRUE(fix.correction.none());
}

class MwpmDistance : public ::testing::TestWithParam<int>
{
};

TEST_P(MwpmDistance, CorrectsAllSingleErrors)
{
    const int d = GetParam();
    const RotatedSurfaceCode code(d);
    const MwpmDecoder decoder(code, CheckType::Z);
    for (int q = 0; q < code.num_data(); ++q) {
        ErrorFrame frame(code, CheckType::X);
        frame.flip(q);
        const PackedSyndrome syndrome = frame.syndrome();
        const auto fix = decoder.decode_packed(syndrome);
        expect_corrects(code, frame, fix, true);
    }
}

TEST_P(MwpmDistance, CorrectsAllErrorPairs)
{
    const int d = GetParam();
    if (d < 5) {
        GTEST_SKIP() << "d=3 only guarantees single-error correction";
    }
    const RotatedSurfaceCode code(d);
    const MwpmDecoder decoder(code, CheckType::Z);
    for (int q1 = 0; q1 < code.num_data(); ++q1) {
        for (int q2 = q1 + 1; q2 < code.num_data(); ++q2) {
            ErrorFrame frame(code, CheckType::X);
            frame.flip(q1);
            frame.flip(q2);
            const PackedSyndrome syndrome = frame.syndrome();
            const auto fix = decoder.decode_packed(syndrome);
            frame.apply_mask(fix.correction);
            ASSERT_TRUE(frame.syndrome_clear())
                << "q1=" << q1 << " q2=" << q2;
            ASSERT_FALSE(frame.logical_flipped())
                << "q1=" << q1 << " q2=" << q2;
        }
    }
}

TEST_P(MwpmDistance, CorrectsRandomHalfDistanceErrors)
{
    const int d = GetParam();
    const RotatedSurfaceCode code(d);
    const MwpmDecoder decoder(code, CheckType::Z);
    const int budget = (d - 1) / 2;
    Rng rng(91 + d);
    for (int iter = 0; iter < 400; ++iter) {
        ErrorFrame frame(code, CheckType::X);
        // Up to (d-1)/2 distinct random flips.
        const int k = 1 + static_cast<int>(rng.next_below(budget));
        for (int i = 0; i < k; ++i) {
            frame.flip(static_cast<int>(rng.next_below(code.num_data())));
        }
        const PackedSyndrome syndrome = frame.syndrome();
        const auto fix = decoder.decode_packed(syndrome);
        frame.apply_mask(fix.correction);
        ASSERT_TRUE(frame.syndrome_clear());
        // Repeated flips can cancel, so the realized weight may be
        // lower; any weight <= (d-1)/2 must decode without a logical.
        ASSERT_FALSE(frame.logical_flipped()) << "iter=" << iter;
    }
}

INSTANTIATE_TEST_SUITE_P(Distances, MwpmDistance,
                         ::testing::Values(3, 5, 7, 9));

TEST(Mwpm, TimeLikePairYieldsNoDataCorrection)
{
    // A transient measurement error appears as two detection events on
    // the same check in consecutive rounds; MWPM must match them
    // through the time edge and touch no data qubit.
    const RotatedSurfaceCode code(5);
    const MwpmDecoder decoder(code, CheckType::Z);
    for (int c = 0; c < code.num_checks(CheckType::Z); ++c) {
        const std::vector<DetectionEvent> events = {{c, 1}, {c, 2}};
        const auto fix = decoder.decode(events, 4);
        EXPECT_EQ(fix.weight, 1);
        EXPECT_TRUE(fix.correction.none());
    }
}

TEST(Mwpm, BothErrorTypesDecode)
{
    const RotatedSurfaceCode code(5);
    for (const CheckType err : {CheckType::X, CheckType::Z}) {
        const MwpmDecoder decoder(code, detector_of_error(err));
        ErrorFrame frame(code, err);
        frame.flip(12);
        const PackedSyndrome syndrome = frame.syndrome();
        const auto fix = decoder.decode_packed(syndrome);
        expect_corrects(code, frame, fix, true);
    }
}

class MwpmFuzz : public ::testing::TestWithParam<std::pair<int, double>>
{
};

TEST_P(MwpmFuzz, RandomSpacetimeNoiseAlwaysConsistent)
{
    // Random data + measurement noise over T rounds plus a perfect
    // round: decoding must always produce a correction that clears the
    // final syndrome (logical failures are allowed; inconsistency is
    // not).
    const auto [d, p] = GetParam();
    const RotatedSurfaceCode code(d);
    const MwpmDecoder decoder(code, CheckType::Z);
    const int rounds = d;
    Rng rng(7 + d);
    for (int iter = 0; iter < 150; ++iter) {
        ErrorFrame frame(code, CheckType::X);
        std::vector<std::vector<uint8_t>> raw(rounds + 1);
        for (int t = 0; t < rounds; ++t) {
            frame.inject(p, rng);
            frame.measure(p, rng, raw[t]);
        }
        frame.measure_perfect(raw[rounds]);
        std::vector<DetectionEvent> events;
        for (int t = 0; t <= rounds; ++t) {
            for (int c = 0; c < code.num_checks(CheckType::Z); ++c) {
                const uint8_t prev = t == 0 ? 0 : raw[t - 1][c];
                if ((raw[t][c] ^ prev) & 1) {
                    events.push_back(DetectionEvent{c, t});
                }
            }
        }
        const auto fix = decoder.decode(events, rounds + 1);
        frame.apply_mask(fix.correction);
        ASSERT_TRUE(frame.syndrome_clear())
            << "d=" << d << " p=" << p << " iter=" << iter;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MwpmFuzz,
    ::testing::Values(std::make_pair(3, 0.02), std::make_pair(5, 0.01),
                      std::make_pair(5, 0.05), std::make_pair(7, 0.02),
                      std::make_pair(9, 0.01)));

TEST(Mwpm, LogLikelihoodWeights)
{
    // Rarer channels get heavier edges; the scale anchors p = 1e-2 to
    // ~460 and weights never drop below 1.
    EXPECT_GT(log_likelihood_weight(1e-3), log_likelihood_weight(1e-2));
    EXPECT_GT(log_likelihood_weight(1e-2), log_likelihood_weight(1e-1));
    EXPECT_GE(log_likelihood_weight(0.5), 1);
    EXPECT_EQ(log_likelihood_weight(1e-2),
              static_cast<int>(std::lround(100.0 * std::log(99.0))));
}

TEST(Mwpm, EdgeWeightsSteerTheMatching)
{
    // Two defects on the same boundary-adjacent check, two rounds
    // apart: the decoder must pick the time-like pairing when time
    // edges are cheap and the two-boundary pairing when space edges
    // are cheap.
    const RotatedSurfaceCode code(5);
    const CheckType det = CheckType::Z;
    int boundary_check = -1;
    for (int c = 0; c < code.num_checks(det); ++c) {
        if (!code.boundary_data(det, c).empty()) {
            boundary_check = c;
            break;
        }
    }
    ASSERT_GE(boundary_check, 0);
    const std::vector<DetectionEvent> events = {{boundary_check, 0},
                                                {boundary_check, 2}};

    // Both routes resolve this appear-then-disappear pattern with a
    // net-zero data correction (physically right: the error is gone by
    // the end of the window), so the chosen route shows up in the
    // matched weight: 2 time edges under cheap time, 2 boundary
    // half-edges under cheap space -- never the 10-cost alternative.
    const MwpmDecoder cheap_time(code, det, /*space=*/5, /*time=*/1);
    const auto time_fix = cheap_time.decode(events, 4);
    EXPECT_EQ(time_fix.weight, 2);
    EXPECT_TRUE(time_fix.correction.none());

    const MwpmDecoder cheap_space(code, det, /*space=*/1, /*time=*/5);
    const auto space_fix = cheap_space.decode(events, 4);
    EXPECT_EQ(space_fix.weight, 2);
    EXPECT_TRUE(space_fix.correction.none());
}

TEST(Mwpm, WeightedDecoderStillCorrectsHalfDistanceErrors)
{
    const RotatedSurfaceCode code(7);
    const MwpmDecoder decoder(code, CheckType::Z,
                              log_likelihood_weight(1e-3),
                              log_likelihood_weight(5e-3));
    Rng rng(314);
    for (int iter = 0; iter < 300; ++iter) {
        ErrorFrame frame(code, CheckType::X);
        const int k = 1 + static_cast<int>(rng.next_below(3));
        for (int i = 0; i < k; ++i) {
            frame.flip(static_cast<int>(rng.next_below(code.num_data())));
        }
        const PackedSyndrome syndrome = frame.syndrome();
        frame.apply_mask(decoder.decode_packed(syndrome).correction);
        ASSERT_TRUE(frame.syndrome_clear());
        ASSERT_FALSE(frame.logical_flipped()) << "iter=" << iter;
    }
}

/**
 * Independent BFS over the spacetime graph (test-local implementation,
 * deliberately separate from the decoder's own search).
 */
std::vector<int>
bfs_distances(const RotatedSurfaceCode &code, CheckType det, int rounds,
              int src_check, int src_round, int64_t &boundary_dist)
{
    const int num_checks = code.num_checks(det);
    const int num_nodes = rounds * num_checks;
    std::vector<int> dist(num_nodes, -1);
    std::queue<int> frontier;
    dist[src_round * num_checks + src_check] = 0;
    frontier.push(src_round * num_checks + src_check);
    boundary_dist = -1;
    while (!frontier.empty()) {
        const int cur = frontier.front();
        frontier.pop();
        const int check = cur % num_checks;
        const int round = cur / num_checks;
        if (boundary_dist < 0 &&
            !code.boundary_data(det, check).empty()) {
            boundary_dist = dist[cur] + 1;
        }
        auto relax = [&](int node) {
            if (dist[node] < 0) {
                dist[node] = dist[cur] + 1;
                frontier.push(node);
            }
        };
        for (const CliqueNeighbor &nb : code.clique_neighbors(det, check)) {
            relax(round * num_checks + nb.check);
        }
        if (round + 1 < rounds) {
            relax((round + 1) * num_checks + check);
        }
        if (round > 0) {
            relax((round - 1) * num_checks + check);
        }
    }
    return dist;
}

/** Pairwise and boundary distances of `events`, by `bfs_distances`. */
void
independent_distances(const RotatedSurfaceCode &code, CheckType det,
                      int rounds, const std::vector<DetectionEvent> &events,
                      std::vector<std::vector<int64_t>> &w,
                      std::vector<int64_t> &boundary)
{
    const int k = static_cast<int>(events.size());
    const int num_checks = code.num_checks(det);
    w.assign(k, std::vector<int64_t>(k, -1));
    boundary.assign(k, -1);
    for (int i = 0; i < k; ++i) {
        const auto dist = bfs_distances(code, det, rounds, events[i].check,
                                        events[i].round, boundary[i]);
        for (int j = 0; j < k; ++j) {
            if (j != i) {
                w[i][j] = dist[events[j].round * num_checks +
                               events[j].check];
            }
        }
    }
}

/**
 * Check a match record against its Result: every event lies in
 * exactly one entry, each entry weighs its independently derived
 * distance (`w` for a pair, `boundary` for a retirement), the entry
 * weights sum to `Result::weight`, and the XOR of the entry paths is
 * `Result::correction`.
 */
void
expect_consistent_matches(const MwpmMatches &matches,
                          const MwpmDecoder::Result &fix,
                          const std::vector<std::vector<int64_t>> &w,
                          const std::vector<int64_t> &boundary)
{
    std::vector<int> seen(boundary.size(), 0);
    PackedBits mask(fix.correction.size());
    int64_t total = 0;
    for (const MwpmMatches::Pair &p : matches.pairs) {
        ASSERT_GE(p.a, 0);
        ++seen[static_cast<size_t>(p.a)];
        if (p.b >= 0) {
            ++seen[static_cast<size_t>(p.b)];
            EXPECT_EQ(p.weight, w[p.a][p.b]) << "a=" << p.a << " b=" << p.b;
        } else {
            EXPECT_EQ(p.weight, boundary[p.a]) << "a=" << p.a;
        }
        total += p.weight;
        for (int i = p.path_begin; i < p.path_end; ++i) {
            mask.flip(matches.path_data[static_cast<size_t>(i)]);
        }
    }
    for (size_t i = 0; i < seen.size(); ++i) {
        EXPECT_EQ(seen[i], 1) << "event " << i;
    }
    EXPECT_EQ(total, fix.weight);
    EXPECT_EQ(mask, fix.correction);
}

TEST(Mwpm, MatchingWeightIsOptimal)
{
    // The decoder's reported weight must equal the exact subset-DP
    // optimum computed from independently derived distances, through
    // both `decode` and `decode_matched`, on 1..18 defects (odd counts
    // included). The corpus must hold pairs that cost exactly their
    // two boundary retirements and pairs that cost more.
    const CheckType det = CheckType::Z;
    int with_tied_pair = 0;
    int with_dominated_pair = 0;
    for (const int d : {5, 9, 21}) {
        const RotatedSurfaceCode code(d);
        const MwpmDecoder decoder(code, det);
        const int num_checks = code.num_checks(det);
        MwpmMatches matches;
        for (const int rounds : {1, 4, 8}) {
            Rng rng(555 + 1000 * static_cast<uint64_t>(d) +
                    static_cast<uint64_t>(rounds));
            for (int iter = 0; iter < 36; ++iter) {
                const int k = std::min(1 + iter % 18, rounds * num_checks);
                std::vector<DetectionEvent> events;
                std::set<std::pair<int, int>> used;
                while (static_cast<int>(events.size()) < k) {
                    const int c =
                        static_cast<int>(rng.next_below(num_checks));
                    const int t = static_cast<int>(rng.next_below(rounds));
                    if (used.insert({c, t}).second) {
                        events.push_back(DetectionEvent{c, t});
                    }
                }
                std::vector<std::vector<int64_t>> w;
                std::vector<int64_t> boundary;
                independent_distances(code, det, rounds, events, w,
                                      boundary);
                bool tied = false;
                bool dominated = false;
                for (int i = 0; i < k; ++i) {
                    for (int j = i + 1; j < k; ++j) {
                        tied |= w[i][j] == boundary[i] + boundary[j];
                        dominated |= w[i][j] > boundary[i] + boundary[j];
                    }
                }
                with_tied_pair += tied ? 1 : 0;
                with_dominated_pair += dominated ? 1 : 0;

                const int64_t want =
                    exact_min_weight_with_boundary(k, w, boundary);
                const auto fix = decoder.decode(events, rounds);
                ASSERT_EQ(fix.weight, want)
                    << "d=" << d << " rounds=" << rounds << " iter=" << iter;
                MwpmDecoder::Result matched;
                decoder.decode_matched(events, rounds, matches, matched);
                ASSERT_EQ(matched.weight, want)
                    << "d=" << d << " rounds=" << rounds << " iter=" << iter;
                EXPECT_EQ(matched.correction, fix.correction);
                expect_consistent_matches(matches, matched, w, boundary);
            }
        }
    }
    EXPECT_GE(with_tied_pair, 20);
    EXPECT_GE(with_dominated_pair, 20);
}

TEST(Mwpm, BoundaryPairTieRule)
{
    // A mate that costs no more than the two boundary retirements it
    // replaces comes back as one direct pair; a dearer one as two
    // retirements. Single-round d = 9 instances, chosen by their
    // independently derived distances.
    const RotatedSurfaceCode code(9);
    const CheckType det = CheckType::Z;
    const MwpmDecoder decoder(code, det);
    const int num_checks = code.num_checks(det);
    std::vector<int64_t> boundary(num_checks);
    std::vector<std::vector<int>> dist(num_checks);
    for (int c = 0; c < num_checks; ++c) {
        dist[c] = bfs_distances(code, det, 1, c, 0, boundary[c]);
    }

    // Decode `checks` as one round and compare the match record with
    // `want`, a list of (a, b) entries in record order.
    auto expect_entries = [&](const std::vector<int> &checks,
                              const std::vector<std::pair<int, int>> &want) {
        std::vector<DetectionEvent> events;
        for (const int c : checks) {
            events.push_back(DetectionEvent{c, 0});
        }
        std::vector<std::vector<int64_t>> w;
        std::vector<int64_t> b;
        independent_distances(code, det, 1, events, w, b);
        MwpmMatches matches;
        MwpmDecoder::Result fix;
        decoder.decode_matched(events, 1, matches, fix);
        EXPECT_EQ(fix.weight, exact_min_weight_with_boundary(
                                  static_cast<int>(events.size()), w, b));
        expect_consistent_matches(matches, fix, w, b);
        ASSERT_EQ(matches.pairs.size(), want.size());
        for (size_t i = 0; i < want.size(); ++i) {
            EXPECT_EQ(matches.pairs[i].a, want[i].first) << "entry " << i;
            EXPECT_EQ(matches.pairs[i].b, want[i].second) << "entry " << i;
        }
    };

    int tied_checked = 0;
    int dominated_checked = 0;
    for (int a = 0; a < num_checks; ++a) {
        for (int c = a + 1; c < num_checks; ++c) {
            const int64_t retire = boundary[a] + boundary[c];
            if (dist[a][c] == retire) {
                expect_entries({a, c}, {{0, 1}});
                ++tied_checked;
            } else if (dist[a][c] > retire) {
                expect_entries({a, c}, {{0, -1}, {1, -1}});
                ++dominated_checked;
            }
        }
    }
    EXPECT_GT(tied_checked, 0);
    EXPECT_GT(dominated_checked, 0);

    // Two adjacent checks deep inside the lattice and one boundary
    // check far from both: one pair plus one retirement.
    int inner = 0;
    for (int c = 0; c < num_checks; ++c) {
        if (boundary[c] > boundary[inner]) {
            inner = c;
        }
    }
    const int neighbor = code.clique_neighbors(det, inner)[0].check;
    int far = -1;
    for (int c = 0; c < num_checks; ++c) {
        if (boundary[c] == 1 &&
            (far < 0 || dist[inner][c] > dist[inner][far])) {
            far = c;
        }
    }
    ASSERT_GE(far, 0);
    ASSERT_GT(dist[inner][far], boundary[inner] + 1);
    expect_entries({inner, neighbor, far}, {{0, 1}, {2, -1}});
    expect_entries({far, inner, neighbor}, {{0, -1}, {1, 2}});
}

} // namespace
} // namespace btwc
