/**
 * @file
 * Property tests for the blossom matcher: structural validity plus
 * optimality against the brute-force subset-DP oracle on hundreds of
 * random instances, including the boundary reductions behind the MWPM
 * decoder.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.hpp"
#include "matching/blossom.hpp"
#include "matching/exact.hpp"

namespace btwc {
namespace {

/** Random dense symmetric weight matrix with entries in [1, max_w]. */
std::vector<std::vector<int64_t>>
random_weights(int n, int64_t max_w, Rng &rng)
{
    std::vector<std::vector<int64_t>> w(n, std::vector<int64_t>(n, -1));
    for (int u = 0; u < n; ++u) {
        for (int v = u + 1; v < n; ++v) {
            const int64_t value =
                1 + static_cast<int64_t>(rng.next_below(max_w));
            w[u][v] = value;
            w[v][u] = value;
        }
    }
    return w;
}

int64_t
matching_weight(const std::vector<int> &mate,
                const std::vector<std::vector<int64_t>> &w)
{
    int64_t total = 0;
    for (size_t u = 0; u < mate.size(); ++u) {
        const int v = mate[u];
        if (v >= 0 && static_cast<size_t>(v) > u) {
            total += w[u][v];
        }
    }
    return total;
}

void
expect_valid_perfect(const std::vector<int> &mate)
{
    for (size_t u = 0; u < mate.size(); ++u) {
        ASSERT_GE(mate[u], 0) << "vertex " << u << " unmatched";
        ASSERT_NE(static_cast<size_t>(mate[u]), u);
        EXPECT_EQ(mate[mate[u]], static_cast<int>(u));
    }
}

TEST(Blossom, TwoVertices)
{
    std::vector<std::vector<int64_t>> w = {{-1, 7}, {7, -1}};
    const auto mate = min_weight_perfect_matching(2, w);
    expect_valid_perfect(mate);
    EXPECT_EQ(mate[0], 1);
}

TEST(Blossom, PrefersCheapPairing)
{
    // 0-1 and 2-3 cost 2; the crossing pairings cost 200.
    std::vector<std::vector<int64_t>> w(4, std::vector<int64_t>(4, 100));
    w[0][1] = w[1][0] = 1;
    w[2][3] = w[3][2] = 1;
    for (int i = 0; i < 4; ++i) {
        w[i][i] = -1;
    }
    const auto mate = min_weight_perfect_matching(4, w);
    expect_valid_perfect(mate);
    EXPECT_EQ(mate[0], 1);
    EXPECT_EQ(mate[2], 3);
    EXPECT_EQ(matching_weight(mate, w), 2);
}

TEST(Blossom, ZeroWeightEdgesUsable)
{
    std::vector<std::vector<int64_t>> w(4, std::vector<int64_t>(4, 50));
    w[0][1] = w[1][0] = 0;
    w[2][3] = w[3][2] = 0;
    for (int i = 0; i < 4; ++i) {
        w[i][i] = -1;
    }
    const auto mate = min_weight_perfect_matching(4, w);
    expect_valid_perfect(mate);
    EXPECT_EQ(matching_weight(mate, w), 0);
}

TEST(Blossom, InfeasibleReturnsEmpty)
{
    // A vertex with no edges cannot be matched.
    std::vector<std::vector<int64_t>> w(4, std::vector<int64_t>(4, -1));
    w[0][1] = w[1][0] = 1;
    const auto mate = min_weight_perfect_matching(4, w);
    EXPECT_TRUE(mate.empty());
}

class BlossomRandom
    : public ::testing::TestWithParam<std::pair<int, int64_t>>
{
};

TEST_P(BlossomRandom, MatchesExactOracleOnDenseGraphs)
{
    const auto [n, max_w] = GetParam();
    Rng rng(1000 + n + max_w);
    for (int iter = 0; iter < 60; ++iter) {
        const auto w = random_weights(n, max_w, rng);
        const auto mate = min_weight_perfect_matching(n, w);
        expect_valid_perfect(mate);
        const int64_t got = matching_weight(mate, w);
        const int64_t want = exact_min_weight_perfect(n, w);
        ASSERT_EQ(got, want) << "n=" << n << " iter=" << iter;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BlossomRandom,
    ::testing::Values(std::make_pair(4, 10), std::make_pair(6, 5),
                      std::make_pair(8, 8), std::make_pair(10, 4),
                      std::make_pair(10, 50), std::make_pair(12, 6),
                      std::make_pair(14, 3), std::make_pair(14, 100)));

class BlossomSparse : public ::testing::TestWithParam<int>
{
};

TEST_P(BlossomSparse, MatchesOracleWithMissingEdges)
{
    const int n = GetParam();
    Rng rng(77 + n);
    int solved = 0;
    for (int iter = 0; iter < 80; ++iter) {
        auto w = random_weights(n, 9, rng);
        // Drop ~40% of edges; keep a Hamilton cycle so perfect
        // matchings always exist.
        for (int u = 0; u < n; ++u) {
            for (int v = u + 1; v < n; ++v) {
                const bool on_cycle =
                    (v == u + 1) || (u == 0 && v == n - 1);
                if (!on_cycle && rng.bernoulli(0.4)) {
                    w[u][v] = -1;
                    w[v][u] = -1;
                }
            }
        }
        const auto mate = min_weight_perfect_matching(n, w);
        ASSERT_FALSE(mate.empty());
        expect_valid_perfect(mate);
        for (size_t u = 0; u < mate.size(); ++u) {
            ASSERT_GE(w[u][mate[u]], 0) << "matched a missing edge";
        }
        ASSERT_EQ(matching_weight(mate, w), exact_min_weight_perfect(n, w));
        ++solved;
    }
    EXPECT_EQ(solved, 80);
}

INSTANTIATE_TEST_SUITE_P(Sizes, BlossomSparse,
                         ::testing::Values(4, 6, 8, 10, 12));

TEST(Blossom, BoundaryTwinConstructionMatchesOracle)
{
    // Two reductions of boundary matching to perfect matching, on the
    // same random weights: k defects plus k boundary twins with free
    // twin-twin edges, and the instance the MWPM decoder builds — the
    // k defects alone, pair (i, j) costing min(w_ij, b_i + b_j), plus
    // one virtual boundary vertex costing b_i when k is odd.
    Rng rng(4242);
    for (int iter = 0; iter < 120; ++iter) {
        const int k = 2 + static_cast<int>(rng.next_below(7));
        std::vector<std::vector<int64_t>> dist(
            k, std::vector<int64_t>(k, -1));
        std::vector<int64_t> boundary(k);
        for (int i = 0; i < k; ++i) {
            boundary[i] = 1 + static_cast<int64_t>(rng.next_below(12));
            for (int j = i + 1; j < k; ++j) {
                const int64_t v =
                    1 + static_cast<int64_t>(rng.next_below(12));
                dist[i][j] = v;
                dist[j][i] = v;
            }
        }
        const int n = 2 * k;
        std::vector<std::vector<int64_t>> w(n,
                                            std::vector<int64_t>(n, -1));
        for (int i = 0; i < k; ++i) {
            for (int j = i + 1; j < k; ++j) {
                w[i][j] = w[j][i] = dist[i][j];
                w[k + i][k + j] = w[k + j][k + i] = 0;
            }
            w[i][k + i] = w[k + i][i] = boundary[i];
        }
        const auto mate = min_weight_perfect_matching(n, w);
        expect_valid_perfect(mate);
        const int64_t got = matching_weight(mate, w);
        const int64_t want =
            exact_min_weight_with_boundary(k, dist, boundary);
        ASSERT_EQ(got, want) << "k=" << k << " iter=" << iter;

        const int m = k + k % 2;
        std::vector<std::vector<int64_t>> reduced(
            m, std::vector<int64_t>(m, -1));
        for (int i = 0; i < k; ++i) {
            for (int j = i + 1; j < k; ++j) {
                reduced[i][j] = reduced[j][i] =
                    std::min(dist[i][j], boundary[i] + boundary[j]);
            }
            if (m > k) {
                reduced[i][k] = reduced[k][i] = boundary[i];
            }
        }
        const auto reduced_mate = min_weight_perfect_matching(m, reduced);
        expect_valid_perfect(reduced_mate);
        ASSERT_EQ(matching_weight(reduced_mate, reduced), want)
            << "k=" << k << " iter=" << iter;
    }
}

TEST(ExactOracle, TinyCasesByHand)
{
    // Two nodes, must pair or both to boundary.
    std::vector<std::vector<int64_t>> w = {{-1, 5}, {5, -1}};
    EXPECT_EQ(exact_min_weight_perfect(2, w), 5);
    EXPECT_EQ(exact_min_weight_with_boundary(2, w, {1, 1}), 2);
    EXPECT_EQ(exact_min_weight_with_boundary(2, w, {10, 10}), 5);
    EXPECT_EQ(exact_min_weight_with_boundary(0, {}, {}), 0);
}

TEST(ExactOracle, OddBoundaryCase)
{
    // Three nodes: best is pair the close two, boundary the third.
    std::vector<std::vector<int64_t>> w = {
        {-1, 2, 9}, {2, -1, 9}, {9, 9, -1}};
    EXPECT_EQ(exact_min_weight_with_boundary(3, w, {4, 4, 4}), 6);
}

} // namespace
} // namespace btwc
