/**
 * @file
 * Tests for the decode hot path: the precomputed distance oracle
 * (surface/distance.hpp), the pooled blossom scratch
 * (`MaxWeightMatching::reset`), the persistent per-decoder scratch,
 * and the `LookupTableDecoder` (`lut`) tier. The oracle-backed MWPM
 * corrections are pinned against the per-defect Dijkstra they replaced
 * by tests/golden/mwpm_corrections.txt (tests/test_mwpm_corrections.cpp).
 */

#include <gtest/gtest.h>

#include <queue>
#include <vector>

#include "common/rng.hpp"
#include "decoders/exact_decoder.hpp"
#include "decoders/lookup_table.hpp"
#include "decoders/tier_chain.hpp"
#include "matching/blossom.hpp"
#include "matching/mwpm.hpp"
#include "surface/distance.hpp"
#include "surface/frame.hpp"
#include "surface/lattice.hpp"

namespace btwc {
namespace {

// ------------------------------------------------ the distance oracle

/** Independent BFS over the check graph (test-local reference). */
std::vector<int>
reference_check_bfs(const RotatedSurfaceCode &code, CheckType type,
                    int src)
{
    std::vector<int> dist(code.num_checks(type), -1);
    std::queue<int> frontier;
    dist[src] = 0;
    frontier.push(src);
    while (!frontier.empty()) {
        const int cur = frontier.front();
        frontier.pop();
        for (const CliqueNeighbor &nb : code.clique_neighbors(type, cur)) {
            if (dist[nb.check] < 0) {
                dist[nb.check] = dist[cur] + 1;
                frontier.push(nb.check);
            }
        }
    }
    return dist;
}

TEST(CheckGraphDistances, MatchesReferenceBfs)
{
    for (int d = 3; d <= 61; d += 2) {
        const RotatedSurfaceCode code(d);
        for (const CheckType t : {CheckType::X, CheckType::Z}) {
            const CheckGraphDistances &oracle = code.check_distances(t);
            ASSERT_EQ(oracle.num_checks(), code.num_checks(t));
            for (int src = 0; src < code.num_checks(t); ++src) {
                const std::vector<int> want =
                    reference_check_bfs(code, t, src);
                for (int dst = 0; dst < code.num_checks(t); ++dst) {
                    ASSERT_GE(want[dst], 0) << "check graph connected";
                    ASSERT_EQ(oracle.distance(src, dst), want[dst])
                        << "d=" << d << " src=" << src << " dst=" << dst;
                    ASSERT_EQ(oracle.distance(src, dst),
                              oracle.distance(dst, src));
                }
            }
        }
    }
}

TEST(CheckGraphDistances, BoundaryHopsMatchBruteForce)
{
    for (int d = 3; d <= 61; d += 2) {
        const RotatedSurfaceCode code(d);
        for (const CheckType t : {CheckType::X, CheckType::Z}) {
            const CheckGraphDistances &oracle = code.check_distances(t);
            for (int src = 0; src < code.num_checks(t); ++src) {
                // Smallest (hops, id) over boundary-adjacent checks —
                // the Dijkstra settle-order tie-break.
                int best_hops = -1;
                int best_check = -1;
                for (int b = 0; b < code.num_checks(t); ++b) {
                    if (code.boundary_data(t, b).empty()) {
                        continue;
                    }
                    const int hops = oracle.distance(src, b);
                    if (best_hops < 0 || hops < best_hops) {
                        best_hops = hops;
                        best_check = b;
                    }
                }
                ASSERT_EQ(oracle.boundary_hops(src), best_hops);
                ASSERT_EQ(oracle.boundary_check(src), best_check);
                ASSERT_FALSE(
                    code.boundary_data(t, oracle.boundary_check(src))
                        .empty());
            }
        }
    }
}

TEST(CheckGraphDistances, CachedPerCodeAndType)
{
    const RotatedSurfaceCode code(5);
    const CheckGraphDistances &a = code.check_distances(CheckType::X);
    const CheckGraphDistances &b = code.check_distances(CheckType::X);
    EXPECT_EQ(&a, &b) << "lazy table built once";
    EXPECT_NE(&a, &code.check_distances(CheckType::Z));
}

// ------------------------------------------ the persistent scratch

/** Random spacetime detection events: noisy rounds + a perfect one. */
std::vector<DetectionEvent>
sample_events(const RotatedSurfaceCode &code, CheckType detector,
              int rounds, double p, Rng &rng)
{
    const CheckType error_type =
        detector == CheckType::Z ? CheckType::X : CheckType::Z;
    ErrorFrame frame(code, error_type);
    std::vector<std::vector<uint8_t>> raw(rounds);
    for (int t = 0; t < rounds - 1; ++t) {
        frame.inject(p, rng);
        frame.measure(p, rng, raw[t]);
    }
    frame.inject(p, rng);
    frame.measure_perfect(raw[rounds - 1]);
    std::vector<DetectionEvent> events;
    for (int t = 0; t < rounds; ++t) {
        for (int c = 0; c < code.num_checks(detector); ++c) {
            const uint8_t prev = t == 0 ? 0 : raw[t - 1][c];
            if ((raw[t][c] ^ prev) & 1) {
                events.push_back(DetectionEvent{c, t});
            }
        }
    }
    return events;
}

TEST(MwpmFastPath, PersistentScratchIsInvisible)
{
    // The per-instance scratch must make decode sequences
    // history-independent: any interleaving of sizes yields the same
    // results as a fresh decoder per call, for the blossom and for the
    // exact matcher that shares its scratch.
    const RotatedSurfaceCode code(9);
    const MwpmDecoder reused(code, CheckType::Z);
    const ExactDecoder reused_exact(code, CheckType::Z);
    Rng rng(5);
    for (int iter = 0; iter < 40; ++iter) {
        const int rounds = 1 + static_cast<int>(rng.next_below(6));
        const std::vector<DetectionEvent> events = sample_events(
            code, CheckType::Z, rounds, 0.01 + 0.02 * (iter % 3), rng);
        const MwpmDecoder fresh(code, CheckType::Z);
        const auto a = reused.decode(events, rounds);
        const auto b = fresh.decode(events, rounds);
        ASSERT_EQ(a.weight, b.weight) << "iter=" << iter;
        ASSERT_EQ(a.correction, b.correction) << "iter=" << iter;
        const ExactDecoder fresh_exact(code, CheckType::Z);
        const auto c = reused_exact.decode(events, rounds);
        const auto e = fresh_exact.decode(events, rounds);
        ASSERT_EQ(c.weight, e.weight) << "exact iter=" << iter;
        ASSERT_EQ(c.correction, e.correction) << "exact iter=" << iter;
    }
}

// -------------------------------------------- pooled blossom scratch

TEST(BlossomReset, PooledSolverMatchesFreshAcrossRandomInstances)
{
    // The regression this pins: a reused solver must be
    // indistinguishable from a freshly constructed one even when
    // instance sizes shrink and grow (blossom-slot rows keep stale
    // edge *endpoints* unless reset restores them).
    Rng rng(42);
    MaxWeightMatching pooled;
    for (int iter = 0; iter < 400; ++iter) {
        const int k = 1 + static_cast<int>(rng.next_below(10));
        const int n = 2 * k;
        std::vector<std::vector<int64_t>> w(
            n, std::vector<int64_t>(n, -1));
        for (int i = 0; i < k; ++i) {
            for (int j = i + 1; j < k; ++j) {
                if (rng.bernoulli(0.7)) {
                    const int64_t x =
                        1 + static_cast<int64_t>(rng.next_below(20));
                    w[i][j] = w[j][i] = x;
                }
                w[k + i][k + j] = w[k + j][k + i] = 0;
            }
            const int64_t b =
                1 + static_cast<int64_t>(rng.next_below(10));
            w[i][k + i] = w[k + i][i] = b;
        }
        int64_t total = 0;
        for (int u = 0; u < n; ++u) {
            for (int v = u + 1; v < n; ++v) {
                if (w[u][v] >= 0) {
                    total += w[u][v];
                }
            }
        }
        const int64_t big = total + 1;
        pooled.reset(n);
        MaxWeightMatching fresh(n);
        for (int u = 0; u < n; ++u) {
            for (int v = u + 1; v < n; ++v) {
                if (w[u][v] >= 0) {
                    pooled.set_weight(u, v, big - w[u][v]);
                    fresh.set_weight(u, v, big - w[u][v]);
                }
            }
        }
        const std::vector<int> mf = fresh.solve();
        const std::vector<int> mp = pooled.solve();
        ASSERT_EQ(mp, mf) << "iter=" << iter << " n=" << n;
        ASSERT_EQ(pooled.total_weight(), fresh.total_weight())
            << "iter=" << iter;
    }

    // General graphs where one n repeats with new weights.
    for (int iter = 0; iter < 300; ++iter) {
        const int n = 2 + static_cast<int>(rng.next_below(3)) * 7;
        const double density = 0.2 + 0.8 * rng.next_double();
        const uint64_t max_w = iter % 2 == 0 ? 3 : 100;
        pooled.reset(n);
        MaxWeightMatching fresh(n);
        for (int u = 0; u < n; ++u) {
            for (int v = u + 1; v < n; ++v) {
                if (rng.bernoulli(density)) {
                    const int64_t x =
                        1 + static_cast<int64_t>(rng.next_below(max_w));
                    pooled.set_weight(u, v, x);
                    fresh.set_weight(u, v, x);
                }
            }
        }
        ASSERT_EQ(pooled.solve(), fresh.solve()) << "iter=" << iter;
    }

    // A second solve() after one set_weight, with no reset between, on
    // twin-construction instances: they end on a perfect matching, so
    // the tight-free row stamps of a solve's last phases are still
    // current when it returns. A stamp that outlived the labels it was
    // taken under would skip a row with a tight edge in the next solve
    // and change the matching.
    for (int iter = 0; iter < 300; ++iter) {
        const int k = 7 * (1 + static_cast<int>(rng.next_below(3)));
        const int n = 2 * k;
        const double density = 0.3 + 0.7 * rng.next_double();
        const uint64_t max_c = iter % 2 == 0 ? 4 : 100;
        std::vector<std::vector<int64_t>> c(
            n, std::vector<int64_t>(n, -1));
        for (int i = 0; i < k; ++i) {
            for (int j = i + 1; j < k; ++j) {
                if (rng.bernoulli(density)) {
                    c[i][j] = 1 + static_cast<int64_t>(rng.next_below(max_c));
                }
                c[k + i][k + j] = 0;
            }
            c[i][k + i] = 1 + static_cast<int64_t>(rng.next_below(max_c));
        }
        // big exceeds every total, before and after the change below.
        const int64_t big = static_cast<int64_t>(max_c) * n * n;
        auto load = [&](MaxWeightMatching &m) {
            for (int u = 0; u < n; ++u) {
                for (int v = u + 1; v < n; ++v) {
                    if (c[u][v] >= 0) {
                        m.set_weight(u, v, big - c[u][v]);
                    }
                }
            }
        };
        pooled.reset(n);
        load(pooled);
        MaxWeightMatching fresh(n);
        load(fresh);
        ASSERT_EQ(pooled.solve(), fresh.solve()) << "iter=" << iter;
        const int i = static_cast<int>(rng.next_below(k));
        c[i][k + i] = 1 + static_cast<int64_t>(rng.next_below(max_c));
        pooled.set_weight(i, k + i, big - c[i][k + i]);
        MaxWeightMatching refreshed(n);
        load(refreshed);
        ASSERT_EQ(pooled.solve(), refreshed.solve())
            << "iter=" << iter << " k=" << k << " defect " << i;
        ASSERT_EQ(pooled.total_weight(), refreshed.total_weight())
            << "iter=" << iter;
    }
}

TEST(BlossomReset, ResetZeroAndRegrowIsSafe)
{
    MaxWeightMatching solver;
    solver.reset(0);
    EXPECT_TRUE(solver.solve().empty());
    solver.reset(2);
    solver.set_weight(0, 1, 5);
    const std::vector<int> mate = solver.solve();
    ASSERT_EQ(mate.size(), 2u);
    EXPECT_EQ(mate[0], 1);
    EXPECT_EQ(mate[1], 0);
    EXPECT_EQ(solver.total_weight(), 5);
}

// ---------------------------------------------- the lookup-table tier

void
expect_lut_exhaustively_exact(int d)
{
    const RotatedSurfaceCode code(d);
    for (const CheckType det : {CheckType::X, CheckType::Z}) {
        const LookupTableDecoder lut(code, det);
        ASSERT_TRUE(lut.available()) << "d=" << d;
        const ExactDecoder exact(code, det);
        const int nc = code.num_checks(det);
        PackedSyndrome syndrome(nc);
        std::vector<DetectionEvent> events;
        for (size_t s = 0; s < (size_t(1) << nc); ++s) {
            syndrome.clear();
            events.clear();
            for (int c = 0; c < nc; ++c) {
                if ((s >> c) & 1) {
                    syndrome.set(c);
                    events.push_back(DetectionEvent{c, 0});
                }
            }
            const auto want = exact.decode_packed(syndrome);
            // The table as the chain reads it (packed) and as the
            // event path reads it.
            for (const auto &got :
                 {lut.decode_packed(syndrome), lut.decode(events, 1)}) {
                ASSERT_TRUE(got.resolved) << "s=" << s;
                ASSERT_EQ(got.weight, want.weight) << "s=" << s;
                ASSERT_EQ(got.correction, want.correction) << "s=" << s;
                ASSERT_EQ(got.defects, want.defects) << "s=" << s;
                ASSERT_EQ(got.effort, 0) << "s=" << s;
            }
        }
    }
}

TEST(LookupTableDecoder, ExhaustivelyExactAtD3)
{
    expect_lut_exhaustively_exact(3);
}

TEST(LookupTableDecoder, ExhaustivelyExactAtD5)
{
    expect_lut_exhaustively_exact(5);
}

TEST(LookupTableDecoder, DeclinesMultiRoundWindows)
{
    const RotatedSurfaceCode code(3);
    const LookupTableDecoder lut(code, CheckType::Z);
    const std::vector<DetectionEvent> events = {{0, 0}, {0, 1}};
    const auto result = lut.decode(events, 2);
    EXPECT_FALSE(result.resolved);
    EXPECT_EQ(result.defects, 2);
    EXPECT_TRUE(result.correction.none());
}

TEST(LookupTableDecoder, UnavailableBeyondTableLimitAndDeclines)
{
    const RotatedSurfaceCode code(7);  // 24 checks: no table
    const LookupTableDecoder lut(code, CheckType::Z);
    EXPECT_FALSE(lut.available());
    PackedSyndrome syndrome(code.num_checks(CheckType::Z));
    syndrome.set(0);
    syndrome.set(3);
    const auto result = lut.decode_packed(syndrome);
    EXPECT_FALSE(result.resolved);
    // Empty syndromes still resolve trivially (nothing to look up).
    const auto empty = lut.decode({}, 1);
    EXPECT_TRUE(empty.resolved);
    EXPECT_EQ(empty.defects, 0);
}

TEST(LookupTableDecoder, LutTierResolvesInChainAndEscalatesWhenUnable)
{
    // lut,mwpm at d=3: every single-round signature resolves at tier 0
    // (bit-exact with the exact matcher); the LUT declines a
    // multi-round window, so a chain escalates it.
    const RotatedSurfaceCode code(3);
    const TierChain chain(code, CheckType::Z,
                          TierChainConfig::parse("lut,mwpm"));
    const ExactDecoder exact(code, CheckType::Z);
    const int nc = code.num_checks(CheckType::Z);
    PackedSyndrome syndrome(nc);
    for (size_t s = 1; s < (size_t(1) << nc); ++s) {
        syndrome.clear();
        for (int c = 0; c < nc; ++c) {
            if ((s >> c) & 1) {
                syndrome.set(c);
            }
        }
        const TierChain::Result result = chain.decode_syndrome(syndrome);
        ASSERT_TRUE(result.resolved);
        ASSERT_EQ(result.tier, DecoderTier::Lut) << "s=" << s;
        ASSERT_EQ(result.tier_index, 0) << "s=" << s;
        ASSERT_FALSE(result.offchip);
        ASSERT_EQ(result.decode.correction,
                  exact.decode_packed(syndrome).correction)
            << "s=" << s;
    }
    const std::vector<DetectionEvent> window = {{0, 0}, {0, 1}};
    ASSERT_EQ(chain.spec(0).kind, DecoderTier::Lut);
    const Decoder::Result spacetime = chain.decoder(0).decode(window, 2);
    EXPECT_FALSE(spacetime.resolved);
    EXPECT_EQ(spacetime.defects, 2);
}

TEST(LookupTableDecoder, TierSpellingParsesAndDescribes)
{
    const TierChainConfig config =
        TierChainConfig::parse("clique,lut,mwpm");
    ASSERT_EQ(config.tiers.size(), 3u);
    EXPECT_EQ(config.tiers[1].kind, DecoderTier::Lut);
    EXPECT_FALSE(config.tiers[1].offchip);
    EXPECT_EQ(config.describe(), "clique>lut>mwpm");
    EXPECT_STREQ(decoder_tier_name(DecoderTier::Lut), "lut");
}

} // namespace
} // namespace btwc
