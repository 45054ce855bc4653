/**
 * @file
 * Tests for the §8.1 deep hierarchy, `TierChainConfig::deep()`
 * (Clique -> Union-Find -> MWPM): tier selection, syndrome-clearing
 * contract at every tier, monotonicity of tier distribution in the
 * Union-Find escalation threshold, and accuracy equivalence with MWPM
 * inside the half-distance guarantee.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "decoders/tier_chain.hpp"
#include "matching/mwpm.hpp"
#include "surface/frame.hpp"
#include "surface/lattice.hpp"

namespace btwc {
namespace {

std::vector<uint8_t>
syndrome_of(const RotatedSurfaceCode & /*code*/, const ErrorFrame &frame)
{
    std::vector<uint8_t> syndrome;
    frame.measure_perfect(syndrome);
    return syndrome;
}

TEST(Hierarchy, TrivialSignaturesStayAtCliqueTier)
{
    const RotatedSurfaceCode code(7);
    const TierChain chain(code, CheckType::Z, TierChainConfig::deep());
    for (int q = 0; q < code.num_data(); ++q) {
        ErrorFrame frame(code, CheckType::X);
        frame.flip(q);
        const auto result = chain.decode_syndrome(syndrome_of(code, frame));
        ASSERT_EQ(result.tier, DecoderTier::Clique) << "q=" << q;
        frame.apply_mask(result.decode.correction);
        ASSERT_TRUE(frame.syndrome_clear());
    }
}

TEST(Hierarchy, AllZeroSignatureIsFree)
{
    const RotatedSurfaceCode code(5);
    const TierChain chain(code, CheckType::Z, TierChainConfig::deep());
    std::vector<uint8_t> zeros(code.num_checks(CheckType::Z), 0);
    const auto result = chain.decode_syndrome(zeros);
    EXPECT_EQ(result.tier, DecoderTier::Clique);
    for (const uint8_t bit : result.decode.correction) {
        EXPECT_EQ(bit, 0);
    }
}

TEST(Hierarchy, ShortChainsResolveAtUnionFindTier)
{
    // A single 2-chain through an interior check is COMPLEX for Clique
    // but forms one small cluster: the UF tier should absorb it.
    const RotatedSurfaceCode code(9);
    const TierChain chain(code, CheckType::Z, TierChainConfig::deep());
    int uf_resolved = 0;
    int total = 0;
    for (int c = 0; c < code.num_checks(CheckType::Z); ++c) {
        const Check &chk = code.check(CheckType::Z, c);
        if (chk.data.size() < 4 ||
            !code.boundary_data(CheckType::Z, c).empty()) {
            continue;
        }
        ErrorFrame frame(code, CheckType::X);
        frame.flip(chk.data[0]);
        frame.flip(chk.data[3]);
        const auto syndrome = syndrome_of(code, frame);
        const auto result = chain.decode_syndrome(syndrome);
        if (result.tier == DecoderTier::Clique) {
            continue;  // this particular pair decoded trivially
        }
        ++total;
        uf_resolved += result.tier == DecoderTier::UnionFind ? 1 : 0;
        frame.apply_mask(result.decode.correction);
        ASSERT_TRUE(frame.syndrome_clear()) << "check " << c;
    }
    ASSERT_GT(total, 0);
    EXPECT_GT(uf_resolved, total / 2);
}

TEST(Hierarchy, ZeroThresholdDisablesUnionFind)
{
    // A Union-Find threshold of 0 is the paper's two-level chain
    // (Clique -> MWPM, as in the hierarchy ablation). An isolated
    // interior defect is complex; with no UF tier it must land at MWPM.
    const RotatedSurfaceCode code(7);
    const TierChain chain(code, CheckType::Z, TierChainConfig::legacy());
    for (int c = 0; c < code.num_checks(CheckType::Z); ++c) {
        if (!code.boundary_data(CheckType::Z, c).empty()) {
            continue;
        }
        std::vector<uint8_t> syndrome(code.num_checks(CheckType::Z), 0);
        syndrome[c] = 1;
        const auto result = chain.decode_syndrome(syndrome);
        EXPECT_EQ(result.tier, DecoderTier::Mwpm);
    }
}

TEST(Hierarchy, EveryTierClearsTheSyndrome)
{
    const RotatedSurfaceCode code(9);
    const TierChain chain(code, CheckType::Z, TierChainConfig::deep());
    Rng rng(71);
    int tiers_seen[3] = {0, 0, 0};
    for (int iter = 0; iter < 500; ++iter) {
        ErrorFrame frame(code, CheckType::X);
        frame.inject(0.03, rng);
        const auto syndrome = syndrome_of(code, frame);
        const auto result = chain.decode_syndrome(syndrome);
        ++tiers_seen[static_cast<int>(result.tier)];
        frame.apply_mask(result.decode.correction);
        ASSERT_TRUE(frame.syndrome_clear()) << "iter=" << iter;
    }
    // At p=3% on d=9 all three tiers must be exercised.
    EXPECT_GT(tiers_seen[0], 0);
    EXPECT_GT(tiers_seen[1], 0);
    EXPECT_GT(tiers_seen[2], 0);
}

TEST(Hierarchy, HigherThresholdKeepsMoreOffMwpm)
{
    const RotatedSurfaceCode code(9);
    Rng rng(72);
    std::vector<std::vector<uint8_t>> syndromes;
    for (int iter = 0; iter < 400; ++iter) {
        ErrorFrame frame(code, CheckType::X);
        frame.inject(0.03, rng);
        syndromes.push_back(syndrome_of(code, frame));
    }
    int prev_mwpm = 1 << 30;
    for (const int threshold : {1, 2, 4, 8}) {
        const TierChain chain(code, CheckType::Z,
                              TierChainConfig::deep(threshold));
        int mwpm = 0;
        for (const auto &syndrome : syndromes) {
            mwpm += chain.decode_syndrome(syndrome).tier == DecoderTier::Mwpm
                        ? 1
                        : 0;
        }
        EXPECT_LE(mwpm, prev_mwpm) << "threshold=" << threshold;
        prev_mwpm = mwpm;
    }
}

TEST(Hierarchy, MatchesMwpmWithinHalfDistance)
{
    // Inside the code's guarantee the hierarchy must be as accurate as
    // MWPM-only decoding (no logical flips).
    const RotatedSurfaceCode code(9);
    const TierChain chain(code, CheckType::Z, TierChainConfig::deep());
    Rng rng(73);
    for (int iter = 0; iter < 400; ++iter) {
        ErrorFrame frame(code, CheckType::X);
        const int k = 1 + static_cast<int>(rng.next_below(4));
        for (int i = 0; i < k; ++i) {
            frame.flip(static_cast<int>(rng.next_below(code.num_data())));
        }
        const auto result = chain.decode_syndrome(syndrome_of(code, frame));
        frame.apply_mask(result.decode.correction);
        ASSERT_TRUE(frame.syndrome_clear());
        ASSERT_FALSE(frame.logical_flipped()) << "iter=" << iter;
    }
}

TEST(Hierarchy, WorksForBothCheckTypes)
{
    const RotatedSurfaceCode code(7);
    Rng rng(75);
    for (const CheckType err : {CheckType::X, CheckType::Z}) {
        const TierChain chain(code, detector_of_error(err),
                              TierChainConfig::deep());
        for (int iter = 0; iter < 100; ++iter) {
            ErrorFrame frame(code, err);
            frame.inject(0.02, rng);
            std::vector<uint8_t> syndrome;
            frame.measure_perfect(syndrome);
            frame.apply_mask(
                chain.decode_syndrome(syndrome).decode.correction);
            ASSERT_TRUE(frame.syndrome_clear());
        }
    }
}

TEST(Hierarchy, ReportsGrowthEffort)
{
    // The UF tier's growth effort must be visible to callers whenever
    // the clique tier escalates.
    const RotatedSurfaceCode code(7);
    const TierChain chain(code, CheckType::Z, TierChainConfig::deep());
    // Isolated interior defect: one odd cluster must grow to reach the
    // boundary, so the effort is nonzero.
    for (int c = 0; c < code.num_checks(CheckType::Z); ++c) {
        if (!code.boundary_data(CheckType::Z, c).empty()) {
            continue;
        }
        std::vector<uint8_t> syndrome(code.num_checks(CheckType::Z), 0);
        syndrome[c] = 1;
        const auto result = chain.decode_syndrome(syndrome);
        if (result.tier != DecoderTier::Clique) {
            EXPECT_GT(result.effort, 0) << "check " << c;
        }
    }
}

TEST(Hierarchy, AgreesWithMwpmLogicallyOnRandomNoise)
{
    // Beyond the guarantee, the hierarchy may differ from MWPM only
    // rarely (UF's approximation); measure the disagreement rate.
    const RotatedSurfaceCode code(7);
    const TierChain chain(code, CheckType::Z, TierChainConfig::deep());
    const MwpmDecoder mwpm(code, CheckType::Z);
    Rng rng(74);
    int disagreements = 0;
    const int trials = 2000;
    for (int iter = 0; iter < trials; ++iter) {
        ErrorFrame hier_frame(code, CheckType::X);
        hier_frame.inject(0.02, rng);
        ErrorFrame mwpm_frame = hier_frame;
        const auto syndrome = syndrome_of(code, hier_frame);
        hier_frame.apply_mask(
            chain.decode_syndrome(syndrome).decode.correction);
        mwpm_frame.apply_mask(mwpm.decode_syndrome(syndrome).correction);
        disagreements += hier_frame.logical_flipped() !=
                                 mwpm_frame.logical_flipped()
                             ? 1
                             : 0;
    }
    EXPECT_LT(disagreements, trials / 50);
}

} // namespace
} // namespace btwc
