/**
 * @file
 * Tests for the Union-Find decoder: distance guarantees, measurement
 * error handling, syndrome consistency under random spacetime noise,
 * and accuracy within a small factor of MWPM.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "matching/mwpm.hpp"
#include "matching/union_find.hpp"
#include "surface/frame.hpp"
#include "surface/lattice.hpp"

namespace btwc {
namespace {

class UnionFindSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(UnionFindSweep, CorrectsAllSingleErrors)
{
    const int d = GetParam();
    const RotatedSurfaceCode code(d);
    const UnionFindDecoder decoder(code, CheckType::Z);
    for (int q = 0; q < code.num_data(); ++q) {
        ErrorFrame frame(code, CheckType::X);
        frame.flip(q);
        const PackedSyndrome syndrome = frame.syndrome();
        const auto fix = decoder.decode_packed(syndrome);
        frame.apply_mask(fix.correction);
        ASSERT_TRUE(frame.syndrome_clear()) << "q=" << q;
        ASSERT_FALSE(frame.logical_flipped()) << "q=" << q;
    }
}

TEST_P(UnionFindSweep, ClearsSyndromesOfRandomErrors)
{
    const int d = GetParam();
    const RotatedSurfaceCode code(d);
    const UnionFindDecoder decoder(code, CheckType::Z);
    Rng rng(17 + d);
    for (int iter = 0; iter < 300; ++iter) {
        ErrorFrame frame(code, CheckType::X);
        frame.inject(0.04, rng);
        const PackedSyndrome syndrome = frame.syndrome();
        const auto fix = decoder.decode_packed(syndrome);
        frame.apply_mask(fix.correction);
        ASSERT_TRUE(frame.syndrome_clear()) << "iter=" << iter;
    }
}

INSTANTIATE_TEST_SUITE_P(Distances, UnionFindSweep,
                         ::testing::Values(3, 5, 7, 9));

TEST(UnionFind, TimeLikePairNoDataCorrection)
{
    const RotatedSurfaceCode code(5);
    const UnionFindDecoder decoder(code, CheckType::Z);
    for (int c = 0; c < code.num_checks(CheckType::Z); ++c) {
        const std::vector<DetectionEvent> events = {{c, 1}, {c, 2}};
        const auto fix = decoder.decode(events, 4);
        EXPECT_TRUE(fix.correction.none());
    }
}

TEST(UnionFind, RejectsMalformedInputs)
{
    // Out-of-range events would index past the packed cluster sets;
    // the per-event audit (AuditLevel::Basic) and the round check
    // (always on) reject them, as MwpmDecoder does.
    const ScopedAuditLevel basic(AuditLevel::Basic);
    const RotatedSurfaceCode code(5);
    const UnionFindDecoder decoder(code, CheckType::Z);
    const int num_checks = code.num_checks(CheckType::Z);
    EXPECT_THROW(decoder.decode({{0, 4}}, 4), CheckFailure);
    EXPECT_THROW(decoder.decode({{0, -1}}, 4), CheckFailure);
    EXPECT_THROW(decoder.decode({{num_checks, 0}}, 4), CheckFailure);
    EXPECT_THROW(decoder.decode({{0, 0}}, 0), CheckFailure);
    EXPECT_EQ(decoder.decode({}, 0).defects, 0);
    EXPECT_EQ(decoder.decode({{0, 3}}, 4).defects, 1);
}

TEST(UnionFind, RejectedInputLeavesNoState)
{
    // A call rejected for a bad event (here the third) must leave the
    // pooled state as it found it: the deep audit re-checks the
    // between-call invariant on entry, and later decodes at other round
    // counts match a fresh decoder's.
    const ScopedAuditLevel deep(AuditLevel::Deep);
    const RotatedSurfaceCode code(5);
    const UnionFindDecoder pooled(code, CheckType::Z);
    const int num_checks = code.num_checks(CheckType::Z);
    EXPECT_THROW(pooled.decode({{1, 0}, {2, 1}, {num_checks, 1}}, 2),
                 CheckFailure);
    EXPECT_THROW(pooled.decode({{1, 0}, {0, 2}}, 2), CheckFailure);
    for (const int rounds : {1, 2, 3}) {
        const std::vector<DetectionEvent> events = {
            {1, 0}, {2, rounds - 1}, {num_checks - 1, rounds - 1}};
        const UnionFindDecoder fresh(code, CheckType::Z);
        const Decoder::Result want = fresh.decode(events, rounds);
        const Decoder::Result got = pooled.decode(events, rounds);
        EXPECT_EQ(got.correction, want.correction) << rounds;
        EXPECT_EQ(got.weight, want.weight) << rounds;
        EXPECT_EQ(got.effort, want.effort) << rounds;
    }
}

TEST(UnionFind, SpacetimeNoiseAlwaysConsistent)
{
    const RotatedSurfaceCode code(5);
    const UnionFindDecoder decoder(code, CheckType::Z);
    const int rounds = 5;
    Rng rng(23);
    for (int iter = 0; iter < 150; ++iter) {
        ErrorFrame frame(code, CheckType::X);
        std::vector<std::vector<uint8_t>> raw(rounds + 1);
        for (int t = 0; t < rounds; ++t) {
            frame.inject(0.02, rng);
            frame.measure(0.02, rng, raw[t]);
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
        ASSERT_TRUE(frame.syndrome_clear()) << "iter=" << iter;
    }
}

TEST(UnionFind, AccuracyWithinSmallFactorOfMwpm)
{
    // Union-Find trades a little accuracy for near-linear runtime; on
    // perfect-measurement random errors its failure rate should stay
    // within a small factor of MWPM's.
    const RotatedSurfaceCode code(5);
    const UnionFindDecoder uf(code, CheckType::Z);
    const MwpmDecoder mwpm(code, CheckType::Z);
    Rng rng(29);
    int uf_failures = 0;
    int mwpm_failures = 0;
    const int trials = 4000;
    for (int iter = 0; iter < trials; ++iter) {
        ErrorFrame uf_frame(code, CheckType::X);
        uf_frame.inject(0.05, rng);
        ErrorFrame mwpm_frame = uf_frame;
        const PackedSyndrome syndrome = uf_frame.syndrome();
        uf_frame.apply_mask(uf.decode_packed(syndrome).correction);
        mwpm_frame.apply_mask(mwpm.decode_packed(syndrome).correction);
        uf_failures += uf_frame.logical_flipped() ? 1 : 0;
        mwpm_failures += mwpm_frame.logical_flipped() ? 1 : 0;
    }
    EXPECT_GT(mwpm_failures, 0) << "p chosen too low for the test";
    EXPECT_LE(uf_failures, mwpm_failures * 4 + 20);
}

} // namespace
} // namespace btwc
