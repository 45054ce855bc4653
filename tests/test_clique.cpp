/**
 * @file
 * Tests for the Clique decoder and the measurement filter: exhaustive
 * single-error decoding, the Fig. 5 boundary special cases, the Fig. 8
 * scenarios, gate-level decision consistency, and the key §4.4 claim
 * that Clique's trivial decodes are equivalent to MWPM's.
 */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "common/rng.hpp"
#include "core/clique.hpp"
#include "core/filter.hpp"
#include "matching/mwpm.hpp"
#include "surface/frame.hpp"
#include "surface/lattice.hpp"

namespace btwc {
namespace {

std::vector<uint8_t>
perfect_syndrome(const RotatedSurfaceCode & /*code*/, const ErrorFrame &frame)
{
    std::vector<uint8_t> syndrome;
    frame.measure_perfect(syndrome);
    return syndrome;
}

/** The packed form of a byte syndrome (what the decoders take). */
PackedSyndrome
packed(const std::vector<uint8_t> &syndrome)
{
    PackedSyndrome out;
    out.from_bytes(syndrome);
    return out;
}

TEST(Clique, AllZerosVerdict)
{
    const RotatedSurfaceCode code(5);
    const CliqueDecoder clique(code, CheckType::Z);
    std::vector<uint8_t> syndrome(code.num_checks(CheckType::Z), 0);
    const auto out = clique.decode(syndrome);
    EXPECT_EQ(out.verdict, CliqueVerdict::AllZeros);
    EXPECT_TRUE(out.corrections.empty());
}

class CliqueSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(CliqueSweep, EverySingleErrorIsTrivialAndCorrected)
{
    const int d = GetParam();
    const RotatedSurfaceCode code(d);
    for (const CheckType err : {CheckType::X, CheckType::Z}) {
        const CliqueDecoder clique(code, detector_of_error(err));
        for (int q = 0; q < code.num_data(); ++q) {
            ErrorFrame frame(code, err);
            frame.flip(q);
            const auto out =
                clique.decode(perfect_syndrome(code, frame));
            ASSERT_EQ(out.verdict, CliqueVerdict::Trivial)
                << "q=" << q << " type=" << check_type_name(err);
            frame.apply(out.corrections);
            ASSERT_TRUE(frame.syndrome_clear()) << "q=" << q;
            ASSERT_FALSE(frame.logical_flipped()) << "q=" << q;
        }
    }
}

TEST_P(CliqueSweep, TrivialPairsMatchMwpmExactly)
{
    // Fig. 8a: for every two-error pattern Clique declares trivial,
    // its on-chip correction must have the same logical action as the
    // off-chip MWPM decode of the same syndrome. (For weight-2 errors
    // beyond the half-distance guarantee -- e.g. d = 3 -- both
    // decoders fail together, which is exactly the §4.4 claim.)
    const int d = GetParam();
    const RotatedSurfaceCode code(d);
    const CheckType err = CheckType::X;
    const CheckType det = detector_of_error(err);
    const CliqueDecoder clique(code, det);
    const MwpmDecoder mwpm(code, det);
    int trivial_pairs = 0;
    for (int q1 = 0; q1 < code.num_data(); ++q1) {
        for (int q2 = q1 + 1; q2 < code.num_data(); ++q2) {
            ErrorFrame frame(code, err);
            frame.flip(q1);
            frame.flip(q2);
            const auto syndrome = perfect_syndrome(code, frame);
            const auto out = clique.decode(syndrome);
            if (out.verdict != CliqueVerdict::Trivial) {
                continue;
            }
            ++trivial_pairs;
            ErrorFrame mwpm_frame = frame;
            frame.apply(out.corrections);
            mwpm_frame.apply_mask(
                mwpm.decode_packed(packed(syndrome)).correction);
            ASSERT_TRUE(frame.syndrome_clear())
                << "q1=" << q1 << " q2=" << q2;
            ASSERT_TRUE(mwpm_frame.syndrome_clear())
                << "q1=" << q1 << " q2=" << q2;
            ASSERT_EQ(frame.logical_flipped(),
                      mwpm_frame.logical_flipped())
                << "q1=" << q1 << " q2=" << q2;
            if (d >= 5) {
                // Within half-distance the decode must also be right.
                ASSERT_FALSE(frame.logical_flipped())
                    << "q1=" << q1 << " q2=" << q2;
            }
        }
    }
    EXPECT_GT(trivial_pairs, 0);
}

TEST_P(CliqueSweep, ChainsSharingACheckAreComplex)
{
    // Fig. 8c: two errors on the same check cancel its parity and
    // leave isolated fired endpoints -> COMPLEX.
    const int d = GetParam();
    const RotatedSurfaceCode code(d);
    const CheckType err = CheckType::X;
    const CheckType det = detector_of_error(err);
    const CliqueDecoder clique(code, det);
    int chains = 0;
    for (int c = 0; c < code.num_checks(det); ++c) {
        const Check &chk = code.check(det, c);
        if (chk.data.size() < 4) {
            continue;  // boundary checks: some 2-chains stay decodable
        }
        // Pick two data qubits of this interior check that belong to
        // two *different* other checks (a genuine length-2 chain).
        for (size_t i = 0; i < chk.data.size(); ++i) {
            for (size_t j = i + 1; j < chk.data.size(); ++j) {
                ErrorFrame frame(code, err);
                frame.flip(chk.data[i]);
                frame.flip(chk.data[j]);
                const auto syndrome = perfect_syndrome(code, frame);
                if (!syndrome[c]) {
                    const auto out = clique.decode(syndrome);
                    if (out.verdict == CliqueVerdict::AllZeros) {
                        // Both errors were boundary half-edges of this
                        // check: the pattern is a stabilizer (invisible
                        // and harmless for this error type).
                        ASSERT_TRUE(frame.syndrome_clear());
                        ASSERT_FALSE(frame.logical_flipped());
                        continue;
                    }
                    if (out.verdict == CliqueVerdict::Trivial) {
                        // Permitted only if the local fix matches the
                        // MWPM decode of the same syndrome (both may
                        // fail on beyond-half-distance errors).
                        const MwpmDecoder mwpm(code, det);
                        ErrorFrame mwpm_frame = frame;
                        frame.apply(out.corrections);
                        mwpm_frame.apply_mask(
                            mwpm.decode_packed(packed(syndrome)).correction);
                        ASSERT_TRUE(frame.syndrome_clear());
                        ASSERT_TRUE(mwpm_frame.syndrome_clear());
                        ASSERT_EQ(frame.logical_flipped(),
                                  mwpm_frame.logical_flipped());
                    } else {
                        ++chains;
                    }
                }
            }
        }
    }
    if (d >= 5) {
        // At d = 3 every check borders the boundary, so all 2-chains
        // admit a trivial boundary explanation; from d = 5 on, genuine
        // COMPLEX chains must appear.
        EXPECT_GT(chains, 0);
    }
}

INSTANTIATE_TEST_SUITE_P(Distances, CliqueSweep,
                         ::testing::Values(3, 5, 7, 9, 11));

TEST(Clique, IsolatedInteriorDefectIsComplex)
{
    // Fig. 8d: a single fired interior check (sticky measurement error
    // signature) must be handed off-chip.
    const RotatedSurfaceCode code(7);
    const CheckType det = CheckType::Z;
    const CliqueDecoder clique(code, det);
    for (int c = 0; c < code.num_checks(det); ++c) {
        if (!code.boundary_data(det, c).empty()) {
            continue;
        }
        std::vector<uint8_t> syndrome(code.num_checks(det), 0);
        syndrome[c] = 1;
        const auto out = clique.decode(syndrome);
        EXPECT_EQ(out.verdict, CliqueVerdict::Complex) << "check " << c;
    }
}

TEST(Clique, BoundaryCliqueAloneIsTrivial)
{
    // Fig. 5 special cases: a lone fired boundary clique (1+1 or 1+2)
    // corrects one of its boundary data qubits.
    const RotatedSurfaceCode code(7);
    const CheckType det = CheckType::Z;
    const CliqueDecoder clique(code, det);
    int tested = 0;
    for (int c = 0; c < code.num_checks(det); ++c) {
        const auto &bdata = code.boundary_data(det, c);
        if (bdata.empty()) {
            continue;
        }
        ++tested;
        std::vector<uint8_t> syndrome(code.num_checks(det), 0);
        syndrome[c] = 1;
        const auto out = clique.decode(syndrome);
        ASSERT_EQ(out.verdict, CliqueVerdict::Trivial) << "check " << c;
        ASSERT_EQ(out.corrections.size(), 1u);
        // The fix must be one of the clique's boundary qubits, and
        // either choice must fully cancel the firing.
        EXPECT_TRUE(std::find(bdata.begin(), bdata.end(),
                              out.corrections[0]) != bdata.end());
        ErrorFrame frame(code, CheckType::X);
        frame.flip(out.corrections[0]);
        auto check_syndrome = perfect_syndrome(code, frame);
        EXPECT_EQ(check_syndrome[c], 1);
        int weight = 0;
        for (const uint8_t s : check_syndrome) {
            weight += s;
        }
        EXPECT_EQ(weight, 1);
    }
    EXPECT_GT(tested, 0);
}

TEST(Clique, BoundaryCliqueWithTwoFiredNeighborsIsComplex)
{
    // The 1+2 clique with both neighbors fired (even, nonzero parity)
    // must raise COMPLEX.
    const RotatedSurfaceCode code(7);
    const CheckType det = CheckType::Z;
    const CliqueDecoder clique(code, det);
    bool found = false;
    for (int c = 0; c < code.num_checks(det); ++c) {
        const auto &nbrs = code.clique_neighbors(det, c);
        if (nbrs.size() != 2 || code.boundary_data(det, c).size() != 2) {
            continue;
        }
        std::vector<uint8_t> syndrome(code.num_checks(det), 0);
        syndrome[c] = 1;
        syndrome[nbrs[0].check] = 1;
        syndrome[nbrs[1].check] = 1;
        EXPECT_TRUE(clique.clique_is_complex(c, syndrome));
        const auto out = clique.decode(syndrome);
        EXPECT_EQ(out.verdict, CliqueVerdict::Complex);
        found = true;
    }
    EXPECT_TRUE(found);
}

TEST(Clique, GateLevelDecisionMatchesDecode)
{
    const RotatedSurfaceCode code(5);
    const CheckType det = CheckType::Z;
    const CliqueDecoder clique(code, det);
    Rng rng(99);
    for (int iter = 0; iter < 500; ++iter) {
        std::vector<uint8_t> syndrome(code.num_checks(det), 0);
        for (auto &s : syndrome) {
            s = rng.bernoulli(0.15) ? 1 : 0;
        }
        bool any_complex = false;
        for (int c = 0; c < code.num_checks(det); ++c) {
            any_complex |= clique.clique_is_complex(c, syndrome);
        }
        const auto out = clique.decode(syndrome);
        EXPECT_EQ(any_complex, out.verdict == CliqueVerdict::Complex);
    }
}

TEST(Clique, ThreeFiredNeighborsOddParityTrivial)
{
    // Odd parity of three: all three shared qubits are corrected.
    const RotatedSurfaceCode code(7);
    const CheckType det = CheckType::Z;
    const CheckType err = CheckType::X;
    const CliqueDecoder clique(code, det);
    bool found = false;
    for (int c = 0; c < code.num_checks(det) && !found; ++c) {
        const auto &nbrs = code.clique_neighbors(det, c);
        if (nbrs.size() != 4) {
            continue;
        }
        // Build the error pattern: three shared data qubits flipped.
        ErrorFrame frame(code, err);
        frame.flip(nbrs[0].shared_data);
        frame.flip(nbrs[1].shared_data);
        frame.flip(nbrs[2].shared_data);
        const auto syndrome = perfect_syndrome(code, frame);
        if (!syndrome[c]) {
            continue;  // parity cancelled some other way
        }
        const auto out = clique.decode(syndrome);
        if (out.verdict != CliqueVerdict::Trivial) {
            continue;  // neighbors may interact elsewhere; skip
        }
        frame.apply(out.corrections);
        EXPECT_TRUE(frame.syndrome_clear());
        EXPECT_FALSE(frame.logical_flipped());
        found = true;
    }
    EXPECT_TRUE(found);
}

class CliqueMwpmEquivalence
    : public ::testing::TestWithParam<std::pair<int, double>>
{
};

TEST_P(CliqueMwpmEquivalence, TrivialDecodesMatchMwpmLogicalAction)
{
    // §4.4: whenever Clique declares a signature trivial, its local
    // correction must be *logically equivalent* to the MWPM decode of
    // the same syndrome (identical residual up to stabilizers).
    const auto [d, p] = GetParam();
    const RotatedSurfaceCode code(d);
    const CheckType err = CheckType::X;
    const CheckType det = detector_of_error(err);
    const CliqueDecoder clique(code, det);
    const MwpmDecoder mwpm(code, det);
    Rng rng(31 + d);
    int trivial_cases = 0;
    for (int iter = 0; iter < 600; ++iter) {
        ErrorFrame clique_frame(code, err);
        clique_frame.inject(p, rng);
        const auto syndrome = perfect_syndrome(code, clique_frame);
        const auto out = clique.decode(syndrome);
        if (out.verdict != CliqueVerdict::Trivial) {
            continue;
        }
        ++trivial_cases;
        ErrorFrame mwpm_frame = clique_frame;
        clique_frame.apply(out.corrections);
        const auto fix = mwpm.decode_packed(packed(syndrome));
        mwpm_frame.apply_mask(fix.correction);

        ASSERT_TRUE(clique_frame.syndrome_clear());
        ASSERT_TRUE(mwpm_frame.syndrome_clear());
        ASSERT_EQ(clique_frame.logical_flipped(),
                  mwpm_frame.logical_flipped())
            << "d=" << d << " iter=" << iter;
    }
    EXPECT_GT(trivial_cases, 50);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CliqueMwpmEquivalence,
    ::testing::Values(std::make_pair(5, 0.01), std::make_pair(5, 0.03),
                      std::make_pair(7, 0.01), std::make_pair(9, 0.005),
                      std::make_pair(11, 0.003)));

TEST(MeasurementFilter, TransientFlipSuppressed)
{
    MeasurementFilter filter(4, 2);
    std::vector<uint8_t> quiet(4, 0);
    std::vector<uint8_t> blip = {0, 1, 0, 0};
    filter.push(quiet);
    const auto &after_blip = filter.push(blip);
    EXPECT_EQ(after_blip[1], 0);  // not yet persistent
    const auto &after_quiet = filter.push(quiet);
    EXPECT_EQ(after_quiet[1], 0);  // it vanished: measurement error
}

TEST(MeasurementFilter, PersistentFlipPasses)
{
    MeasurementFilter filter(4, 2);
    std::vector<uint8_t> fired = {0, 1, 0, 0};
    filter.push(fired);
    const auto &second = filter.push(fired);
    EXPECT_EQ(second[1], 1);
    EXPECT_EQ(second[0], 0);
}

TEST(MeasurementFilter, WarmupIsAllZero)
{
    MeasurementFilter filter(2, 3);
    std::vector<uint8_t> fired = {1, 1};
    EXPECT_EQ(filter.push(fired)[0], 0);
    EXPECT_EQ(filter.push(fired)[0], 0);
    EXPECT_EQ(filter.push(fired)[0], 1);  // persisted three rounds
}

TEST(MeasurementFilter, SingleRoundPassthrough)
{
    MeasurementFilter filter(3, 1);
    std::vector<uint8_t> raw = {1, 0, 1};
    const auto &out = filter.push(raw);
    EXPECT_EQ(out[0], 1);
    EXPECT_EQ(out[1], 0);
    EXPECT_EQ(out[2], 1);
}

TEST(MeasurementFilter, ResetClearsHistory)
{
    MeasurementFilter filter(2, 2);
    std::vector<uint8_t> fired = {1, 1};
    filter.push(fired);
    filter.push(fired);
    EXPECT_EQ(filter.filtered()[0], 1);
    filter.reset();
    EXPECT_EQ(filter.push(fired)[0], 0);  // warmup restarts
}

TEST(MeasurementFilter, LongerWindowsSuppressLongerGlitches)
{
    MeasurementFilter filter(1, 3);
    std::vector<uint8_t> on = {1};
    std::vector<uint8_t> off = {0};
    filter.push(off);
    filter.push(on);
    filter.push(on);
    EXPECT_EQ(filter.filtered()[0], 0);  // two rounds < window of 3
    filter.push(on);
    EXPECT_EQ(filter.filtered()[0], 1);
}

} // namespace
} // namespace btwc
