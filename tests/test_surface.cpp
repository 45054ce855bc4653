/**
 * @file
 * Structural tests for the rotated surface code lattice: stabilizer
 * counts, incidence invariants, clique neighborhoods, boundary
 * classification, syndromes, and logical-operator validity (including
 * a GF(2) rank check of independence from the stabilizer group).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "lattice_corpus.hpp"
#include "surface/frame.hpp"
#include "surface/lattice.hpp"

#ifndef BTWC_GOLDEN_DIR
#error "BTWC_GOLDEN_DIR must name the tests/golden directory"
#endif

namespace btwc {
namespace {

class SurfaceCodeSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(SurfaceCodeSweep, CheckCounts)
{
    const int d = GetParam();
    const RotatedSurfaceCode code(d);
    EXPECT_EQ(code.num_data(), d * d);
    EXPECT_EQ(code.num_checks(CheckType::X), (d * d - 1) / 2);
    EXPECT_EQ(code.num_checks(CheckType::Z), (d * d - 1) / 2);
}

TEST_P(SurfaceCodeSweep, CheckWeightsAreTwoOrFour)
{
    const RotatedSurfaceCode code(GetParam());
    for (const CheckType t : {CheckType::X, CheckType::Z}) {
        int weight2 = 0;
        for (const Check &chk : code.checks(t)) {
            ASSERT_TRUE(chk.data.size() == 2 || chk.data.size() == 4);
            weight2 += chk.data.size() == 2 ? 1 : 0;
        }
        // Each of a type's two boundaries hosts (d-1)/2 weight-2 checks.
        EXPECT_EQ(weight2, GetParam() - 1);
    }
}

TEST_P(SurfaceCodeSweep, EveryDataQubitTouchesOneOrTwoChecksPerType)
{
    const int d = GetParam();
    const RotatedSurfaceCode code(d);
    for (const CheckType t : {CheckType::X, CheckType::Z}) {
        int boundary_edges = 0;
        for (int q = 0; q < code.num_data(); ++q) {
            const size_t owners = code.checks_of_data(t, q).size();
            ASSERT_TRUE(owners == 1 || owners == 2);
            boundary_edges += owners == 1 ? 1 : 0;
        }
        // Incidence counting: 2d boundary half-edges per type.
        EXPECT_EQ(boundary_edges, 2 * d);
    }
}

TEST_P(SurfaceCodeSweep, CliqueNeighborsAreSymmetric)
{
    const RotatedSurfaceCode code(GetParam());
    for (const CheckType t : {CheckType::X, CheckType::Z}) {
        for (int c = 0; c < code.num_checks(t); ++c) {
            for (const CliqueNeighbor &nb : code.clique_neighbors(t, c)) {
                bool found = false;
                for (const CliqueNeighbor &back :
                     code.clique_neighbors(t, nb.check)) {
                    if (back.check == c &&
                        back.shared_data == nb.shared_data) {
                        found = true;
                    }
                }
                EXPECT_TRUE(found);
            }
        }
    }
}

TEST_P(SurfaceCodeSweep, CliqueNeighborCountsWithinBounds)
{
    const RotatedSurfaceCode code(GetParam());
    for (const CheckType t : {CheckType::X, CheckType::Z}) {
        for (int c = 0; c < code.num_checks(t); ++c) {
            const size_t nbrs = code.clique_neighbors(t, c).size();
            const size_t bnd = code.boundary_data(t, c).size();
            EXPECT_GE(nbrs, 1u);
            EXPECT_LE(nbrs, 4u);
            EXPECT_LE(bnd, 2u);
            EXPECT_EQ(nbrs + bnd, code.check(t, c).data.size());
        }
    }
}

TEST_P(SurfaceCodeSweep, PaperSpecialCliquesExist)
{
    // The 1+1 clique (one neighbor, one boundary edge) and the 1+2
    // clique (two neighbors, two boundary edges) of Fig. 5 must both
    // be present on every lattice.
    const RotatedSurfaceCode code(GetParam());
    for (const CheckType t : {CheckType::X, CheckType::Z}) {
        bool has_1p1 = false;
        bool has_1p2 = false;
        for (int c = 0; c < code.num_checks(t); ++c) {
            const size_t nbrs = code.clique_neighbors(t, c).size();
            const size_t bnd = code.boundary_data(t, c).size();
            has_1p1 |= (nbrs == 1 && bnd == 1);
            has_1p2 |= (nbrs == 2 && bnd == 2);
        }
        EXPECT_TRUE(has_1p1);
        EXPECT_TRUE(has_1p2);
    }
}

TEST_P(SurfaceCodeSweep, SingleErrorSyndromeMatchesIncidence)
{
    const RotatedSurfaceCode code(GetParam());
    for (const CheckType err : {CheckType::X, CheckType::Z}) {
        const CheckType det = detector_of_error(err);
        for (int q = 0; q < code.num_data(); ++q) {
            PackedBits error(code.num_data());
            error.set(q);
            PackedSyndrome syndrome;
            code.syndrome_of(det, error, syndrome);
            ASSERT_EQ(syndrome.size(), code.num_checks(det));
            std::set<int> fired;
            for (int c = 0; c < code.num_checks(det); ++c) {
                if (syndrome.test(c)) {
                    fired.insert(c);
                }
            }
            const auto &owners = code.checks_of_data(det, q);
            EXPECT_EQ(fired.size(), owners.size());
            for (const int c : owners) {
                EXPECT_TRUE(fired.count(c));
            }
        }
    }
}

TEST_P(SurfaceCodeSweep, LogicalOperatorsHaveTrivialSyndrome)
{
    const RotatedSurfaceCode code(GetParam());
    for (const CheckType err : {CheckType::X, CheckType::Z}) {
        PackedBits error(code.num_data());
        for (const int q : code.logical_support(err)) {
            error.flip(q);
        }
        PackedSyndrome syndrome;
        code.syndrome_of(detector_of_error(err), error, syndrome);
        EXPECT_EQ(syndrome.size(), code.num_checks(detector_of_error(err)));
        EXPECT_TRUE(syndrome.none());
        EXPECT_TRUE(code.logical_flipped(err, error));
    }
}

TEST_P(SurfaceCodeSweep, LogicalsAnticommute)
{
    const RotatedSurfaceCode code(GetParam());
    std::set<int> x_support(code.logical_support(CheckType::X).begin(),
                            code.logical_support(CheckType::X).end());
    int overlap = 0;
    for (const int q : code.logical_support(CheckType::Z)) {
        overlap += x_support.count(q) ? 1 : 0;
    }
    EXPECT_EQ(overlap % 2, 1);
}

TEST_P(SurfaceCodeSweep, LogicalWeightIsDistance)
{
    const int d = GetParam();
    const RotatedSurfaceCode code(d);
    EXPECT_EQ(code.logical_support(CheckType::X).size(),
              static_cast<size_t>(d));
    EXPECT_EQ(code.logical_support(CheckType::Z).size(),
              static_cast<size_t>(d));
}

/** GF(2) rank of a set of bit rows. */
int
gf2_rank(std::vector<std::vector<uint8_t>> rows)
{
    if (rows.empty()) {
        return 0;
    }
    const size_t cols = rows[0].size();
    int rank = 0;
    size_t pivot_col = 0;
    for (size_t r = 0; r < rows.size() && pivot_col < cols; ++pivot_col) {
        size_t pivot = r;
        while (pivot < rows.size() && !rows[pivot][pivot_col]) {
            ++pivot;
        }
        if (pivot == rows.size()) {
            continue;
        }
        std::swap(rows[r], rows[pivot]);
        for (size_t other = 0; other < rows.size(); ++other) {
            if (other != r && rows[other][pivot_col]) {
                for (size_t c = 0; c < cols; ++c) {
                    rows[other][c] ^= rows[r][c];
                }
            }
        }
        ++r;
        rank = static_cast<int>(r);
    }
    return rank;
}

TEST_P(SurfaceCodeSweep, LogicalIndependentOfStabilizers)
{
    // X_L must not be a product of X stabilizers (and symmetrically
    // for Z): appending the logical row to the stabilizer matrix must
    // increase its GF(2) rank.
    const int d = GetParam();
    if (d > 9) {
        GTEST_SKIP() << "rank check kept to small lattices for speed";
    }
    const RotatedSurfaceCode code(d);
    for (const CheckType t : {CheckType::X, CheckType::Z}) {
        std::vector<std::vector<uint8_t>> rows;
        for (const Check &chk : code.checks(t)) {
            std::vector<uint8_t> row(code.num_data(), 0);
            for (const int q : chk.data) {
                row[q] = 1;
            }
            rows.push_back(std::move(row));
        }
        const int base_rank = gf2_rank(rows);
        std::vector<uint8_t> logical_row(code.num_data(), 0);
        for (const int q : code.logical_support(t)) {
            logical_row[q] = 1;
        }
        rows.push_back(std::move(logical_row));
        EXPECT_EQ(gf2_rank(rows), base_rank + 1);
    }
}

TEST_P(SurfaceCodeSweep, EdgeOfDataConsistentWithIncidence)
{
    const RotatedSurfaceCode code(GetParam());
    for (const CheckType t : {CheckType::X, CheckType::Z}) {
        for (int q = 0; q < code.num_data(); ++q) {
            const auto [a, b] = code.edge_of_data(t, q);
            const auto &owners = code.checks_of_data(t, q);
            EXPECT_EQ(a, owners[0]);
            if (owners.size() == 2) {
                EXPECT_EQ(b, owners[1]);
            } else {
                EXPECT_EQ(b, -1);
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Distances, SurfaceCodeSweep,
                         ::testing::Values(3, 5, 7, 9, 11, 13, 21));

TEST(SurfaceCode, CheckAtRoundTripsPlaquetteCoordinates)
{
    const RotatedSurfaceCode code(7);
    for (const CheckType t : {CheckType::X, CheckType::Z}) {
        for (const Check &chk : code.checks(t)) {
            EXPECT_EQ(code.check_at(t, chk.pr, chk.pc), chk.id);
            // The opposite type never owns the same plaquette.
            const CheckType other =
                t == CheckType::X ? CheckType::Z : CheckType::X;
            EXPECT_EQ(code.check_at(other, chk.pr, chk.pc), -1);
        }
    }
    EXPECT_EQ(code.check_at(CheckType::X, -1, -1), -1);  // corner
    EXPECT_EQ(code.check_at(CheckType::X, 99, 0), -1);   // out of range
    EXPECT_EQ(code.check_at(CheckType::Z, -2, 0), -1);
}

TEST(LatticeGolden, TablesMatchCommittedHashes)
{
    const std::string path =
        std::string(BTWC_GOLDEN_DIR) + "/lattice_tables.txt";
    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << path;
    std::vector<std::string> golden;
    for (std::string line; std::getline(in, line);) {
        if (!line.empty() && line[0] != '#') {
            golden.push_back(line);
        }
    }
    const std::vector<std::string> lines = lattice_table_lines();
    ASSERT_EQ(golden.size(), lines.size());
    for (size_t i = 0; i < lines.size(); ++i) {
        EXPECT_EQ(lines[i], golden[i]);
    }
}

TEST(SurfaceCode, DataIdCoordinateRoundTrip)
{
    const RotatedSurfaceCode code(9);
    for (int r = 0; r < 9; ++r) {
        for (int c = 0; c < 9; ++c) {
            const int id = code.data_id(r, c);
            EXPECT_EQ(code.data_row(id), r);
            EXPECT_EQ(code.data_col(id), c);
        }
    }
}

TEST(ErrorFrame, InjectionRateMatchesProbability)
{
    const RotatedSurfaceCode code(9);
    ErrorFrame frame(code, CheckType::X);
    Rng rng(5);
    const double p = 0.05;
    uint64_t flips = 0;
    const int cycles = 2000;
    for (int i = 0; i < cycles; ++i) {
        frame.reset();
        frame.inject(p, rng);
        flips += static_cast<uint64_t>(frame.weight());
    }
    const double expected = p * code.num_data() * cycles;
    EXPECT_NEAR(static_cast<double>(flips), expected,
                5.0 * std::sqrt(expected));
}

TEST(ErrorFrame, MeasurementFlipsAreTransient)
{
    const RotatedSurfaceCode code(5);
    ErrorFrame frame(code, CheckType::X);
    Rng rng(6);
    std::vector<uint8_t> noisy;
    std::vector<uint8_t> clean;
    frame.measure(0.5, rng, noisy);
    frame.measure_perfect(clean);
    for (const uint8_t s : clean) {
        EXPECT_EQ(s, 0);  // measurement noise never touches the state
    }
    EXPECT_TRUE(frame.syndrome_clear());
}

TEST(ErrorFrame, ApplyMaskTogglesErrors)
{
    const RotatedSurfaceCode code(5);
    ErrorFrame frame(code, CheckType::X);
    frame.flip(7);
    PackedBits mask(code.num_data());
    mask.set(7);
    frame.apply_mask(mask);
    EXPECT_EQ(frame.weight(), 0);
    EXPECT_TRUE(frame.syndrome_clear());
}

TEST(ErrorFrame, ApplyMaskRejectsWrongLength)
{
    // A TierChain walk leaves its correction zero-width when nothing
    // fired; applying that, or any mask not one bit per data qubit,
    // through either spelling must fail loudly instead of flipping
    // qubits past num_data (past the end of the frame's words).
    const RotatedSurfaceCode code(5);
    ErrorFrame frame(code, CheckType::X);
    frame.flip(7);
    const ErrorFrame before = frame;
    const auto all_set = [](int bits) {
        PackedBits mask(bits);
        for (int i = 0; i < bits; ++i) {
            mask.set(i);
        }
        return mask;
    };
    const int n = code.num_data();
    for (const int bits : {0, n - 1, n + 1, 64, 130}) {
        const PackedBits mask = all_set(bits);
        EXPECT_THROW(frame.apply_mask(mask), CheckFailure) << bits;
        EXPECT_THROW(frame.apply_packed(mask), CheckFailure) << bits;
    }
    // Nothing was applied.
    EXPECT_EQ(frame.error(), before.error());
    EXPECT_EQ(frame.syndrome(), before.syndrome());
    EXPECT_NO_THROW(frame.audit());
}

TEST(ErrorFrame, LogicalFlipDetected)
{
    const RotatedSurfaceCode code(5);
    ErrorFrame frame(code, CheckType::X);
    for (const int q : code.logical_support(CheckType::X)) {
        frame.flip(q);
    }
    EXPECT_TRUE(frame.syndrome_clear());
    EXPECT_TRUE(frame.logical_flipped());
}

TEST(ErrorFrame, StabilizerIsNotLogical)
{
    const RotatedSurfaceCode code(5);
    ErrorFrame frame(code, CheckType::X);
    // Applying one X stabilizer's support as an error pattern must be
    // invisible: trivial syndrome and no logical flip.
    const Check &chk = code.check(CheckType::X, 3);
    for (const int q : chk.data) {
        frame.flip(q);
    }
    EXPECT_TRUE(frame.syndrome_clear());
    EXPECT_FALSE(frame.logical_flipped());
}

/** Every read of `frame` agrees with a recomputation from `want`. */
void
expect_frame_consistent(const ErrorFrame &frame, const PackedBits &want,
                        int step)
{
    const RotatedSurfaceCode &code = frame.code();
    ASSERT_EQ(frame.error(), want) << "step " << step;
    PackedSyndrome syndrome;
    code.syndrome_of(frame.detector(), want, syndrome);
    std::vector<uint8_t> perfect;
    frame.measure_perfect(perfect);
    PackedSyndrome perfect_packed;
    perfect_packed.from_bytes(perfect);
    ASSERT_EQ(perfect_packed, syndrome) << "step " << step;
    ASSERT_EQ(frame.syndrome(), syndrome) << "step " << step;
    Rng unused(0);
    PackedSyndrome measured;
    frame.measure_packed(0.0, unused, measured);
    ASSERT_EQ(measured, syndrome) << "step " << step;
    ASSERT_EQ(frame.syndrome_clear(), syndrome.none()) << "step " << step;
    ASSERT_EQ(frame.logical_flipped(),
              code.logical_flipped(frame.error_type(), want))
        << "step " << step;
    ASSERT_NO_THROW(frame.audit()) << "step " << step;
}

TEST(ErrorFrame, StoredSyndromeTracksEveryMutator)
{
    for (const int d : {3, 9, 21}) {
        const RotatedSurfaceCode code(d);
        for (const CheckType type : {CheckType::X, CheckType::Z}) {
            Rng rng(static_cast<uint64_t>(17 * d) +
                    static_cast<uint64_t>(type));
            const int n = code.num_data();
            std::vector<ErrorFrame> frames;
            frames.emplace_back(code, type);
            PackedBits want(n);
            for (int step = 0; step < 300; ++step) {
                ErrorFrame &frame = frames.back();
                switch (rng.next_below(7)) {
                  case 0: {
                    const int q = static_cast<int>(rng.next_below(n));
                    frame.flip(q);
                    want.flip(q);
                    break;
                  }
                  case 1: {
                    // Mirror inject's draws on a twin stream.
                    Rng twin = rng;
                    ErrorFrame shadow(code, type);
                    shadow.inject(0.05, twin);
                    frame.inject(0.05, rng);
                    want ^= shadow.error();
                    break;
                  }
                  case 2: {
                    std::vector<int> list;
                    for (int i = 0; i < 4; ++i) {
                        list.push_back(static_cast<int>(rng.next_below(n)));
                    }
                    frame.apply(list);
                    for (const int q : list) {
                        want.flip(q);
                    }
                    break;
                  }
                  case 3: {
                    PackedBits mask(n);
                    for (int q = 0; q < n; ++q) {
                        if (rng.bernoulli(0.1)) {
                            mask.set(q);
                        }
                    }
                    frame.apply_mask(mask);
                    want ^= mask;
                    break;
                  }
                  case 4: {
                    PackedBits mask(n);
                    for (int q = 0; q < n; ++q) {
                        if (rng.bernoulli(0.1)) {
                            mask.set(q);
                            want.flip(q);
                        }
                    }
                    frame.apply_packed(mask);
                    break;
                  }
                  case 5:
                    if (rng.bernoulli(0.2)) {
                        frame.reset();
                        want.clear();
                    }
                    break;
                  default:
                    // Copy-construction carries the stored syndrome.
                    frames.push_back(frames.back());
                    break;
                }
                expect_frame_consistent(frames.back(), want, step);
                if (HasFatalFailure()) {
                    return;
                }
            }
        }
    }
}

} // namespace
} // namespace btwc
