/**
 * @file
 * Property tests pinning the packed syndrome fast path bit-exact
 * against the byte-vector reference path at every layer: PackedBits
 * itself (word-boundary widths), syndrome extraction, the measurement
 * filter, event materialization, Clique screening, the Union-Find
 * mid-tier, and the full TierChain walk (against a test-local
 * event-path walk) — across distances, round counts, both detector
 * types and random noise.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <ios>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "core/clique.hpp"
#include "core/filter.hpp"
#include "decoders/clique_tier.hpp"
#include "decoders/decoder.hpp"
#include "decoders/lookup_table.hpp"
#include "decoders/tier_chain.hpp"
#include "matching/union_find.hpp"
#include "surface/distance.hpp"
#include "surface/frame.hpp"
#include "surface/lattice.hpp"
#include "surface/packed.hpp"

namespace btwc {
namespace {

const int kDistances[] = {3, 5, 7, 9, 21};

/** Random byte syndrome with independent per-check fire probability. */
std::vector<uint8_t>
random_syndrome(int num_checks, double density, Rng &rng)
{
    std::vector<uint8_t> syndrome(static_cast<size_t>(num_checks), 0);
    for (auto &bit : syndrome) {
        bit = rng.bernoulli(density) ? 1 : 0;
    }
    return syndrome;
}

/** Syndrome of `errors` random data errors (real parity structure). */
std::vector<uint8_t>
error_syndrome(const RotatedSurfaceCode &code, CheckType error_type,
               int errors, Rng &rng)
{
    ErrorFrame frame(code, error_type);
    for (int i = 0; i < errors; ++i) {
        frame.flip(static_cast<int>(rng.next_below(code.num_data())));
    }
    std::vector<uint8_t> syndrome;
    frame.measure_perfect(syndrome);
    return syndrome;
}

/** Round-0 events of a byte syndrome, ascending check order: the
 * byte-vector reference for `events_from_packed`. */
std::vector<DetectionEvent>
byte_events(const std::vector<uint8_t> &syndrome)
{
    std::vector<DetectionEvent> events;
    for (int c = 0; c < static_cast<int>(syndrome.size()); ++c) {
        if (syndrome[static_cast<size_t>(c)] & 1) {
            events.push_back(DetectionEvent{c, 0});
        }
    }
    return events;
}

/** Random spacetime detection events, ascending (round, check). */
std::vector<DetectionEvent>
random_events(int num_checks, int rounds, double density, Rng &rng)
{
    std::vector<DetectionEvent> events;
    for (int t = 0; t < rounds; ++t) {
        for (int c = 0; c < num_checks; ++c) {
            if (rng.bernoulli(density)) {
                events.push_back(DetectionEvent{c, t});
            }
        }
    }
    return events;
}

void
expect_result_eq(const Decoder::Result &byte_result,
                 const Decoder::Result &packed_result, const char *what)
{
    EXPECT_EQ(byte_result.correction, packed_result.correction) << what;
    EXPECT_EQ(byte_result.weight, packed_result.weight) << what;
    EXPECT_EQ(byte_result.defects, packed_result.defects) << what;
    EXPECT_EQ(byte_result.effort, packed_result.effort) << what;
    EXPECT_EQ(byte_result.resolved, packed_result.resolved) << what;
}

// ---------------------------------------------------------------- //
// PackedBits word-boundary behavior. No real code distance yields
// exactly 64/65/128 checks, so the container is exercised directly.
// ---------------------------------------------------------------- //

TEST(PackedBits, EmptyMeansZeroWidth)
{
    // Zero width is the "no tier ran" / nack marker of a correction;
    // an all-zero mask of nonzero width is none() but not empty().
    PackedBits mask;
    EXPECT_TRUE(mask.empty());
    EXPECT_TRUE(mask.none());
    EXPECT_EQ(mask.size(), 0);
    for (const int bits : {1, 25, 64, 65}) {
        mask.resize(bits);
        EXPECT_FALSE(mask.empty()) << bits;
        EXPECT_TRUE(mask.none()) << bits;
        mask.set(bits - 1);
        EXPECT_FALSE(mask.empty()) << bits;
        EXPECT_FALSE(mask.none()) << bits;
        mask.resize(0);
        EXPECT_TRUE(mask.empty()) << bits;
        EXPECT_TRUE(mask.none()) << bits;
    }
}

TEST(PackedBits, MovedFromIsZeroWidth)
{
    // A moved-from mask (construction and assignment) reads empty(),
    // and reset(n) at its old width gives it words again, so set/test
    // stay in bounds.
    for (const int bits : {1, 64, 65, 441}) {
        PackedBits source(bits);
        source.set(bits - 1);
        const PackedBits taken(std::move(source));
        EXPECT_TRUE(taken.test(bits - 1)) << bits;
        EXPECT_TRUE(source.empty()) << bits;  // NOLINT(bugprone-use-after-move)
        EXPECT_EQ(source.num_words(), 0) << bits;
        source.reset(bits);
        EXPECT_EQ(source.size(), bits);
        EXPECT_TRUE(source.none()) << bits;
        source.set(bits - 1);
        EXPECT_TRUE(source.test(bits - 1)) << bits;

        PackedBits target;
        target = std::move(source);
        EXPECT_TRUE(target.test(bits - 1)) << bits;
        EXPECT_TRUE(source.empty()) << bits;  // NOLINT(bugprone-use-after-move)
        source.reset(bits);
        source.set(0);
        EXPECT_TRUE(source.test(0)) << bits;
        EXPECT_EQ(source.popcount(), 1) << bits;
    }
}

TEST(PackedBits, WordBoundaryWidths)
{
    for (const int bits : {1, 63, 64, 65, 127, 128, 129}) {
        PackedBits packed(bits);
        EXPECT_EQ(packed.size(), bits);
        EXPECT_EQ(packed.num_words(), packed_words(bits));
        EXPECT_TRUE(packed.none()) << bits;
        EXPECT_EQ(packed.popcount(), 0) << bits;

        // First / boundary-straddling / last bit.
        std::vector<int> probe = {0, bits - 1};
        if (bits > 64) {
            probe.push_back(63);
            probe.push_back(64);
        }
        int expected = 0;
        for (const int i : probe) {
            if (!packed.test(i)) {
                packed.set(i);
                ++expected;
            }
        }
        EXPECT_EQ(packed.popcount(), expected) << bits;
        for (const int i : probe) {
            EXPECT_TRUE(packed.test(i)) << bits << ":" << i;
        }
        // for_each_set visits ascending, each set bit exactly once.
        std::vector<int> seen;
        packed.for_each_set([&seen](int i) { seen.push_back(i); });
        EXPECT_EQ(static_cast<int>(seen.size()), expected) << bits;
        for (size_t k = 1; k < seen.size(); ++k) {
            EXPECT_LT(seen[k - 1], seen[k]) << bits;
        }
        // flip clears what set set; none() again.
        for (const int i : seen) {
            packed.flip(i);
        }
        EXPECT_TRUE(packed.none()) << bits;
    }
}

TEST(PackedBits, RoundTripAndBitwiseOpsMatchBytes)
{
    Rng rng(42);
    for (const int bits : {64, 65, 128, 200}) {
        std::vector<uint8_t> a_bytes(static_cast<size_t>(bits));
        std::vector<uint8_t> b_bytes(static_cast<size_t>(bits));
        for (int i = 0; i < bits; ++i) {
            a_bytes[i] = rng.bernoulli(0.3) ? 1 : 0;
            b_bytes[i] = rng.bernoulli(0.3) ? 1 : 0;
        }
        PackedBits a;
        PackedBits b;
        a.from_bytes(a_bytes);
        b.from_bytes(b_bytes);

        std::vector<uint8_t> back;
        a.to_bytes(back);
        EXPECT_EQ(back, a_bytes) << bits;

        int ones = 0;
        for (const uint8_t bit : a_bytes) {
            ones += bit;
        }
        EXPECT_EQ(a.popcount(), ones) << bits;

        PackedBits x = a;
        x ^= b;
        PackedBits o = a;
        o |= b;
        PackedBits n = a;
        n &= b;
        for (int i = 0; i < bits; ++i) {
            EXPECT_EQ(x.test(i), (a_bytes[i] ^ b_bytes[i]) != 0) << i;
            EXPECT_EQ(o.test(i), (a_bytes[i] | b_bytes[i]) != 0) << i;
            EXPECT_EQ(n.test(i), (a_bytes[i] & b_bytes[i]) != 0) << i;
        }
        EXPECT_EQ(and_popcount(a.data(), b.data(), a.num_words()),
                  n.popcount());

        // reset keeps the width / changes it, always all-zero after.
        a.reset(bits);
        EXPECT_TRUE(a.none());
        a.reset(bits + 7);
        EXPECT_EQ(a.size(), bits + 7);
        EXPECT_TRUE(a.none());
    }
}

/** Set bits of `w`, one bit at a time. */
int
bit_loop_popcount(uint64_t w)
{
    int n = 0;
    for (int i = 0; i < 64; ++i) {
        n += static_cast<int>((w >> i) & 1);
    }
    return n;
}

TEST(PackedBits, Popcount64MatchesABitLoopOnEdgeWords)
{
    std::vector<uint64_t> words = {0, ~uint64_t(0), 0x5555555555555555ull,
                                   0xaaaaaaaaaaaaaaaaull,
                                   0x8000000000000001ull};
    for (int i = 0; i < 64; ++i) {
        words.push_back(uint64_t(1) << i);
        words.push_back(~(uint64_t(1) << i));
        words.push_back(~uint64_t(0) >> i);  // a partial tail word
    }
    Rng rng(41);
    for (int i = 0; i < 200; ++i) {
        words.push_back(rng.next_u64());
    }
    for (const uint64_t w : words) {
        EXPECT_EQ(popcount64(w), bit_loop_popcount(w)) << std::hex << w;
    }
}

TEST(PackedBits, AndParityMatchesAndPopcount)
{
    // The Clique screen's neighbourhood test: the parity and emptiness
    // of a & b must agree with the full popcount, across word counts
    // that end on and off a word boundary.
    Rng rng(42);
    for (const int bits : {1, 63, 64, 65, 128, 200, 441}) {
        for (const double density : {0.0, 0.01, 0.3, 1.0}) {
            PackedBits a(bits);
            PackedBits b(bits);
            for (int i = 0; i < bits; ++i) {
                if (rng.bernoulli(density)) {
                    a.set(i);
                }
                if (rng.bernoulli(0.5)) {
                    b.set(i);
                }
            }
            const int n = and_popcount(a.data(), b.data(), a.num_words());
            const AndParity p = and_parity(a.data(), b.data(), a.num_words());
            EXPECT_EQ(p.odd, (n & 1) != 0) << bits << " " << density;
            EXPECT_EQ(p.any, n != 0) << bits << " " << density;
        }
    }
}

// ---------------------------------------------------------------- //
// Event materialization and syndrome extraction.
// ---------------------------------------------------------------- //

TEST(PackedEvents, MatchesByteEventsAcrossDistances)
{
    Rng rng(7);
    for (const int d : kDistances) {
        const RotatedSurfaceCode code(d);
        const int num_checks = code.num_checks(CheckType::Z);
        for (int trial = 0; trial < 50; ++trial) {
            const std::vector<uint8_t> syndrome =
                random_syndrome(num_checks, 0.1, rng);
            PackedSyndrome packed;
            packed.from_bytes(syndrome);

            const std::vector<DetectionEvent> want = byte_events(syndrome);
            std::vector<DetectionEvent> packed_events;
            events_from_packed(packed, packed_events);

            ASSERT_EQ(want.size(), packed_events.size());
            for (size_t i = 0; i < want.size(); ++i) {
                EXPECT_EQ(want[i].check, packed_events[i].check);
                EXPECT_EQ(want[i].round, packed_events[i].round);
            }
        }
    }
}

TEST(PackedExtraction, MeasurePackedMatchesByteMeasureAndRngStream)
{
    for (const int d : {3, 5, 9, 21}) {
        const RotatedSurfaceCode code(d);
        for (const CheckType err : {CheckType::X, CheckType::Z}) {
            ErrorFrame byte_frame(code, err);
            ErrorFrame packed_frame(code, err);
            Rng byte_rng(100 + d);
            Rng packed_rng(100 + d);
            std::vector<uint8_t> byte_syndrome;
            PackedSyndrome packed_syndrome;
            for (int cycle = 0; cycle < 20; ++cycle) {
                byte_frame.inject(5e-3, byte_rng);
                packed_frame.inject(5e-3, packed_rng);
                byte_frame.measure(2e-3, byte_rng, byte_syndrome);
                packed_frame.measure_packed(2e-3, packed_rng,
                                            packed_syndrome);
                std::vector<uint8_t> unpacked;
                packed_syndrome.to_bytes(unpacked);
                ASSERT_EQ(byte_syndrome, unpacked)
                    << "d=" << d << " cycle=" << cycle;
                // Identical RNG stream consumption: the packed
                // extraction must draw exactly the byte path's
                // geometric meas-flip sequence, or every downstream
                // Monte-Carlo pin would silently drift.
                ASSERT_EQ(byte_rng.next_u64(), packed_rng.next_u64())
                    << "d=" << d << " cycle=" << cycle;
            }
        }
    }
}

TEST(PackedFrame, ApplyPackedMatchesApplyMask)
{
    // Both spellings are one checked path; each equals toggling every
    // set qubit with flip().
    Rng rng(55);
    const RotatedSurfaceCode code(9);
    ErrorFrame flip_frame(code, CheckType::X);
    ErrorFrame mask_frame(code, CheckType::X);
    ErrorFrame packed_frame(code, CheckType::X);
    for (int trial = 0; trial < 30; ++trial) {
        PackedBits mask(code.num_data());
        for (int q = 0; q < code.num_data(); ++q) {
            if (rng.bernoulli(0.05)) {
                mask.set(q);
                flip_frame.flip(q);
            }
        }
        mask_frame.apply_mask(mask);
        packed_frame.apply_packed(mask);
        EXPECT_EQ(flip_frame.error(), mask_frame.error());
        EXPECT_EQ(packed_frame.error(), mask_frame.error());
        EXPECT_EQ(flip_frame.syndrome(), mask_frame.syndrome());
        EXPECT_EQ(flip_frame.weight(), packed_frame.weight());
        mask_frame.audit();
    }
}

// ---------------------------------------------------------------- //
// Measurement filter.
// ---------------------------------------------------------------- //

TEST(PackedFilter, MatchesByteFilterOnRandomStreams)
{
    Rng rng(17);
    for (const int rounds : {1, 2, 3}) {
        for (const int num_checks : {4, 24, 112, 220}) {
            MeasurementFilter byte_filter(num_checks, rounds);
            PackedMeasurementFilter packed_filter(num_checks, rounds);
            EXPECT_EQ(byte_filter.rounds(), packed_filter.rounds());
            for (int push = 0; push < 12; ++push) {
                const std::vector<uint8_t> raw =
                    random_syndrome(num_checks, 0.2, rng);
                PackedSyndrome packed_raw;
                packed_raw.from_bytes(raw);
                const std::vector<uint8_t> &byte_out =
                    byte_filter.push(raw);
                const PackedSyndrome &packed_out =
                    packed_filter.push(packed_raw);
                std::vector<uint8_t> unpacked;
                packed_out.to_bytes(unpacked);
                ASSERT_EQ(byte_out, unpacked)
                    << "rounds=" << rounds << " checks=" << num_checks
                    << " push=" << push;
            }
            byte_filter.reset();
            packed_filter.reset();
            const std::vector<uint8_t> raw(
                static_cast<size_t>(num_checks), 1);
            PackedSyndrome packed_raw;
            packed_raw.from_bytes(raw);
            std::vector<uint8_t> unpacked;
            packed_filter.push(packed_raw).to_bytes(unpacked);
            EXPECT_EQ(byte_filter.push(raw), unpacked);
        }
    }
}

// ---------------------------------------------------------------- //
// Clique screening.
// ---------------------------------------------------------------- //

void
expect_clique_match(const CliqueDecoder &clique,
                    const std::vector<uint8_t> &syndrome)
{
    PackedSyndrome packed;
    packed.from_bytes(syndrome);
    const CliqueOutcome byte_out = clique.decode(syndrome);
    PackedBits correction;
    const CliqueVerdict packed_verdict =
        clique.decode_packed(packed, correction);

    ASSERT_EQ(byte_out.verdict, packed_verdict);
    std::vector<int> packed_corrections;
    correction.for_each_set(
        [&packed_corrections](int q) { packed_corrections.push_back(q); });
    EXPECT_EQ(byte_out.corrections, packed_corrections);
    EXPECT_EQ(byte_out.verdict == CliqueVerdict::Complex,
              clique.would_raise_complex(packed));
}

TEST(PackedClique, MatchesByteCliqueOnRandomNoise)
{
    Rng rng(23);
    for (const int d : kDistances) {
        const RotatedSurfaceCode code(d);
        for (const CheckType det : {CheckType::X, CheckType::Z}) {
            const CliqueDecoder clique(code, det);
            const int num_checks = code.num_checks(det);
            const CheckType err = det == CheckType::X ? CheckType::Z
                                                      : CheckType::X;
            for (int trial = 0; trial < 60; ++trial) {
                // Real parity structure (Trivial-heavy) and raw random
                // bits (Complex-heavy) both pinned.
                expect_clique_match(
                    clique, error_syndrome(code, err, 1 + trial % 4, rng));
                expect_clique_match(
                    clique, random_syndrome(num_checks, 0.08, rng));
            }
            // All-zero and all-ones extremes.
            expect_clique_match(
                clique,
                std::vector<uint8_t>(static_cast<size_t>(num_checks), 0));
            expect_clique_match(
                clique,
                std::vector<uint8_t>(static_cast<size_t>(num_checks), 1));
        }
    }
}

TEST(PackedClique, ScratchReuseAcrossCalls)
{
    // Repeated calls on one instance must not leak state between
    // syndromes (pooled assert/correction scratch).
    Rng rng(29);
    const RotatedSurfaceCode code(9);
    const CliqueDecoder clique(code, CheckType::Z);
    const CliqueDecoder fresh(code, CheckType::Z);
    const int num_checks = code.num_checks(CheckType::Z);
    for (int trial = 0; trial < 40; ++trial) {
        const std::vector<uint8_t> syndrome =
            random_syndrome(num_checks, trial % 2 ? 0.3 : 0.05, rng);
        const CliqueOutcome reused = clique.decode(syndrome);
        const CliqueOutcome pristine = fresh.decode(syndrome);
        EXPECT_EQ(reused.verdict, pristine.verdict);
        EXPECT_EQ(reused.corrections, pristine.corrections);
    }
}

// ---------------------------------------------------------------- //
// Union-Find: one pooled instance vs fresh instances. The results
// themselves are pinned by tests/golden/uf_decodes.txt
// (test_uf_decodes.cpp); these tests pin that no state leaks from one
// call into the next.
// ---------------------------------------------------------------- //

/** A Result holding another call's leftovers in every field. */
Decoder::Result
dirty_result()
{
    Decoder::Result dirty;
    dirty.correction.resize(3);
    dirty.correction.set(1);
    dirty.weight = -1;
    dirty.defects = -1;
    dirty.effort = -1;
    dirty.resolved = false;
    return dirty;
}

/** Decode on `pooled` through every spelling and on a fresh instance;
 * all must agree. */
void
expect_pooled_matches_fresh(const RotatedSurfaceCode &code,
                            const UnionFindDecoder &pooled,
                            const std::vector<DetectionEvent> &events,
                            int rounds, const char *what)
{
    const UnionFindDecoder fresh(code, pooled.detector());
    const Decoder::Result expected = fresh.decode(events, rounds);
    expect_result_eq(expected, pooled.decode(events, rounds), what);
    // The out-param entry overwrites every field of a reused Result.
    Decoder::Result reused = dirty_result();
    pooled.decode(events, rounds, reused);
    expect_result_eq(expected, reused, what);
    if (rounds == 1) {
        // The packed single-round spelling sees each fired check once
        // (repeated events cancel).
        std::vector<uint8_t> syndrome(
            static_cast<size_t>(code.num_checks(pooled.detector())), 0);
        for (const DetectionEvent &e : events) {
            syndrome[static_cast<size_t>(e.check)] ^= 1;
        }
        PackedSyndrome packed;
        packed.from_bytes(syndrome);
        reused = dirty_result();
        pooled.decode_packed(packed, reused);
        expect_result_eq(fresh.decode(byte_events(syndrome), 1), reused,
                         what);
    }
}

TEST(PackedUnionFind, ScratchSurvivesRoundCountChanges)
{
    // The cached spacetime topology rebuilds when `rounds` changes;
    // interleaving window depths on one instance must decode exactly
    // as fresh instances do.
    Rng rng(37);
    const RotatedSurfaceCode code(7);
    const UnionFindDecoder uf(code, CheckType::Z);
    const int num_checks = code.num_checks(CheckType::Z);
    const int round_sequence[] = {1, 4, 1, 8, 4, 4, 1, 1};
    for (const int rounds : round_sequence) {
        const std::vector<DetectionEvent> events =
            random_events(num_checks, rounds, 0.05, rng);
        expect_pooled_matches_fresh(code, uf, events, rounds,
                                    "round change");
    }
}

TEST(PackedUnionFind, PooledDecodesMatchFreshUnderDeepAudit)
{
    // A random call sequence on one instance with the between-call
    // invariant re-checked on every entry: round counts shuffle,
    // event lists go empty, events repeat, inputs repeat, and dense
    // windows need many growth rounds.
    const ScopedAuditLevel deep(AuditLevel::Deep);
    Rng rng(43);
    for (const int d : {5, 11}) {
        const RotatedSurfaceCode code(d);
        for (const CheckType det : {CheckType::X, CheckType::Z}) {
            const UnionFindDecoder uf(code, det);
            const int num_checks = code.num_checks(det);
            const CheckGraphDistances &dist = code.check_distances(det);
            int far = 0;
            for (int c = 1; c < num_checks; ++c) {
                if (dist.boundary_hops(c) > dist.boundary_hops(far)) {
                    far = c;
                }
            }
            std::vector<DetectionEvent> events;
            int rounds = 1;
            for (int trial = 0; trial < 60; ++trial) {
                if (trial % 6 != 5) {  // else: repeat the last input
                    rounds = 1 + static_cast<int>(rng.next_below(d + 1));
                    const double density =
                        trial % 4 == 0 ? 0.3 : 0.02 * (1 + trial % 3);
                    events = trial % 7 == 3
                                 ? std::vector<DetectionEvent>()
                                 : random_events(num_checks, rounds,
                                                 density, rng);
                    if (!events.empty() && trial % 3 == 1) {
                        events.push_back(events[rng.next_below(
                            events.size())]);
                    }
                }
                // The check farthest from the boundary, alone in a
                // long window: its cluster grows two half-edges per
                // hop, plus the boundary edge, before it stops.
                if (trial == 17) {
                    rounds = d + 1;
                    events = {DetectionEvent{far, d / 2}};
                    EXPECT_EQ(uf.decode(events, rounds).effort,
                              2 * (dist.boundary_hops(far) + 1));
                }
                expect_pooled_matches_fresh(code, uf, events, rounds,
                                            "pooled sequence");
            }
        }
    }
}

// ---------------------------------------------------------------- //
// Tier adapters and the full chain walk.
// ---------------------------------------------------------------- //

TEST(PackedTiers, CliqueTierAndLutMatchByteDecodeSyndrome)
{
    Rng rng(41);
    for (const int d : {3, 5, 9}) {
        const RotatedSurfaceCode code(d);
        const CliqueTierDecoder clique_tier(code, CheckType::Z);
        const LookupTableDecoder lut(code, CheckType::Z);
        const int num_checks = code.num_checks(CheckType::Z);
        for (int trial = 0; trial < 40; ++trial) {
            const std::vector<uint8_t> syndrome =
                random_syndrome(num_checks, 0.1, rng);
            PackedSyndrome packed;
            packed.from_bytes(syndrome);
            const std::vector<DetectionEvent> events =
                byte_events(syndrome);
            expect_result_eq(clique_tier.decode(events, 1),
                             clique_tier.decode_packed(packed),
                             "clique tier");
            expect_result_eq(lut.decode(events, 1),
                             lut.decode_packed(packed), "lut tier");
        }
    }
}

/**
 * Test-local reference walk over a byte syndrome: every tier on its
 * event path (`Decoder::decode(events, 1)`) under the escalation rule
 * of src/decoders/README.md; an all-zero syndrome resolves at tier 0.
 */
TierChain::Result
byte_walk(const TierChain &chain, const std::vector<uint8_t> &syndrome,
          const TierChain::Options &options)
{
    const std::vector<DetectionEvent> events = byte_events(syndrome);
    TierChain::Result result;
    result.tier = chain.spec(0).kind;
    if (events.empty()) {
        result.decode = chain.decoder(0).decode(events, 1);
        return result;
    }
    int effort = 0;
    for (size_t i = 0; i < chain.size(); ++i) {
        const TierSpec &spec = chain.spec(i);
        result.tier_index = static_cast<int>(i);
        result.tier = spec.kind;
        result.offchip = spec.offchip;
        if (options.stop_before_offchip && spec.offchip) {
            result.resolved = false;
            result.effort = effort;
            result.decode.defects = static_cast<int>(events.size());
            return result;
        }
        Decoder::Result attempt = chain.decoder(i).decode(events, 1);
        effort = attempt.effort > effort ? attempt.effort : effort;
        const bool accept =
            attempt.resolved && (spec.escalation_threshold < 0 ||
                                 attempt.effort <= spec.escalation_threshold);
        if (accept || i + 1 == chain.size()) {
            result.resolved = attempt.resolved;
            result.effort = effort;
            result.decode = std::move(attempt);
            return result;
        }
    }
    return result;
}

void
expect_chain_match(const TierChain &chain,
                   const std::vector<uint8_t> &syndrome,
                   const TierChain::Options &options)
{
    PackedSyndrome packed;
    packed.from_bytes(syndrome);
    const TierChain::Result byte_result =
        byte_walk(chain, syndrome, options);
    TierChain::Result packed_result;
    chain.decode_syndrome(packed, options, packed_result);

    ASSERT_EQ(byte_result.tier_index, packed_result.tier_index);
    ASSERT_EQ(byte_result.tier, packed_result.tier);
    EXPECT_EQ(byte_result.offchip, packed_result.offchip);
    EXPECT_EQ(byte_result.resolved, packed_result.resolved);
    EXPECT_EQ(byte_result.effort, packed_result.effort);
    EXPECT_EQ(byte_result.decode.weight, packed_result.decode.weight);
    EXPECT_EQ(byte_result.decode.defects, packed_result.decode.defects);
    EXPECT_EQ(byte_result.decode.effort, packed_result.decode.effort);
    EXPECT_EQ(byte_result.decode.resolved,
              packed_result.decode.resolved);
    if (byte_result.decode.defects > 0 &&
        !byte_result.decode.correction.empty()) {
        EXPECT_EQ(byte_result.decode.correction,
                  packed_result.decode.correction);
    } else {
        // Documented shape difference: with nothing fired (or a
        // stopped/declined walk) the packed walk leaves the
        // correction zero-width where the byte walk may carry
        // num_data zero bits. Consumers gate on defects, so only
        // all-zero content is permitted here.
        EXPECT_TRUE(packed_result.decode.correction.none());
        EXPECT_TRUE(byte_result.decode.correction.none());
    }
}

TEST(PackedTierChain, MatchesByteWalkAcrossChainsAndOptions)
{
    Rng rng(43);
    const struct
    {
        const char *spec;
        int max_distance;
    } kChains[] = {
        {"clique,mwpm", 21},
        {"clique,uf:2,mwpm", 21},
        {"clique,uf:0,mwpm", 21},  // forces escalation-on-effort
        {"uf,mwpm", 21},
        {"lut,mwpm", 5},
        {"clique,lut,exact", 5},
    };
    for (const auto &entry : kChains) {
        const TierChainConfig config = TierChainConfig::parse(entry.spec);
        for (const int d : kDistances) {
            if (d > entry.max_distance) {
                continue;
            }
            const RotatedSurfaceCode code(d);
            const TierChain chain(code, CheckType::Z, config);
            const int num_checks = code.num_checks(CheckType::Z);
            for (const bool stop : {false, true}) {
                TierChain::Options options;
                options.stop_before_offchip = stop;
                const int trials = d >= 21 ? 10 : 30;
                for (int trial = 0; trial < trials; ++trial) {
                    expect_chain_match(
                        chain,
                        error_syndrome(code, CheckType::X,
                                       1 + trial % 5, rng),
                        options);
                    expect_chain_match(
                        chain, random_syndrome(num_checks, 0.08, rng),
                        options);
                }
                expect_chain_match(
                    chain,
                    std::vector<uint8_t>(static_cast<size_t>(num_checks),
                                         0),
                    options);
            }
        }
    }
}

TEST(PackedTierChain, PooledResultReuseIsStateless)
{
    // One pooled Result cycled through decodes of very different
    // shapes (all-zero, Trivial, Complex-escalated) must equal a
    // fresh-Result decode every time.
    Rng rng(47);
    const RotatedSurfaceCode code(9);
    const TierChain chain(code, CheckType::Z, TierChainConfig::deep());
    const int num_checks = code.num_checks(CheckType::Z);
    TierChain::Result pooled;
    for (int trial = 0; trial < 50; ++trial) {
        std::vector<uint8_t> syndrome;
        switch (trial % 3) {
          case 0:
            syndrome.assign(static_cast<size_t>(num_checks), 0);
            break;
          case 1:
            syndrome = error_syndrome(code, CheckType::X, 1, rng);
            break;
          default:
            syndrome = random_syndrome(num_checks, 0.2, rng);
            break;
        }
        PackedSyndrome packed;
        packed.from_bytes(syndrome);
        chain.decode_syndrome(packed, TierChain::Options(), pooled);
        const TierChain::Result fresh = chain.decode_syndrome(packed);
        EXPECT_EQ(pooled.tier_index, fresh.tier_index);
        EXPECT_EQ(pooled.resolved, fresh.resolved);
        EXPECT_EQ(pooled.effort, fresh.effort);
        EXPECT_EQ(pooled.decode.correction, fresh.decode.correction);
        EXPECT_EQ(pooled.decode.weight, fresh.decode.weight);
        EXPECT_EQ(pooled.decode.defects, fresh.decode.defects);
    }
}

} // namespace
} // namespace btwc
