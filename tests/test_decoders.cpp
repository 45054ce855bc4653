/**
 * @file
 * Tests for the pluggable decoder layer (src/decoders/): the abstract
 * `Decoder` interface and its packed single-round entry point, the
 * exact-DP matcher backend, tier-chain configuration parsing, the
 * equivalence of tier-chain classifications with the legacy two-tier
 * path, resuming a stopped walk, and the UnionFind-vs-MWPM accuracy
 * invariant promised in matching/union_find.hpp.
 */

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "decoders/clique_tier.hpp"
#include "decoders/decoder.hpp"
#include "decoders/exact_decoder.hpp"
#include "decoders/lookup_table.hpp"
#include "decoders/tier_chain.hpp"
#include "matching/mwpm.hpp"
#include "matching/union_find.hpp"
#include "sim/lifetime.hpp"
#include "sim/memory.hpp"
#include "surface/frame.hpp"
#include "surface/lattice.hpp"

namespace btwc {
namespace {

PackedSyndrome
random_syndrome(const RotatedSurfaceCode & /*code*/, double p, Rng &rng,
                ErrorFrame &frame)
{
    frame.reset();
    frame.inject(p, rng);
    return frame.syndrome();
}

/** One fired check: a single-round syndrome of `code`'s `detector`. */
PackedSyndrome
single_defect(const RotatedSurfaceCode &code, CheckType detector, int check)
{
    PackedSyndrome syndrome(code.num_checks(detector));
    syndrome.set(check);
    return syndrome;
}

TEST(DecoderInterface, AllBackendsDecodePolymorphically)
{
    // Every backend clears a random syndrome through the packed
    // single-round entry point of the abstract interface.
    const RotatedSurfaceCode code(7);
    std::vector<std::unique_ptr<Decoder>> backends;
    backends.push_back(
        std::make_unique<UnionFindDecoder>(code, CheckType::Z));
    backends.push_back(std::make_unique<MwpmDecoder>(code, CheckType::Z));
    backends.push_back(std::make_unique<ExactDecoder>(code, CheckType::Z));

    Rng rng(5);
    ErrorFrame frame(code, CheckType::X);
    for (int iter = 0; iter < 50; ++iter) {
        const auto syndrome = random_syndrome(code, 0.02, rng, frame);
        for (const auto &decoder : backends) {
            ErrorFrame copy = frame;
            const Decoder::Result fix = decoder->decode_packed(syndrome);
            EXPECT_TRUE(fix.resolved) << decoder->name();
            copy.apply_mask(fix.correction);
            EXPECT_TRUE(copy.syndrome_clear())
                << decoder->name() << " iter=" << iter;
        }
    }
}

TEST(DecoderInterface, SharedWrapperMatchesManualEventConstruction)
{
    const RotatedSurfaceCode code(5);
    const MwpmDecoder mwpm(code, CheckType::Z);
    Rng rng(6);
    ErrorFrame frame(code, CheckType::X);
    for (int iter = 0; iter < 30; ++iter) {
        const auto syndrome = random_syndrome(code, 0.05, rng, frame);
        std::vector<DetectionEvent> events;
        for (int c = 0; c < syndrome.size(); ++c) {
            if (syndrome.test(c)) {
                events.push_back(DetectionEvent{c, 0});
            }
        }
        const auto via_wrapper = mwpm.decode_packed(syndrome);
        const auto via_events = mwpm.decode(events, 1);
        EXPECT_EQ(via_wrapper.correction, via_events.correction);
        EXPECT_EQ(via_wrapper.weight, via_events.weight);
        EXPECT_EQ(via_wrapper.defects, via_events.defects);
    }
}

TEST(DecoderInterface, OutParamDecodeEqualsValueFormAndReusesCapacity)
{
    // Every backend's one event entry writes into the caller's Result:
    // it equals the value form field for field, and a second decode
    // into the same Result keeps its correction words (no
    // reallocation; the memory trials and the stream rely on it).
    const RotatedSurfaceCode code(5);
    const CheckType det = CheckType::Z;
    const int num_checks = code.num_checks(det);
    std::vector<std::unique_ptr<Decoder>> backends;
    backends.push_back(std::make_unique<CliqueTierDecoder>(code, det));
    backends.push_back(std::make_unique<LookupTableDecoder>(code, det));
    backends.push_back(std::make_unique<UnionFindDecoder>(code, det));
    backends.push_back(std::make_unique<MwpmDecoder>(code, det));
    backends.push_back(std::make_unique<ExactDecoder>(code, det));
    for (const std::unique_ptr<Decoder> &decoder : backends) {
        Rng rng(23);
        Decoder::Result out;
        const uint64_t *words = nullptr;
        for (int trial = 0; trial < 60; ++trial) {
            // Single-round syndromes (which the word-parallel tiers
            // resolve or decline) and three-round windows.
            const int rounds = trial % 3 == 0 ? 3 : 1;
            std::vector<DetectionEvent> events;
            PackedSyndrome syndrome(num_checks);
            for (int t = 0; t < rounds; ++t) {
                for (int c = 0; c < num_checks; ++c) {
                    if (rng.bernoulli(0.15)) {
                        events.push_back({c, t});
                        syndrome.set(c);
                    }
                }
            }
            const Decoder::Result value = decoder->decode(events, rounds);
            decoder->decode(events, rounds, out);
            ASSERT_EQ(out.correction.size(), code.num_data())
                << decoder->name();
            EXPECT_EQ(out.correction, value.correction) << decoder->name();
            EXPECT_EQ(out.weight, value.weight) << decoder->name();
            EXPECT_EQ(out.defects, value.defects) << decoder->name();
            EXPECT_EQ(out.effort, value.effort) << decoder->name();
            EXPECT_EQ(out.resolved, value.resolved) << decoder->name();
            if (words == nullptr) {
                words = out.correction.data();
            }
            EXPECT_EQ(out.correction.data(), words) << decoder->name();
            if (rounds == 1) {
                decoder->decode_packed(syndrome, out);
                EXPECT_EQ(out.correction, value.correction)
                    << decoder->name();
                EXPECT_EQ(out.weight, value.weight) << decoder->name();
                EXPECT_EQ(out.correction.data(), words) << decoder->name();
            }
        }
    }
}

TEST(DecoderInterface, CliqueTierDeclinesComplexSignatures)
{
    const RotatedSurfaceCode code(7);
    const CliqueTierDecoder clique(code, CheckType::Z);
    // Isolated interior defect: COMPLEX for Clique.
    for (int c = 0; c < code.num_checks(CheckType::Z); ++c) {
        if (!code.boundary_data(CheckType::Z, c).empty()) {
            continue;
        }
        const auto result =
            clique.decode_packed(single_defect(code, CheckType::Z, c));
        EXPECT_FALSE(result.resolved) << "check " << c;
        EXPECT_EQ(result.correction.size(), code.num_data());
        EXPECT_TRUE(result.correction.none());
    }
}

TEST(DecoderInterface, UnionFindReportsGrowthAsEffort)
{
    const RotatedSurfaceCode code(7);
    const UnionFindDecoder uf(code, CheckType::Z);
    for (int c = 0; c < code.num_checks(CheckType::Z); ++c) {
        if (!code.boundary_data(CheckType::Z, c).empty()) {
            continue;
        }
        const auto fix =
            uf.decode_packed(single_defect(code, CheckType::Z, c));
        EXPECT_GT(fix.effort, 0) << "check " << c;
    }
}

TEST(ExactDecoder, MatchesBlossomWeightOnRandomSyndromes)
{
    // The subset-DP matcher and the blossom matcher must find pairings
    // of identical total weight (the optimum is unique in weight).
    const RotatedSurfaceCode code(7);
    const MwpmDecoder blossom(code, CheckType::Z);
    const ExactDecoder exact(code, CheckType::Z);
    EXPECT_STREQ(exact.name(), "exact");
    Rng rng(7);
    ErrorFrame frame(code, CheckType::X);
    int nontrivial = 0;
    for (int iter = 0; iter < 200; ++iter) {
        const auto syndrome = random_syndrome(code, 0.03, rng, frame);
        const auto b = blossom.decode_packed(syndrome);
        const auto e = exact.decode_packed(syndrome);
        ASSERT_EQ(b.weight, e.weight) << "iter=" << iter;
        nontrivial += b.defects > 0 ? 1 : 0;

        ErrorFrame check = frame;
        check.apply_mask(e.correction);
        ASSERT_TRUE(check.syndrome_clear()) << "iter=" << iter;
    }
    EXPECT_GT(nontrivial, 50);
}

TEST(ExactDecoder, MatchesBlossomOverMultipleRounds)
{
    const RotatedSurfaceCode code(5);
    const MwpmDecoder blossom(code, CheckType::Z);
    const ExactDecoder exact(code, CheckType::Z);
    Rng rng(8);
    const int rounds = 4;
    for (int iter = 0; iter < 50; ++iter) {
        std::vector<DetectionEvent> events;
        const int k = static_cast<int>(rng.next_below(6)) & ~1;
        for (int i = 0; i < k; ++i) {
            events.push_back(DetectionEvent{
                static_cast<int>(
                    rng.next_below(code.num_checks(CheckType::Z))),
                static_cast<int>(rng.next_below(rounds))});
        }
        EXPECT_EQ(blossom.decode(events, rounds).weight,
                  exact.decode(events, rounds).weight)
            << "iter=" << iter;
    }
}

TEST(TierChainConfig, ParsesSpecStrings)
{
    const TierChainConfig deep =
        TierChainConfig::parse("clique,uf,mwpm", 3);
    ASSERT_EQ(deep.tiers.size(), 3u);
    EXPECT_EQ(deep.tiers[0].kind, DecoderTier::Clique);
    EXPECT_EQ(deep.tiers[1].kind, DecoderTier::UnionFind);
    EXPECT_EQ(deep.tiers[1].escalation_threshold, 3);
    EXPECT_FALSE(deep.tiers[1].offchip);
    EXPECT_EQ(deep.tiers[2].kind, DecoderTier::Mwpm);
    EXPECT_TRUE(deep.tiers[2].offchip);

    const TierChainConfig custom =
        TierChainConfig::parse("clique,union-find:5,exact");
    ASSERT_EQ(custom.tiers.size(), 3u);
    EXPECT_EQ(custom.tiers[1].escalation_threshold, 5);
    EXPECT_EQ(custom.tiers[2].kind, DecoderTier::Exact);

    // Empty spec falls back to the paper's architecture.
    const TierChainConfig fallback = TierChainConfig::parse("");
    ASSERT_EQ(fallback.tiers.size(), 2u);
    EXPECT_EQ(fallback.tiers[0].kind, DecoderTier::Clique);
    EXPECT_EQ(fallback.tiers[1].kind, DecoderTier::Mwpm);

    EXPECT_EQ(TierChainConfig::deep(2).describe(),
              "clique>union-find(2)>mwpm");
}

TEST(TierChainConfig, TryParseReportsMalformedSpecsWithoutExiting)
{
    // Library code must never kill the process: malformed specs come
    // back as a status + diagnostic (the CLI exit lives in
    // tiers_from_flags, common/flags.cpp).
    TierChainConfig config = TierChainConfig::deep();
    const TierChainConfig before = config;
    std::string error;

    EXPECT_FALSE(TierChainConfig::try_parse("clique,bogus,mwpm", 2,
                                            &config, &error));
    EXPECT_NE(error.find("bogus"), std::string::npos);
    // A failed parse leaves the output untouched.
    EXPECT_EQ(config.describe(), before.describe());

    error.clear();
    EXPECT_FALSE(
        TierChainConfig::try_parse("clique,uf:x,mwpm", 2, &config, &error));
    EXPECT_NE(error.find("threshold"), std::string::npos);

    EXPECT_FALSE(TierChainConfig::try_parse("uf:", 2, &config, &error));
    // Thresholds are ints: out-of-range values are rejected, not
    // narrowed (uf:4294967298 must not become uf:2).
    EXPECT_FALSE(TierChainConfig::try_parse("clique,uf:4294967298,mwpm",
                                            2, &config, &error));
    EXPECT_NE(error.find("threshold"), std::string::npos);
    EXPECT_FALSE(
        TierChainConfig::try_parse("uf:-2147483649", 2, &config, &error));
    EXPECT_EQ(config.describe(), before.describe());
    EXPECT_FALSE(
        TierChainConfig::try_parse("clique,mwpm:3junk", 2, &config,
                                   &error));
    // A null error sink is allowed.
    EXPECT_FALSE(
        TierChainConfig::try_parse("nope", 2, &config, nullptr));

    EXPECT_TRUE(
        TierChainConfig::try_parse("clique,uf:3,mwpm", 2, &config, &error));
    EXPECT_EQ(config.describe(), "clique>union-find(3)>mwpm");
}

TEST(TierChainConfig, ParseThrowsOnMalformedSpec)
{
    EXPECT_THROW(TierChainConfig::parse("clique,bogus"),
                 std::invalid_argument);
    EXPECT_THROW(TierChainConfig::parse("uf:notanumber"),
                 std::invalid_argument);
    EXPECT_NO_THROW(TierChainConfig::parse("clique,uf:3,exact"));
}

TEST(TierChain, ResumeAtStopTierMatchesUninterruptedWalk)
{
    // The off-chip service finishes every escalation by resuming the
    // stopped walk at its tier_index. Resumed in the stopped walk's
    // Result, it must reproduce the uninterrupted walk in every field,
    // the max effort of the skipped on-chip tiers included: from tier
    // 1 on the legacy chain, from tier 2 behind a UF mid-tier that
    // escalates on any growth.
    const RotatedSurfaceCode code(7);
    TierChain::Options stop;
    stop.stop_before_offchip = true;
    const struct
    {
        const char *spec;
        int resume_tier;
    } kChains[] = {{"clique,mwpm", 1}, {"clique,uf:0,mwpm", 2}};
    for (const auto &entry : kChains) {
        const TierChain chain(code, CheckType::Z,
                              TierChainConfig::parse(entry.spec));
        Rng rng(19);
        ErrorFrame frame(code, CheckType::X);
        int resumed = 0;
        int with_effort = 0;
        for (int i = 0; i < 400; ++i) {
            const PackedSyndrome syndrome =
                random_syndrome(code, 0.03, rng, frame);
            TierChain::Result walk;
            chain.decode_syndrome(syndrome, stop, walk);
            if (walk.resolved || !walk.offchip) {
                continue;  // not an escalation
            }
            ASSERT_EQ(walk.tier_index, entry.resume_tier) << entry.spec;
            chain.decode_syndrome(syndrome, TierChain::Options(), walk,
                                  static_cast<size_t>(walk.tier_index));
            const TierChain::Result whole = chain.decode_syndrome(syndrome);
            EXPECT_EQ(walk.tier_index, whole.tier_index) << entry.spec;
            EXPECT_EQ(walk.tier, whole.tier) << entry.spec;
            EXPECT_EQ(walk.offchip, whole.offchip) << entry.spec;
            EXPECT_EQ(walk.resolved, whole.resolved) << entry.spec;
            EXPECT_EQ(walk.effort, whole.effort) << entry.spec;
            EXPECT_EQ(walk.decode.correction, whole.decode.correction)
                << entry.spec << " item " << i;
            EXPECT_EQ(walk.decode.weight, whole.decode.weight);
            EXPECT_EQ(walk.decode.defects, whole.decode.defects);
            EXPECT_EQ(walk.decode.effort, whole.decode.effort);
            EXPECT_EQ(walk.decode.resolved, whole.decode.resolved);
            ++resumed;
            with_effort += whole.effort > 0 ? 1 : 0;
        }
        EXPECT_GT(resumed, 20) << entry.spec;
        if (entry.resume_tier == 2) {
            // The UF growth count is carried across the stop.
            EXPECT_EQ(with_effort, resumed) << entry.spec;
        }
    }
}

TEST(TierChain, EmptyConfigFallsBackToLegacyChain)
{
    // A default-constructed TierChainConfig (empty tiers) must not be
    // UB: the chain normalizes it to the paper's architecture.
    const RotatedSurfaceCode code(5);
    const TierChain chain(code, CheckType::Z, TierChainConfig{});
    ASSERT_EQ(chain.size(), 2u);
    EXPECT_EQ(chain.spec(0).kind, DecoderTier::Clique);
    EXPECT_EQ(chain.spec(1).kind, DecoderTier::Mwpm);
    const PackedSyndrome zeros(code.num_checks(CheckType::Z));
    EXPECT_TRUE(chain.decode_syndrome(zeros).resolved);
}

TEST(TierChain, DeclinedFinalTierIsNotOracleFixedUnderRealPolicy)
{
    // A degenerate resolver-less chain (Clique alone) under the
    // real-decode policy must leave COMPLEX errors in place rather
    // than silently applying the oracle reset.
    const RotatedSurfaceCode code(5);
    SystemConfig config;
    config.offchip = OffchipPolicy::Mwpm;
    config.tiers = TierChainConfig{{TierSpec::clique()}};
    BtwcSystem system(code, NoiseParams::uniform(5e-3), config, 3);
    uint64_t complex_with_weight = 0;
    for (int i = 0; i < 3000; ++i) {
        const CycleReport report = system.step();
        if (report.verdict == CliqueVerdict::Complex) {
            complex_with_weight +=
                (system.frame(CheckType::X).weight() > 0 ||
                 system.frame(CheckType::Z).weight() > 0)
                    ? 1
                    : 0;
        }
    }
    // Every complex cycle leaves its (uncorrected) errors behind.
    EXPECT_GT(complex_with_weight, 0u);
}

TEST(TierChain, StopsBeforeOffchipTiersOnRequest)
{
    const RotatedSurfaceCode code(7);
    const TierChain chain(code, CheckType::Z, TierChainConfig::legacy());
    TierChain::Options options;
    options.stop_before_offchip = true;
    // An isolated interior defect escalates past Clique; with the stop
    // option the MWPM tier is named but not run.
    for (int c = 0; c < code.num_checks(CheckType::Z); ++c) {
        if (!code.boundary_data(CheckType::Z, c).empty()) {
            continue;
        }
        const auto result = chain.decode_syndrome(
            single_defect(code, CheckType::Z, c), options);
        EXPECT_EQ(result.tier, DecoderTier::Mwpm);
        EXPECT_TRUE(result.offchip);
        EXPECT_FALSE(result.resolved);
    }
}

TEST(TierChain, DeepChainClassificationsMatchLegacyAtDefaultConfig)
{
    // The tier-0 (Clique) classification contract: deeper chains only
    // change who *pays* for COMPLEX signatures, never how cycles are
    // classified. Same seed, default (Signature-mode) config.
    LifetimeConfig legacy;
    legacy.distance = 9;
    legacy.p = 5e-3;
    legacy.cycles = 20000;
    LifetimeConfig deep = legacy;
    deep.tiers = TierChainConfig::deep();

    const LifetimeStats a = run_lifetime(legacy);
    const LifetimeStats b = run_lifetime(deep);
    EXPECT_EQ(a.all_zero_cycles, b.all_zero_cycles);
    EXPECT_EQ(a.trivial_cycles, b.trivial_cycles);
    EXPECT_EQ(a.complex_cycles, b.complex_cycles);
    EXPECT_EQ(a.all_zero_halves, b.all_zero_halves);
    EXPECT_EQ(a.trivial_halves, b.trivial_halves);
    EXPECT_EQ(a.complex_halves, b.complex_halves);
    EXPECT_EQ(a.clique_corrections, b.clique_corrections);

    // The legacy chain ships every escalation off-chip ...
    EXPECT_EQ(a.offchip_halves, a.complex_halves);
    EXPECT_DOUBLE_EQ(a.midtier_absorption(), 0.0);
    // ... while the UF mid-tier absorbs a solid majority on-chip.
    EXPECT_LT(b.offchip_halves, a.offchip_halves / 2);
    EXPECT_GT(b.tier_halves[static_cast<int>(DecoderTier::UnionFind)], 0u);
    EXPECT_GT(b.midtier_absorption(), 0.5);
}

TEST(TierChain, ThreeTierPipelineRunsEndToEnd)
{
    // Closed-loop Pipeline mode with real off-chip decodes through the
    // deep chain: classification counters stay consistent.
    LifetimeConfig config;
    config.distance = 7;
    config.p = 5e-3;
    config.cycles = 5000;
    config.mode = LifetimeMode::Pipeline;
    config.offchip = OffchipPolicy::Mwpm;
    config.tiers = TierChainConfig::deep();
    const LifetimeStats stats = run_lifetime(config);
    EXPECT_EQ(stats.all_zero_cycles + stats.trivial_cycles +
                  stats.complex_cycles,
              stats.cycles);
    EXPECT_EQ(stats.total_halves(), 2 * stats.cycles);
    EXPECT_LE(stats.offchip_halves, stats.complex_halves);
    EXPECT_GT(stats.midtier_absorption(), 0.0);
    EXPECT_LE(stats.offchip_cycles, stats.complex_cycles);
}

TEST(TierChain, UnionFindAndMwpmLogicalErrorRatesAgree)
{
    // The cross-check invariant promised in union_find.hpp: the two
    // backends' logical error rates agree within a small factor.
    MemoryConfig config;
    config.distance = 5;
    config.p = 1e-2;
    config.max_trials = 8000;
    config.target_failures = 1000000;  // fixed-trial comparison
    const MemoryResult mwpm =
        run_memory_experiment(config, DecoderArm::MwpmOnly);
    const MemoryResult uf =
        run_memory_experiment(config, DecoderArm::UnionFindOnly);
    ASSERT_GT(mwpm.failures, 10u);
    ASSERT_GT(uf.failures, 10u);
    EXPECT_LT(uf.ler(), mwpm.ler() * 4.0);
    EXPECT_GT(uf.ler(), mwpm.ler() / 4.0);
}

} // namespace
} // namespace btwc
