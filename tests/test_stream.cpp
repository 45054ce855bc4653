/**
 * @file
 * Tests for the sliding-window streaming decode engine
 * (decoders/stream_window.hpp, sim/stream.hpp) and its api surface:
 * window<->batch equivalence properties over a d x noise x geometry
 * grid, hand-crafted seam / carry-forward pinning cases, a >= 10k
 * round bounded-memory fuzz with conservation and monotone-commit
 * invariants, the kind=stream Report schema golden, and the grammar /
 * tier-placement diagnostics.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "api/registry.hpp"
#include "api/report.hpp"
#include "api/run.hpp"
#include "api/scenario.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"
#include "decoders/stream_window.hpp"
#include "decoders/tier_chain.hpp"
#include "matching/mwpm.hpp"
#include "sim/stream.hpp"
#include "surface/frame.hpp"
#include "surface/lattice.hpp"
#include "surface/packed.hpp"

namespace btwc {
namespace {

// ------------------------------------------------- shared machinery

/**
 * Feed `noisy_rounds` noisy measurement rounds plus one perfect
 * closing round through both the streaming decoder and a single
 * full-window batch MWPM decode, then compare outcomes on two copies
 * of the final error state. Returns via the out-params so callers can
 * add grid-specific assertions.
 */
struct StreamVsBatch
{
    bool stream_clear = false;
    bool batch_clear = false;
    bool stream_flip = false;
    bool batch_flip = false;
    StreamWindowStats stats;
};

StreamVsBatch
run_stream_vs_batch(int distance, CheckType error_type, int window,
                    int overlap, double p, int noisy_rounds,
                    uint64_t seed)
{
    const RotatedSurfaceCode code(distance);
    const CheckType detector = detector_of_error(error_type);
    StreamWindowConfig config;
    config.window = window;
    config.overlap = overlap;
    StreamWindowDecoder stream(code, detector, config);
    const MwpmDecoder mwpm(code, detector);

    ErrorFrame frame(code, error_type);
    Rng rng(seed);
    const int nc = code.num_checks(detector);
    PackedSyndrome raw(nc);
    PackedSyndrome prev(nc);
    PackedSyndrome diff(nc);
    std::vector<uint8_t> perfect;
    std::vector<DetectionEvent> batch_events;

    const int total_rounds = noisy_rounds + 1;
    for (int t = 0; t < total_rounds; ++t) {
        if (t < noisy_rounds) {
            frame.inject(p, rng);
            frame.measure_packed(p, rng, raw);
        } else {
            frame.measure_perfect(perfect);
            raw.from_bytes(perfect);
        }
        stream.push_round(raw);
        diff = raw;
        diff ^= prev;
        diff.for_each_set(
            [&batch_events, t](int c) { batch_events.push_back({c, t}); });
        prev = raw;
    }
    stream.flush();
    const Decoder::Result batch = mwpm.decode(batch_events, total_rounds);

    // Identical pre-correction error state for both arms.
    ErrorFrame stream_frame = frame;
    stream_frame.apply_packed(stream.committed_correction());
    ErrorFrame batch_frame = frame;
    batch_frame.apply_mask(batch.correction);

    StreamVsBatch out;
    out.stream_clear = stream_frame.syndrome_clear();
    out.batch_clear = batch_frame.syndrome_clear();
    out.stream_flip = stream_frame.logical_flipped();
    out.batch_flip = batch_frame.logical_flipped();
    out.stats = stream.stats();
    return out;
}

// -------------------------------------- window<->batch equivalence

TEST(StreamEquivalence, CommittedCorrectionAlwaysClearsTheSyndrome)
{
    // The structural half of the equivalence property, which holds
    // unconditionally: the flushed commit set is a perfect matching
    // of every stream event, so the committed correction clears the
    // syndrome exactly like the one-shot batch decode does — across
    // distances, both detector halves, window/overlap geometries and
    // seeds. Deep audits stay on so every window decode re-proves the
    // conservation ledger and the pair-path XOR contract in-loop.
    const ScopedAuditLevel deep(AuditLevel::Deep);
    const struct
    {
        int window;
        int overlap;
    } geometries[] = {{4, 1}, {8, 2}, {6, 3}, {5, 0}};
    for (const int distance : {3, 5, 7, 9}) {
        for (const CheckType error_type : {CheckType::X, CheckType::Z}) {
            for (const auto &geometry : geometries) {
                for (const uint64_t seed : {1u, 2u, 3u}) {
                    SCOPED_TRACE("d=" + std::to_string(distance) +
                                 " et=" +
                                 (error_type == CheckType::X ? "x" : "z") +
                                 " w=" + std::to_string(geometry.window) +
                                 " v=" + std::to_string(geometry.overlap) +
                                 " seed=" + std::to_string(seed));
                    const StreamVsBatch result = run_stream_vs_batch(
                        distance, error_type, geometry.window,
                        geometry.overlap, /*p=*/5e-3,
                        /*noisy_rounds=*/40, seed);
                    EXPECT_TRUE(result.stream_clear);
                    EXPECT_TRUE(result.batch_clear);
                    EXPECT_EQ(result.stats.defects_in,
                              result.stats.defects_committed);
                }
            }
        }
    }
}

TEST(StreamEquivalence, LogicalOutcomeMatchesBatchWithoutSeamChains)
{
    // The exactness half: whenever no defect chain had to be carried
    // across a commit seam, the streamed corrections land in the same
    // homology class as the one-shot batch decode — identical logical
    // outcome. Seam-crossing windows may legitimately commit a
    // different (equal-weight) pairing, so those runs are only counted
    // and the unconditional syndrome-clear property above still pins
    // them.
    const ScopedAuditLevel deep(AuditLevel::Deep);
    int seamless = 0;
    int carried = 0;
    for (const int distance : {3, 5, 7, 9}) {
        for (const CheckType error_type : {CheckType::X, CheckType::Z}) {
            for (const uint64_t seed : {11u, 12u, 13u, 14u, 15u}) {
                SCOPED_TRACE("d=" + std::to_string(distance) + " et=" +
                             (error_type == CheckType::X ? "x" : "z") +
                             " seed=" + std::to_string(seed));
                const StreamVsBatch result = run_stream_vs_batch(
                    distance, error_type, /*window=*/8, /*overlap=*/2,
                    /*p=*/2e-3, /*noisy_rounds=*/60, seed);
                if (result.stats.defects_carried == 0) {
                    ++seamless;
                    EXPECT_EQ(result.stream_flip, result.batch_flip);
                } else {
                    ++carried;
                }
            }
        }
    }
    // The grid must actually exercise the property (and at this p the
    // majority of runs is seam-free by construction).
    EXPECT_GE(seamless, 10);
    // ... while some runs should exercise the carry path too, or the
    // grid is too easy to mean anything.
    EXPECT_GE(carried, 1);
}

TEST(StreamEquivalence, IsolatedDataErrorCommitsTheExactBatchMask)
{
    // Deterministic no-seam case: one data error injected mid-stream,
    // perfect measurements. Both decoders must produce the identical
    // correction mask (the flipped qubit itself), not merely the same
    // homology class.
    const ScopedAuditLevel deep(AuditLevel::Deep);
    const RotatedSurfaceCode code(5);
    const CheckType error_type = CheckType::X;
    const CheckType detector = detector_of_error(error_type);
    StreamWindowConfig config;
    config.window = 8;
    config.overlap = 2;
    StreamWindowDecoder stream(code, detector, config);
    const MwpmDecoder mwpm(code, detector);

    ErrorFrame frame(code, error_type);
    const int nc = code.num_checks(detector);
    PackedSyndrome raw(nc);
    PackedSyndrome prev(nc);
    PackedSyndrome diff(nc);
    std::vector<uint8_t> bytes;
    std::vector<DetectionEvent> batch_events;
    const int rounds = 12;
    const int flipped = code.num_data() / 2;  // center data qubit
    for (int t = 0; t < rounds; ++t) {
        if (t == 2) {
            frame.flip(flipped);
        }
        frame.measure_perfect(bytes);
        raw.from_bytes(bytes);
        stream.push_round(raw);
        diff = raw;
        diff ^= prev;
        diff.for_each_set(
            [&batch_events, t](int c) { batch_events.push_back({c, t}); });
        prev = raw;
    }
    stream.flush();
    EXPECT_EQ(stream.stats().defects_carried, 0u);
    const Decoder::Result batch = mwpm.decode(batch_events, rounds);
    const PackedBits &committed = stream.committed_correction();
    EXPECT_EQ(committed, batch.correction);
    EXPECT_TRUE(committed.test(flipped));
}

TEST(StreamEquivalence, MeasurementFlipAtTheSeamCarriesForward)
{
    // Deterministic seam case: a lone measurement flip in the last
    // commit-region round of the first window pairs time-like with
    // its echo in the overlap region, so the commit-region endpoint
    // must carry forward (origin preserved) and resolve in the next
    // window with an empty data correction.
    const ScopedAuditLevel deep(AuditLevel::Deep);
    const RotatedSurfaceCode code(5);
    const CheckType detector = CheckType::Z;
    StreamWindowConfig config;
    config.window = 4;
    config.overlap = 1;
    StreamWindowDecoder stream(code, detector, config);

    const int nc = code.num_checks(detector);
    PackedSyndrome raw(nc);
    for (int t = 0; t < 8; ++t) {
        raw.clear();
        if (t == 2) {
            raw.set(0);  // measurement flip: events at rounds 2 and 3
        }
        stream.push_round(raw);
    }
    stream.flush();
    const StreamWindowStats &stats = stream.stats();
    EXPECT_EQ(stats.defects_in, 2u);
    EXPECT_EQ(stats.defects_committed, 2u);
    EXPECT_EQ(stats.defects_carried, 1u);  // the round-2 endpoint
    EXPECT_EQ(stats.max_carried, 1u);
    EXPECT_TRUE(stream.committed_correction().none());
    // The carried endpoint clamps to relative round 0 where its echo
    // re-enters, so the time-like pair collapses to a zero-weight
    // match (spatial paths are round-independent; time offsets carry
    // no correction).
    EXPECT_EQ(stats.committed_weight, 0);
}

// ----------------------------------------- bounded-memory fuzz soak

TEST(StreamFuzz, TenThousandRoundsBoundedMemoryAndConserved)
{
    // >= 10k rounds at mixed error rates through a screened stream:
    // after a deliberately noisy warmup, the pooled footprint must
    // never grow again (no per-round allocation in steady state), the
    // commit frontier must be monotone, and the conservation ledger
    // must balance at every probe and collapse to in == committed at
    // flush. Runs at AuditLevel::Basic with explicit structural
    // audit() probes so the soak stays fast; the deep in-loop audits
    // are exercised by the equivalence grid above.
    const ScopedAuditLevel basic(AuditLevel::Basic);
    const RotatedSurfaceCode code(5);
    const CheckType error_type = CheckType::X;
    const CheckType detector = detector_of_error(error_type);
    StreamWindowConfig config;
    config.window = 8;
    config.overlap = 2;
    config.screen = {TierSpec::union_find(2)};
    StreamWindowDecoder stream(code, detector, config);

    ErrorFrame frame(code, error_type);
    Rng rng(2024);
    PackedSyndrome raw(code.num_checks(detector));

    const int warmup_rounds = 3000;
    const int total_rounds = 12000;
    const double warmup_p = 0.03;  // upper-bounds every later rate
    const double mixed_p[] = {1e-3, 2e-2, 5e-3, 1e-2};
    size_t steady_bytes = 0;
    uint64_t last_committed = 0;
    for (int t = 0; t < total_rounds; ++t) {
        const double p =
            t < warmup_rounds
                ? warmup_p
                : mixed_p[static_cast<size_t>((t / 1000) % 4)];
        frame.inject(p, rng);
        frame.measure_packed(p, rng, raw);
        stream.push_round(raw);

        EXPECT_GE(stream.stats().committed_rounds, last_committed);
        last_committed = stream.stats().committed_rounds;
        if (t == warmup_rounds) {
            steady_bytes = stream.steady_state_bytes();
        }
        if (t > warmup_rounds && (t & 255) == 0) {
            stream.audit();  // structural conservation probe
            EXPECT_EQ(stream.steady_state_bytes(), steady_bytes)
                << "pooled stream state grew after warmup at round "
                << t;
        }
    }
    std::vector<uint8_t> perfect;
    frame.measure_perfect(perfect);
    raw.from_bytes(perfect);
    stream.push_round(raw);
    stream.flush();
    stream.audit();
    EXPECT_EQ(stream.steady_state_bytes(), steady_bytes);

    const StreamWindowStats &stats = stream.stats();
    EXPECT_EQ(stats.rounds, static_cast<uint64_t>(total_rounds) + 1);
    EXPECT_EQ(stats.defects_in, stats.defects_committed);
    EXPECT_EQ(stats.committed_rounds, stats.rounds);
    EXPECT_EQ(stream.pending_rounds(), 0);
    EXPECT_EQ(stream.pending_defects(), 0u);
    EXPECT_GT(stats.defects_in, 1000u);  // the soak actually decoded

    frame.apply_packed(stream.committed_correction());
    EXPECT_TRUE(frame.syndrome_clear());
}

TEST(StreamFuzz, ResetRestartsTheStreamKeepingCapacity)
{
    const RotatedSurfaceCode code(3);
    const CheckType detector = CheckType::X;
    StreamWindowConfig config;
    config.window = 4;
    config.overlap = 1;
    StreamWindowDecoder stream(code, detector, config);
    ErrorFrame frame(code, CheckType::Z);
    Rng rng(7);
    PackedSyndrome raw(code.num_checks(detector));
    for (int t = 0; t < 100; ++t) {
        frame.inject(0.02, rng);
        frame.measure_packed(0.02, rng, raw);
        stream.push_round(raw);
    }
    stream.flush();
    const size_t pooled = stream.steady_state_bytes();
    stream.reset();
    stream.audit();
    EXPECT_EQ(stream.stats().rounds, 0u);
    EXPECT_EQ(stream.stats().defects_in, 0u);
    EXPECT_EQ(stream.pending_rounds(), 0);
    EXPECT_TRUE(stream.committed_correction().none());
    EXPECT_EQ(stream.steady_state_bytes(), pooled);  // capacity kept
}

// -------------------------------------------------- harness / report

TEST(RunStream, ShardedRunIsDeterministicAndMerges)
{
    StreamConfig config;
    config.distance = 5;
    config.p = 5e-3;
    config.window = 8;
    config.overlap = 2;
    config.rounds = 800;
    config.seed = 9;
    const StreamStats a = run_stream(config);
    const StreamStats b = run_stream(config);
    EXPECT_EQ(a.window.rounds, b.window.rounds);
    EXPECT_EQ(a.window.defects_in, b.window.defects_in);
    EXPECT_EQ(a.window.committed_weight, b.window.committed_weight);
    EXPECT_EQ(a.unclear_syndromes, 0u);
    EXPECT_EQ(a.streams, 1u);
    // Rounds split exactly across shards; every shard closes its own
    // stream (one extra perfect round each).
    config.threads = 3;
    const StreamStats sharded = run_stream(config);
    EXPECT_EQ(sharded.streams, 3u);
    EXPECT_EQ(sharded.window.rounds, 800u + 3u);
    EXPECT_EQ(sharded.window.defects_in,
              sharded.window.defects_committed);
    EXPECT_EQ(sharded.unclear_syndromes, 0u);
}

TEST(RunStream, ScreeningChainMatchesRegistryQuickEntry)
{
    // The registry's stream-quick entry resolves, runs, and its
    // screening tier actually absorbs windows.
    ScenarioSpec spec;
    std::string error;
    ASSERT_TRUE(find_scenario("stream-quick", &spec, &error)) << error;
    EXPECT_EQ(spec.kind, ScenarioKind::Stream);
    spec.engine.cycles = 600;
    const StreamStats stats = run_stream(spec.to_stream_config());
    EXPECT_GT(stats.window.screened_windows, 0u);
    EXPECT_EQ(stats.window.defects_in, stats.window.defects_committed);
}

TEST(ReportSchema, StreamKeysAreStable)
{
    const Report report = run_scenario(ScenarioSpec::parse(
        "kind=stream,d=3,p=5e-3,window=4,overlap=1,cycles=200"));
    std::vector<std::string> keys;
    for (const auto &pair : report.flat()) {
        keys.push_back(pair.first);
    }
    const std::vector<std::string> expected = {
        "scenario.kind", "scenario.spec", "scenario.tiers",
        "config.distance", "config.p", "config.p_meas", "config.window",
        "config.overlap", "config.rounds", "config.error_type",
        "config.threads", "config.seed",
        "metrics.rounds", "metrics.streams", "metrics.windows",
        "metrics.all_zero_windows", "metrics.screened_windows",
        "metrics.matched_windows", "metrics.committed_rounds",
        "metrics.defects_in", "metrics.defects_committed",
        "metrics.defects_carried", "metrics.max_carried",
        "metrics.committed_weight",
        "metrics.commit_lag.total", "metrics.commit_lag.mean",
        "metrics.commit_lag.p50", "metrics.commit_lag.p90",
        "metrics.commit_lag.p99", "metrics.commit_lag.p999",
        "metrics.commit_lag.max",
        "metrics.window_defects.total", "metrics.window_defects.mean",
        "metrics.window_defects.p50", "metrics.window_defects.p90",
        "metrics.window_defects.p99", "metrics.window_defects.p999",
        "metrics.window_defects.max",
        "metrics.unclear_syndromes", "metrics.logical_failures",
        "walltime.walltime_ms", "walltime.decodes_per_sec",
        "walltime.rounds_per_sec",
    };
    EXPECT_EQ(keys, expected);
}

// ------------------------------------------------ grammar round-trip

TEST(StreamGrammar, RoundTripsThroughCanonicalString)
{
    const char *specs[] = {
        "kind=stream,d=7,p=0.002,window=10,overlap=3,cycles=123",
        "kind=stream,d=5,window=6,tiers=uf:2,stream,cycles=50",
        "stream,d=9,overlap=4,window=12,seed=77",
    };
    for (const char *text : specs) {
        SCOPED_TRACE(text);
        const ScenarioSpec spec = ScenarioSpec::parse(text);
        EXPECT_EQ(spec.kind, ScenarioKind::Stream);
        EXPECT_EQ(ScenarioSpec::parse(spec.to_string()), spec);
    }
    // window/overlap appear in the canonical string when non-default.
    const ScenarioSpec spec =
        ScenarioSpec::parse("kind=stream,window=12,overlap=4");
    EXPECT_NE(spec.to_string().find("window=12"), std::string::npos);
    EXPECT_NE(spec.to_string().find("overlap=4"), std::string::npos);
}

TEST(StreamGrammar, StreamTokenIsAKindOutsideTiersAndATierInside)
{
    // Bare "stream" selects the kind ...
    EXPECT_EQ(ScenarioSpec::parse("stream,d=5").kind,
              ScenarioKind::Stream);
    // ... while immediately after tiers= it continues the tier list.
    const ScenarioSpec spec =
        ScenarioSpec::parse("kind=stream,tiers=uf:3,stream");
    ASSERT_EQ(spec.tiers.tiers.size(), 2u);
    EXPECT_EQ(spec.tiers.tiers[0].kind, DecoderTier::UnionFind);
    EXPECT_EQ(spec.tiers.tiers[0].escalation_threshold, 3);
    EXPECT_EQ(spec.tiers.tiers[1].kind, DecoderTier::Stream);
    EXPECT_TRUE(spec.tiers.contains_stream());
}

TEST(StreamGrammar, RejectsDegenerateWindowGeometry)
{
    ScenarioSpec spec;
    std::string error;
    // window must be >= 1.
    EXPECT_FALSE(ScenarioSpec::try_parse("kind=stream,window=0", &spec,
                                         &error));
    EXPECT_NE(error.find("window"), std::string::npos);
    // overlap must leave a non-empty commit region.
    EXPECT_FALSE(ScenarioSpec::try_parse(
        "kind=stream,window=8,overlap=8", &spec, &error));
    EXPECT_NE(error.find("commit region"), std::string::npos);
    EXPECT_FALSE(ScenarioSpec::try_parse(
        "kind=stream,window=4,overlap=9", &spec, &error));
    // negative overlap is rejected at the key level.
    EXPECT_FALSE(ScenarioSpec::try_parse("kind=stream,overlap=-1",
                                         &spec, &error));
}

TEST(StreamGrammar, RejectsMisplacedStreamTiers)
{
    ScenarioSpec spec;
    std::string error;
    // stream tier outside kind=stream: diagnostic, not a crash.
    EXPECT_FALSE(ScenarioSpec::try_parse(
        "kind=lifetime,tiers=uf:2,stream", &spec, &error));
    EXPECT_NE(error.find("kind=stream"), std::string::npos);
    // stream tier must be last.
    EXPECT_FALSE(ScenarioSpec::try_parse(
        "kind=stream,tiers=stream,uf:2", &spec, &error));
    EXPECT_NE(error.find("final tier"), std::string::npos);
    // only union-find screens may precede it.
    EXPECT_FALSE(ScenarioSpec::try_parse(
        "kind=stream,tiers=clique,stream", &spec, &error));
    EXPECT_NE(error.find("union-find"), std::string::npos);
    // a kind=stream chain that never reaches the stream tier.
    EXPECT_FALSE(ScenarioSpec::try_parse(
        "kind=stream,tiers=clique,uf:2,mwpm", &spec, &error));
    EXPECT_NE(error.find("stream"), std::string::npos);
}

// ---------------------------------------- tier-chain diagnostics

TEST(StreamTier, TierChainRefusesStreamMembersWithADiagnostic)
{
    EXPECT_STREQ(decoder_tier_name(DecoderTier::Stream), "stream");
    TierChainConfig config = TierChainConfig::parse("uf:2,stream");
    EXPECT_TRUE(config.contains_stream());
    EXPECT_FALSE(TierChainConfig::legacy().contains_stream());
    const RotatedSurfaceCode code(3);
    try {
        const TierChain chain(code, CheckType::X, config);
        FAIL() << "TierChain must refuse stream tiers";
    } catch (const CheckFailure &failure) {
        EXPECT_NE(std::string(failure.what()).find("kind=stream"),
                  std::string::npos);
    }
}

TEST(StreamTier, ScreenTierExtractionValidatesChainShape)
{
    // Valid: uf screens before the final stream tier.
    const std::vector<TierSpec> screen =
        stream_screen_tiers(TierChainConfig::parse("uf:2,stream"));
    ASSERT_EQ(screen.size(), 1u);
    EXPECT_EQ(screen[0].kind, DecoderTier::UnionFind);
    EXPECT_EQ(screen[0].escalation_threshold, 2);
    // Empty chain = bare sliding-window MWPM.
    EXPECT_TRUE(stream_screen_tiers(TierChainConfig{}).empty());
    // Anything else throws the documented diagnostic.
    EXPECT_THROW(stream_screen_tiers(TierChainConfig::parse("mwpm,stream")),
                 CheckFailure);
    EXPECT_THROW(stream_screen_tiers(TierChainConfig::parse("uf:2")),
                 CheckFailure);
}

TEST(StreamTier, DecoderConstructorValidatesGeometry)
{
    const RotatedSurfaceCode code(3);
    StreamWindowConfig bad;
    bad.window = 4;
    bad.overlap = 4;
    EXPECT_THROW(StreamWindowDecoder(code, CheckType::X, bad),
                 CheckFailure);
    bad.window = 0;
    bad.overlap = 0;
    EXPECT_THROW(StreamWindowDecoder(code, CheckType::X, bad),
                 CheckFailure);
    StreamWindowConfig screened;
    screened.screen = {TierSpec::mwpm()};
    EXPECT_THROW(StreamWindowDecoder(code, CheckType::X, screened),
                 CheckFailure);
}

} // namespace
} // namespace btwc
