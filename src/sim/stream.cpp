#include "sim/stream.hpp"

#include "common/check.hpp"
#include "common/rng.hpp"
#include "sim/engine.hpp"
#include "surface/frame.hpp"
#include "surface/packed.hpp"

namespace btwc {

std::vector<TierSpec>
stream_screen_tiers(const TierChainConfig &tiers)
{
    std::vector<TierSpec> screen;
    const size_t n = tiers.tiers.size();
    for (size_t i = 0; i < n; ++i) {
        const TierSpec &tier = tiers.tiers[i];
        if (tier.kind == DecoderTier::Stream) {
            BTWC_CHECK_MSG(i + 1 == n,
                           "the stream tier must be the final tier of "
                           "a kind=stream chain");
            continue;
        }
        BTWC_CHECK_MSG(tier.kind == DecoderTier::UnionFind,
                       "a kind=stream chain admits only union-find "
                       "screening tiers before the final stream tier");
        screen.push_back(tier);
    }
    BTWC_CHECK_MSG(n == 0 || tiers.tiers.back().kind == DecoderTier::Stream,
                   "a non-empty kind=stream chain must end with the "
                   "stream tier");
    return screen;
}

namespace {

/** One shard: a single independent stream (cf. run_memory_shard). */
StreamStats
run_stream_shard(const StreamConfig &config)
{
    const RotatedSurfaceCode code(config.distance);
    const CheckType detector = detector_of_error(config.error_type);

    StreamWindowConfig window_config;
    window_config.window = config.window;
    window_config.overlap = config.overlap;
    window_config.screen = stream_screen_tiers(config.tiers);
    StreamWindowDecoder decoder(code, detector, window_config);

    ErrorFrame frame(code, config.error_type);
    Rng rng(config.seed);
    PackedSyndrome raw(code.num_checks(detector));

    for (uint64_t t = 0; t < config.rounds; ++t) {
        frame.inject(config.p, rng);
        frame.measure_packed(config.meas_probability(), rng, raw);
        decoder.push_round(raw);
        if (audit_deep()) {
            frame.audit();
        }
    }
    // One noiseless closing round: its detection events close every
    // open defect chain, so the flushed correction clears the final
    // syndrome (the memory-experiment template, sim/memory.cpp).
    decoder.push_round(frame.syndrome());
    decoder.flush();
    frame.apply_mask(decoder.committed_correction());
    if (audit_deep()) {
        frame.audit();
    }

    StreamStats stats;
    stats.window = decoder.stats();
    stats.streams = 1;
    // Counted runtime checks, not asserts (cf. MemoryResult).
    if (!frame.syndrome_clear()) {
        ++stats.unclear_syndromes;
    }
    if (frame.logical_flipped()) {
        ++stats.logical_failures;
    }
    return stats;
}

} // namespace

StreamStats
run_stream(const StreamConfig &config)
{
    // Validate the chain shape up front (before any shard thread
    // starts) so a malformed spec fails with one clean diagnostic.
    (void)stream_screen_tiers(config.tiers);
    return run_sharded<StreamStats>(
        config.rounds, config.threads, config.seed,
        [&config](const Shard &shard) {
            StreamConfig shard_config = config;
            shard_config.rounds = shard.cycles;
            shard_config.seed = shard.seed;
            shard_config.threads = 1;
            return run_stream_shard(shard_config);
        });
}

} // namespace btwc
