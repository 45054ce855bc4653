#include "sim/memory.hpp"

#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "core/clique.hpp"
#include "core/filter.hpp"
#include "matching/mwpm.hpp"
#include "matching/union_find.hpp"
#include "sim/engine.hpp"
#include "surface/frame.hpp"
#include "surface/noise.hpp"

namespace btwc {

const char *
decoder_arm_name(DecoderArm arm)
{
    switch (arm) {
      case DecoderArm::MwpmOnly:
        return "mwpm";
      case DecoderArm::CliqueMwpm:
        return "clique+mwpm";
      case DecoderArm::UnionFindOnly:
        return "union-find";
    }
    return "?";
}

std::pair<double, double>
MemoryResult::ler_interval() const
{
    return wilson_interval(failures, trials);
}

namespace {

/**
 * One shard's trial state. Every trial resets the frame and the filter
 * and overwrites the rest, so the frame keeps its noise walks (no
 * exp/log1p per trial) and every buffer keeps its capacity.
 */
struct TrialState
{
    ErrorFrame frame;
    PackedMeasurementFilter filter;
    /** The `rounds` noisy rounds, then the noiseless closing round. */
    std::vector<PackedSyndrome> raw;
    std::vector<DetectionEvent> events;
    /** The Clique arm's per-round mask. */
    PackedBits clique_correction;
    /** The closing decode. */
    Decoder::Result fix;
};

/**
 * One trial: returns true on logical failure. `offchip_rounds` is
 * incremented for every round the Clique arm flags COMPLEX;
 * `unclear_syndromes` for a decode that leaves the perfect-round
 * syndrome uncleared (an invariant violation, see
 * MemoryResult::unclear_syndromes).
 */
bool
run_trial(const MemoryConfig &config, DecoderArm arm,
          const MwpmDecoder &mwpm, const UnionFindDecoder &uf,
          const CliqueDecoder &clique, TrialState &s, Rng &rng,
          uint64_t &offchip_rounds, uint64_t &unclear_syndromes)
{
    const int rounds = config.rounds > 0 ? config.rounds
                                         : config.distance;
    s.frame.reset();
    s.filter.reset();
    for (int t = 0; t < rounds; ++t) {
        s.frame.inject(config.p, rng);
        s.frame.measure_packed(config.meas_probability(), rng, s.raw[t]);
        if (arm == DecoderArm::CliqueMwpm) {
            const CliqueVerdict verdict = clique.decode_packed(
                s.filter.push(s.raw[t]), s.clique_correction);
            if (verdict == CliqueVerdict::Trivial) {
                s.frame.apply_mask(s.clique_correction);
            } else if (verdict == CliqueVerdict::Complex) {
                ++offchip_rounds;
            }
        }
    }
    // Final perfect round closes every chain so the residual after
    // correction is guaranteed syndrome-free.
    s.raw[rounds] = s.frame.syndrome();

    // Detection events in (round, check) order: each round XOR the one
    // before it (all-zero before round 0), walked word by word.
    s.events.clear();
    for (int t = 0; t <= rounds; ++t) {
        const PackedSyndrome &cur = s.raw[t];
        for (int w = 0; w < cur.num_words(); ++w) {
            uint64_t bits =
                cur.word(w) ^ (t == 0 ? 0 : s.raw[t - 1].word(w));
            while (bits != 0) {
                s.events.push_back(
                    DetectionEvent{w * 64 + __builtin_ctzll(bits), t});
                bits &= bits - 1;
            }
        }
    }

    if (arm == DecoderArm::UnionFindOnly) {
        uf.decode(s.events, rounds + 1, s.fix);
    } else {
        mwpm.decode(s.events, rounds + 1, s.fix);
    }
    s.frame.apply_mask(s.fix.correction);
    if (audit_deep()) {
        s.frame.audit();
    }

    // Counted runtime check (not an assert): Release builds must see
    // a violation of the syndrome-clear invariant too.
    if (!s.frame.syndrome_clear()) {
        ++unclear_syndromes;
    }
    return s.frame.logical_flipped();
}

/**
 * One shard: the historical single-threaded trial loop, on one
 * TrialState. `config` carries the shard's trial budget, failure
 * target and seed.
 */
MemoryResult
run_memory_shard(const MemoryConfig &config, DecoderArm arm)
{
    const RotatedSurfaceCode code(config.distance);
    const CheckType detector = detector_of_error(config.error_type);
    int space_weight = 1;
    int time_weight = 1;
    if (config.weighted_matching) {
        space_weight = log_likelihood_weight(config.p);
        time_weight = log_likelihood_weight(config.meas_probability());
    }
    const MwpmDecoder mwpm(code, detector, space_weight, time_weight);
    const UnionFindDecoder uf(code, detector);
    const CliqueDecoder clique(code, detector);
    Rng rng(config.seed);

    MemoryResult result;
    const int rounds = config.rounds > 0 ? config.rounds
                                         : config.distance;
    TrialState state{
        ErrorFrame(code, config.error_type),
        PackedMeasurementFilter(code.num_checks(detector),
                                config.filter_rounds),
        std::vector<PackedSyndrome>(static_cast<size_t>(rounds) + 1),
        {}, {}, {}};
    while (result.trials < config.max_trials &&
           result.failures < config.target_failures) {
        ++result.trials;
        result.total_rounds += static_cast<uint64_t>(rounds);
        if (run_trial(config, arm, mwpm, uf, clique, state, rng,
                      result.offchip_rounds,
                      result.unclear_syndromes)) {
            ++result.failures;
        }
    }
    return result;
}

} // namespace

MemoryResult
run_memory_experiment(const MemoryConfig &config, DecoderArm arm)
{
    // Cross-shard early-stop rule (see header): per-shard failure
    // budget ceil(target / #shards), planned up front so the result
    // is deterministic for a fixed (trials, threads, seed) triple.
    const size_t num_shards =
        plan_shards(config.max_trials, resolve_threads(config.threads),
                    config.seed)
            .size();
    const uint64_t shard_target =
        num_shards <= 1
            ? config.target_failures
            : (config.target_failures + num_shards - 1) / num_shards;
    return run_sharded<MemoryResult>(
        config.max_trials, config.threads, config.seed,
        [&config, arm, shard_target](const Shard &shard) {
            MemoryConfig shard_config = config;
            shard_config.max_trials = shard.cycles;
            shard_config.target_failures = shard_target;
            shard_config.seed = shard.seed;
            shard_config.threads = 1;
            return run_memory_shard(shard_config, arm);
        });
}

} // namespace btwc
