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
 * One trial: returns true on logical failure. `offchip_rounds` is
 * incremented for every round the Clique arm flags COMPLEX;
 * `unclear_syndromes` for a decode that leaves the perfect-round
 * syndrome uncleared (an invariant violation, see
 * MemoryResult::unclear_syndromes).
 */
bool
run_trial(const RotatedSurfaceCode &code, const MemoryConfig &config,
          DecoderArm arm, const MwpmDecoder &mwpm,
          const UnionFindDecoder &uf, const CliqueDecoder &clique,
          Rng &rng, uint64_t &offchip_rounds, uint64_t &unclear_syndromes)
{
    const CheckType detector = detector_of_error(config.error_type);
    const int rounds = config.rounds > 0 ? config.rounds
                                         : config.distance;
    const int num_checks = code.num_checks(detector);

    ErrorFrame frame(code, config.error_type);
    MeasurementFilter filter(num_checks, config.filter_rounds);

    std::vector<std::vector<uint8_t>> raw(
        static_cast<size_t>(rounds) + 1);
    for (int t = 0; t < rounds; ++t) {
        frame.inject(config.p, rng);
        frame.measure(config.meas_probability(), rng, raw[t]);
        if (arm == DecoderArm::CliqueMwpm) {
            const std::vector<uint8_t> &filtered = filter.push(raw[t]);
            const CliqueOutcome outcome = clique.decode(filtered);
            if (outcome.verdict == CliqueVerdict::Trivial) {
                frame.apply(outcome.corrections);
            } else if (outcome.verdict == CliqueVerdict::Complex) {
                ++offchip_rounds;
            }
        }
    }
    // Final perfect round closes every chain so the residual after
    // correction is guaranteed syndrome-free.
    frame.measure_perfect(raw[rounds]);

    std::vector<DetectionEvent> events;
    for (int t = 0; t <= rounds; ++t) {
        for (int c = 0; c < num_checks; ++c) {
            const uint8_t prev = t == 0 ? 0 : raw[t - 1][c];
            if ((raw[t][c] ^ prev) & 1) {
                events.push_back(DetectionEvent{c, t});
            }
        }
    }

    MwpmDecoder::Result fix;
    if (arm == DecoderArm::UnionFindOnly) {
        fix = uf.decode(events, rounds + 1);
    } else {
        fix = mwpm.decode(events, rounds + 1);
    }
    frame.apply_mask(fix.correction);
    if (audit_deep()) {
        frame.audit();
    }

    // Counted runtime check (not an assert): Release builds must see
    // a violation of the syndrome-clear invariant too.
    if (!frame.syndrome_clear()) {
        ++unclear_syndromes;
    }
    return frame.logical_flipped();
}

/**
 * One shard: the historical single-threaded trial loop. `config`
 * carries the shard's trial budget, failure target and seed.
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
    while (result.trials < config.max_trials &&
           result.failures < config.target_failures) {
        ++result.trials;
        result.total_rounds += static_cast<uint64_t>(rounds);
        if (run_trial(code, config, arm, mwpm, uf, clique, rng,
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
