#include "sim/lifetime.hpp"

#include <cmath>

#include "common/rng.hpp"
#include "core/clique.hpp"
#include "sim/engine.hpp"
#include "surface/frame.hpp"
#include "surface/lattice.hpp"

namespace btwc {

void
LifetimeStats::merge(const LifetimeStats &other)
{
    cycles += other.cycles;
    all_zero_cycles += other.all_zero_cycles;
    trivial_cycles += other.trivial_cycles;
    complex_cycles += other.complex_cycles;
    offchip_cycles += other.offchip_cycles;
    clique_corrections += other.clique_corrections;
    raw_weight.merge(other.raw_weight);
    all_zero_halves += other.all_zero_halves;
    trivial_halves += other.trivial_halves;
    complex_halves += other.complex_halves;
    for (int t = 0; t < kNumDecoderTiers; ++t) {
        tier_halves[t] += other.tier_halves[t];
    }
    offchip_halves += other.offchip_halves;
    offchip_queue_delay.merge(other.offchip_queue_delay);
    offchip_batch_sizes.merge(other.offchip_batch_sizes);
    suppressed_escalations += other.suppressed_escalations;
    pending_offchip += other.pending_offchip;
}

namespace {

/** Classify one half's verdict and tier outcome into the counters. */
void
count_half(LifetimeStats &stats, CliqueVerdict verdict, DecoderTier tier,
           bool offchip)
{
    switch (verdict) {
      case CliqueVerdict::AllZeros:
        ++stats.all_zero_halves;
        break;
      case CliqueVerdict::Trivial:
        ++stats.trivial_halves;
        break;
      case CliqueVerdict::Complex:
        ++stats.complex_halves;
        ++stats.tier_halves[static_cast<int>(tier)];
        stats.offchip_halves += offchip ? 1 : 0;
        break;
    }
}

/** Closed-loop lifetime run through the full BtwcSystem (one shard). */
LifetimeStats
run_pipeline(const LifetimeConfig &config)
{
    const RotatedSurfaceCode code(config.distance);
    SystemConfig sys_config;
    sys_config.filter_rounds = config.filter_rounds;
    sys_config.offchip = config.offchip;
    sys_config.tiers = config.tiers;
    sys_config.offchip_latency = config.offchip_latency;
    sys_config.offchip_bandwidth = config.offchip_bandwidth;
    sys_config.offchip_batch = config.offchip_batch;
    BtwcSystem system(code,
                      NoiseParams{config.p, config.meas_probability()},
                      sys_config, config.seed);

    LifetimeStats stats;
    stats.cycles = config.cycles;
    for (uint64_t cycle = 0; cycle < config.cycles; ++cycle) {
        const CycleReport report = system.step();
        switch (report.verdict) {
          case CliqueVerdict::AllZeros:
            ++stats.all_zero_cycles;
            break;
          case CliqueVerdict::Trivial:
            ++stats.trivial_cycles;
            break;
          case CliqueVerdict::Complex:
            ++stats.complex_cycles;
            break;
        }
        stats.offchip_cycles += report.offchip ? 1 : 0;
        for (int detector = 0; detector < 2; ++detector) {
            count_half(stats, report.type_verdict[detector],
                       report.tier_used[detector],
                       report.type_offchip[detector]);
        }
        stats.clique_corrections +=
            static_cast<uint64_t>(report.clique_corrections);
        stats.raw_weight.add(static_cast<uint64_t>(report.raw_weight));
    }
    stats.offchip_queue_delay = system.offchip_queue().delay_histogram();
    stats.offchip_batch_sizes = system.offchip_queue().batch_histogram();
    stats.suppressed_escalations = system.suppressed_escalations();
    stats.pending_offchip =
        static_cast<uint64_t>(system.pending_offchip());
    return stats;
}

/**
 * Open-loop signature sampling, the paper's §6.1 methodology: each
 * cycle draws fresh errors, measures them over `filter_rounds` noisy
 * rounds, classifies the filtered signature through the tier chain,
 * and resets. Off-chip tiers are classified but never run (the frame
 * resets regardless, so their result cannot affect the sampled
 * distribution); on-chip mid-tiers really run, which is what
 * attributes each COMPLEX signature to the tier that absorbs it.
 */
LifetimeStats
run_signature(const LifetimeConfig &config)
{
    const RotatedSurfaceCode code(config.distance);
    Rng rng(config.seed);
    LifetimeStats stats;
    stats.cycles = config.cycles;

    struct Half
    {
        Half(const RotatedSurfaceCode &c, CheckType error_type,
             const TierChainConfig &tiers)
            : frame(c, error_type),
              chain(c, detector_of_error(error_type), tiers)
        {
        }
        ErrorFrame frame;
        TierChain chain;
        PackedSyndrome round;
        PackedSyndrome filtered;
        TierChain::Result out;  ///< pooled, overwritten each cycle
    };
    Half halves[2] = {Half(code, CheckType::X, config.tiers),
                      Half(code, CheckType::Z, config.tiers)};

    TierChain::Options chain_options;
    chain_options.stop_before_offchip = true;

    for (uint64_t cycle = 0; cycle < config.cycles; ++cycle) {
        CliqueVerdict verdict = CliqueVerdict::AllZeros;
        bool cycle_offchip = false;
        uint64_t raw_weight = 0;
        for (Half &half : halves) {
            half.frame.reset();
            half.frame.inject(config.p, rng);
            // `filter_rounds` noisy measurements of the same error
            // state; the filtered signature is their AND (Fig. 7),
            // word-wide on the packed fast path.
            for (int r = 0; r < config.filter_rounds; ++r) {
                half.frame.measure_packed(config.meas_probability(), rng,
                                          half.round);
                if (r == 0) {
                    half.filtered = half.round;
                } else {
                    half.filtered &= half.round;
                }
            }
            raw_weight += static_cast<uint64_t>(half.round.popcount());
            half.chain.decode_syndrome(half.filtered, chain_options,
                                       half.out);
            const TierChain::Result &out = half.out;
            // Shared with BtwcSystem::step (the tier-0 classification
            // contract): the two modes must agree on this mapping.
            const CliqueVerdict half_verdict = classify_decode(out);
            count_half(stats, half_verdict, out.tier, out.offchip);
            if (half_verdict == CliqueVerdict::Complex) {
                verdict = CliqueVerdict::Complex;
            } else if (half_verdict == CliqueVerdict::Trivial &&
                       verdict == CliqueVerdict::AllZeros) {
                verdict = CliqueVerdict::Trivial;
            }
            cycle_offchip |= out.offchip;
            if (half_verdict == CliqueVerdict::Trivial) {
                stats.clique_corrections +=
                    static_cast<uint64_t>(out.decode.weight);
            }
        }
        switch (verdict) {
          case CliqueVerdict::AllZeros:
            ++stats.all_zero_cycles;
            break;
          case CliqueVerdict::Trivial:
            ++stats.trivial_cycles;
            break;
          case CliqueVerdict::Complex:
            ++stats.complex_cycles;
            break;
        }
        stats.offchip_cycles += cycle_offchip ? 1 : 0;
        stats.raw_weight.add(raw_weight);
    }
    return stats;
}

} // namespace

LifetimeStats
run_lifetime(const LifetimeConfig &config)
{
    return run_sharded<LifetimeStats>(
        config.cycles, config.threads, config.seed,
        [&config](const Shard &shard) {
            LifetimeConfig shard_config = config;
            shard_config.cycles = shard.cycles;
            shard_config.seed = shard.seed;
            shard_config.threads = 1;
            return shard_config.mode == LifetimeMode::Pipeline
                       ? run_pipeline(shard_config)
                       : run_signature(shard_config);
        });
}

int
required_distance(double p, double target_logical_rate)
{
    // LER(d) ~ A * (p / p_th)^((d+1)/2); see header. Returns the
    // smallest odd d whose projected LER meets the target (with a
    // 1.5x tolerance absorbing the prefactor uncertainty).
    constexpr double kThreshold = 1e-2;
    constexpr double kPrefactor = 0.1;
    const double ratio = p / kThreshold;
    if (ratio >= 1.0) {
        return 81;  // beyond threshold: the code cannot converge
    }
    for (int d = 3; d <= 81; d += 2) {
        const double k = (d + 1) / 2.0;
        const double ler = kPrefactor * std::pow(ratio, k);
        if (ler <= target_logical_rate * 1.5) {
            return d;
        }
    }
    return 81;
}

} // namespace btwc
