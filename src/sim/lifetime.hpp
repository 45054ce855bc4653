#pragma once

#include <cstdint>

#include "common/stats.hpp"
#include "core/system.hpp"
#include "surface/noise.hpp"

namespace btwc {

/**
 * How the lifetime simulator advances between cycles.
 *
 * `Signature` reproduces the paper's Monte-Carlo benchmarking exactly:
 * every cycle draws a fresh batch of data errors, measures it over
 * `filter_rounds` noisy rounds (the Fig. 7 filter sees transient
 * measurement flips), classifies the filtered signature and resets --
 * i.e. it samples the *distribution of per-cycle error signatures*
 * that Figs. 4 and 11-13 report, with every decode assumed to complete
 * within its cycle.
 *
 * `Pipeline` runs the closed-loop `BtwcSystem` instead: corrections
 * trail errors by the filter latency, so signatures from adjacent
 * cycles can interact. It is the end-to-end system model (used by the
 * examples and integration tests); its off-chip fraction runs a little
 * higher than Signature mode's at large p*d^2.
 */
enum class LifetimeMode : uint8_t { Signature = 0, Pipeline = 1 };

/** Configuration of a lifetime (Monte-Carlo benchmarking) run (§6.1). */
struct LifetimeConfig
{
    int distance = 5;
    double p = 1e-3;              ///< data-error probability per cycle
    double p_meas = -1.0;         ///< measurement-flip probability; <0 -> p
    uint64_t cycles = 100000;     ///< simulated decode cycles
    int filter_rounds = 2;
    LifetimeMode mode = LifetimeMode::Signature;
    OffchipPolicy offchip = OffchipPolicy::Oracle;  ///< Pipeline mode only
    /**
     * The system's off-chip link (Pipeline mode only, cf.
     * SystemConfig): zero latency and unlimited bandwidth land every
     * correction in the cycle that escalated it; nonzero
     * `offchip_latency` / `offchip_bandwidth` open the latency x
     * bandwidth x tier-chain grid (corrections land late, backlog
     * builds under a narrow link). `offchip_batch` caps the
     * decode_batch group size.
     */
    uint64_t offchip_latency = 0;
    uint64_t offchip_bandwidth = 0;
    uint64_t offchip_batch = 0;
    /**
     * The decode hierarchy (cf. SystemConfig::tiers); the default is
     * the paper's two-tier Clique -> MWPM chain, and e.g.
     * TierChainConfig::deep() inserts the §8.1 Union-Find mid-tier.
     * In Signature mode off-chip tiers are classified but never run
     * (their result cannot affect the sampled distribution), so deep
     * chains stay cheap even at the d = 81 operating points.
     */
    TierChainConfig tiers = TierChainConfig::legacy();
    /**
     * Worker shards for the Monte-Carlo engine (sim/engine.hpp): 1 =
     * historical single-threaded run (bit-exact), 0 = all hardware
     * threads, N = exactly N shards with independent RNG streams.
     */
    int threads = 1;
    uint64_t seed = 1;

    /** Effective measurement flip probability. */
    double meas_probability() const { return p_meas < 0.0 ? p : p_meas; }
};

/** Aggregated statistics of a lifetime run. */
struct LifetimeStats
{
    uint64_t cycles = 0;
    uint64_t all_zero_cycles = 0;  ///< filtered signature all zeros
    uint64_t trivial_cycles = 0;   ///< nonzero, fully handled by tier 0
    uint64_t complex_cycles = 0;   ///< at least one tier-0 escalation
    uint64_t offchip_cycles = 0;   ///< at least one off-chip tier consulted
    uint64_t clique_corrections = 0;
    CountHistogram raw_weight;     ///< per-cycle fired raw bits (AFS input)

    /**
     * Decode-granularity counters. Every cycle runs one decode per
     * lattice half (the X- and Z-detecting Clique instances are
     * independent hardware), so each cycle contributes two decodes.
     * Figs. 4 and 11-13 are reported at this granularity; the
     * per-qubit-cycle counters above drive the fleet model (§5.1
     * counts off-chip *logical-qubit* decodes per cycle).
     */
    uint64_t all_zero_halves = 0;
    uint64_t trivial_halves = 0;
    uint64_t complex_halves = 0;  ///< escalated past tier 0

    /**
     * Of the half-decodes that escalated past tier 0, how many were
     * absorbed by each tier of the chain (indexed by DecoderTier).
     * With the legacy chain everything lands on Mwpm; with a §8.1
     * mid-tier most COMPLEX signatures stay on-chip in UnionFind.
     */
    uint64_t tier_halves[kNumDecoderTiers] = {};
    uint64_t offchip_halves = 0;  ///< escalations that left the chip

    /**
     * Off-chip link observables (Pipeline mode; all-empty in
     * Signature mode). `offchip_queue_delay` is
     * the enqueue-to-landing delay of every landed correction (its
     * total() is the landed count); `offchip_batch_sizes` the size of
     * every served link batch (see OffchipQueue::batch_histogram);
     * `suppressed_escalations` counts decodes deferred to an
     * in-flight request of the same half (the reconciliation
     * contract, core/system.hpp); `pending_offchip` the requests
     * still outstanding when the run ended.
     */
    CountHistogram offchip_queue_delay;
    CountHistogram offchip_batch_sizes;
    uint64_t suppressed_escalations = 0;
    uint64_t pending_offchip = 0;

    /**
     * Fold the statistics of another (independently sampled) run into
     * this one -- the reduction step of the sharded Monte-Carlo engine
     * (sim/engine.hpp). Exact: every counter is a sum.
     */
    void merge(const LifetimeStats &other);

    /** Fraction of cycles fully handled by tier 0 (Fig. 11). */
    double coverage() const
    {
        return cycles == 0
                   ? 0.0
                   : 1.0 - static_cast<double>(complex_cycles) /
                               static_cast<double>(cycles);
    }

    /** Fraction of cycles whose syndrome must ship off-chip. */
    double offchip_fraction() const
    {
        return cycles == 0 ? 0.0
                           : static_cast<double>(offchip_cycles) /
                                 static_cast<double>(cycles);
    }

    /** Total decodes at half granularity (two per cycle). */
    uint64_t total_halves() const
    {
        return all_zero_halves + trivial_halves + complex_halves;
    }

    /** Fraction of *decodes* handled by tier 0 (Fig. 11). */
    double coverage_per_decode() const
    {
        const uint64_t total = total_halves();
        return total == 0 ? 0.0
                          : 1.0 - static_cast<double>(complex_halves) /
                                      static_cast<double>(total);
    }

    /**
     * Fraction of tier-0 escalations absorbed by on-chip mid-tiers
     * (the §8.1 payoff; 0 for the legacy two-tier chain).
     */
    double midtier_absorption() const
    {
        return complex_halves == 0
                   ? 0.0
                   : 1.0 - static_cast<double>(offchip_halves) /
                               static_cast<double>(complex_halves);
    }

    /**
     * Among on-chip decodes, the fraction that actually corrected
     * something (not All-0s) -- Fig. 12.
     */
    double onchip_nonzero_fraction() const
    {
        const uint64_t onchip = all_zero_halves + trivial_halves;
        return onchip == 0 ? 0.0
                           : static_cast<double>(trivial_halves) /
                                 static_cast<double>(onchip);
    }

    /**
     * Average off-chip data reduction achieved by the on-chip tiers:
     * the raw half-syndrome stream divided by what actually ships
     * (off-chip halves only) -- Fig. 13's Clique series.
     */
    double clique_data_reduction() const
    {
        if (offchip_halves == 0) {
            return static_cast<double>(total_halves());  // saturated
        }
        return static_cast<double>(total_halves()) /
               static_cast<double>(offchip_halves);
    }
};

/**
 * Run the single-logical-qubit lifetime simulation, sharded over
 * `config.threads` workers (sim/engine.hpp). Shard cycle counts sum
 * to `config.cycles` exactly; `threads == 1` reproduces the
 * historical single-threaded results bit-for-bit.
 */
LifetimeStats run_lifetime(const LifetimeConfig &config);

/**
 * Code distance needed to reach `target_logical_rate` from physical
 * rate p, using the standard surface-code scaling
 * LER(d) ~ A * (p / p_th)^((d+1)/2) with p_th the phenomenological
 * threshold (~2.9%) and A ~ 0.1. Returns an odd distance >= 3.
 * This reproduces the paper's (p, target LER) -> d pairings in Fig. 4
 * (e.g. 1e-3/1e-12 -> d = 21, 5e-4/1e-12 -> d = 15).
 */
int required_distance(double p, double target_logical_rate);

} // namespace btwc
