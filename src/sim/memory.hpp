#pragma once

#include <cstdint>
#include <utility>

#include "surface/lattice.hpp"

namespace btwc {

/** Which decoder stack a memory experiment exercises (Fig. 14). */
enum class DecoderArm : uint8_t
{
    MwpmOnly = 0,      ///< paper's off-chip baseline
    CliqueMwpm = 1,    ///< Clique first, MWPM for complex rounds
    UnionFindOnly = 2, ///< §8.1 hierarchy extension / cross-check
};

/** Display name of a decoder arm. */
const char *decoder_arm_name(DecoderArm arm);

/** Configuration of a logical-memory Monte-Carlo experiment. */
struct MemoryConfig
{
    int distance = 5;
    double p = 1e-3;              ///< data-error probability per round
    double p_meas = -1.0;         ///< measurement-flip probability; <0 -> p
    uint64_t max_trials = 100000; ///< hard trial cap
    uint64_t target_failures = 100; ///< stop early once reached
    int rounds = 0;               ///< noisy rounds; 0 means d
    int filter_rounds = 2;
    /**
     * Use log-likelihood edge weights in the matching graph instead of
     * unit weights. Matters only when p_meas != p (asymmetric noise);
     * with the paper's symmetric model both are exact.
     */
    bool weighted_matching = false;
    CheckType error_type = CheckType::X;  ///< which half is simulated
    /**
     * Worker shards for the Monte-Carlo engine (sim/engine.hpp): 1 =
     * historical single-threaded run (bit-exact), 0 = all hardware
     * threads, N = exactly N shards with independent RNG streams.
     * Sharding splits `max_trials` exactly; see run_memory_experiment
     * for the cross-shard `target_failures` early-stop rule.
     */
    int threads = 1;
    uint64_t seed = 1;

    /** Effective measurement flip probability. */
    double meas_probability() const { return p_meas < 0.0 ? p : p_meas; }
};

/** Result of a memory experiment. */
struct MemoryResult
{
    uint64_t trials = 0;
    uint64_t failures = 0;
    uint64_t offchip_rounds = 0;  ///< rounds flagged COMPLEX (Clique arm)
    uint64_t total_rounds = 0;
    /**
     * Trials whose decode failed to clear the perfect-round syndrome.
     * This must be zero -- the final matching pass closes every
     * detection-event chain by construction -- and it is a *counted
     * runtime check*, not an assert, so Release/-DNDEBUG builds (the
     * CI smoke path) surface a violation instead of silently skipping
     * the invariant. A nonzero count invalidates `ler()`.
     */
    uint64_t unclear_syndromes = 0;

    /**
     * Fold the result of another (independently sampled) run into this
     * one -- the reduction step of the sharded Monte-Carlo engine
     * (sim/engine.hpp). Exact: every counter is a sum.
     */
    void merge(const MemoryResult &other)
    {
        trials += other.trials;
        failures += other.failures;
        offchip_rounds += other.offchip_rounds;
        total_rounds += other.total_rounds;
        unclear_syndromes += other.unclear_syndromes;
    }

    /** Logical error rate per `rounds`-round block. */
    double ler() const
    {
        return trials == 0 ? 0.0
                           : static_cast<double>(failures) /
                                 static_cast<double>(trials);
    }

    /** 95% Wilson confidence interval on the LER. */
    std::pair<double, double> ler_interval() const;
};

/**
 * Run one memory experiment: per trial, `rounds` noisy syndrome
 * extraction rounds followed by one perfect round, decode, and check
 * whether the residual anticommutes with the dual logical operator.
 *
 * Sharded over `config.threads` workers (sim/engine.hpp): shard trial
 * budgets sum to `max_trials` exactly and `threads == 1` reproduces
 * the historical single-threaded run bit-for-bit. Cross-shard
 * early-stop rule: each shard stops at its trial budget or after
 * ceil(target_failures / #shards) failures, whichever comes first --
 * deterministic (no inter-thread communication), and since shard
 * samples are i.i.d. the merged run stops at ~target_failures like
 * the serial loop. The merged `failures` can exceed `target_failures`
 * by at most #shards - 1.
 *
 * The baseline arm decodes all detection events in a single 3D MWPM
 * pass. The Clique arm replays the paper's pipeline: per-round
 * filtered syndromes go through Clique; trivial corrections are
 * applied online (and their echo shows up as time-like event pairs
 * that the final MWPM pass resolves as identity); rounds flagged
 * COMPLEX leave their events to the final MWPM pass, which models the
 * off-chip hand-over.
 *
 * Each trial runs the packed per-cycle pipeline (src/core/README.md):
 * per round `ErrorFrame::inject`, `measure_packed`, and on the Clique
 * arm `PackedMeasurementFilter::push` and `CliqueDecoder::decode_packed`;
 * the closing round is the frame's noiseless `syndrome()`. Detection
 * events are the word-wise XOR of consecutive rounds, in (round,
 * check) order. A shard keeps one trial state, the frame (with its
 * noise walks), the filter, the rounds, the event list, the Clique
 * correction and the closing decode's Result, and resets it per
 * trial: a trial draws exactly what a fresh state would, and its
 * per-round stages and the closing decode's correction allocate
 * nothing once the first trial has run.
 */
MemoryResult run_memory_experiment(const MemoryConfig &config,
                                   DecoderArm arm);

} // namespace btwc
