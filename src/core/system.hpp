#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "core/clique.hpp"
#include "core/filter.hpp"
#include "core/offchip_queue.hpp"
#include "core/offchip_service.hpp"
#include "decoders/tier_chain.hpp"
#include "matching/union_find.hpp"
#include "surface/frame.hpp"
#include "surface/lattice.hpp"
#include "surface/noise.hpp"

namespace btwc {

/**
 * How the rare off-chip decodes are resolved inside the lifetime
 * simulator.
 *
 * `Mwpm` feeds the two-round-agreed (filtered) syndrome to the
 * chain's off-chip tiers, exactly the hand-over the paper describes.
 * `Oracle` clears the true error state instead of running an off-chip
 * tier; it is statistically indistinguishable for the
 * distribution/coverage/bandwidth metrics (validated by the test
 * suite) and orders of magnitude faster at the d = 81 configurations
 * of Fig. 4. On-chip tiers (Clique, and a Union-Find mid-tier when
 * configured) always really run.
 */
enum class OffchipPolicy : uint8_t { Oracle = 0, Mwpm = 1 };

/** Configuration of a single-logical-qubit BTWC pipeline. */
struct SystemConfig
{
    int filter_rounds = 2;                       ///< Fig. 7 window
    OffchipPolicy offchip = OffchipPolicy::Oracle;
    bool track_both_types = true;                ///< decode X and Z halves
    /**
     * The decode hierarchy each half runs (tier 0 first). The default
     * is the paper's two-tier Clique -> MWPM architecture; §8.1-style
     * deeper chains (e.g. TierChainConfig::deep()) slot a Union-Find
     * mid-tier in between, and arbitrary chains come from the CLI via
     * TierChainConfig::parse.
     */
    TierChainConfig tiers = TierChainConfig::legacy();
    /**
     * The system's own off-chip link (ignored by a tenant of a shared
     * link, whose parameters live on the shared service): round-trip
     * decode latency in cycles, served decodes per cycle (0 =
     * unlimited) and the link-batch grouping cap
     * (OffchipQueueConfig::max_batch; within one logical qubit actual
     * decode_batch calls are bounded by the
     * one-outstanding-request-per-half contract). The zero defaults
     * land every correction in the cycle that escalated it.
     */
    uint64_t offchip_latency = 0;
    uint64_t offchip_bandwidth = 0;
    uint64_t offchip_batch = 0;
    /**
     * Graceful degradation under link faults (0 disables it, the
     * bit-exact default). A half whose
     * off-chip request has been outstanding for `offchip_timeout`
     * cycles gives the request up (core/offchip_service.hpp) and
     * either re-escalates — up to `offchip_retries` times per
     * signature, each retry doubling the timeout budget (exponential
     * backoff) — or, with retries exhausted, decodes the half's
     * current filtered syndrome on an on-chip Union-Find fallback
     * instead of waiting on a dead link (a `degraded` decode).
     */
    uint64_t offchip_timeout = 0;
    int offchip_retries = 0;
};

/** What happened in one cycle of a BTWC pipeline. */
struct CycleReport
{
    /** Combined verdict: Complex dominates, then Trivial, then AllZeros. */
    CliqueVerdict verdict = CliqueVerdict::AllZeros;
    /** Verdict of each half (indexed by CheckType of the detector). */
    CliqueVerdict type_verdict[2] = {CliqueVerdict::AllZeros,
                                     CliqueVerdict::AllZeros};
    /**
     * Deepest tier consulted by each half (indexed like type_verdict).
     * Equals the tier that produced the correction, except under the
     * Oracle policy where it names the off-chip tier the oracle stood
     * in for.
     */
    DecoderTier tier_used[2] = {DecoderTier::Clique, DecoderTier::Clique};
    /** Whether each half's decode consulted an off-chip tier. */
    bool type_offchip[2] = {false, false};
    /** True when the cycle's syndrome had to go off-chip. */
    bool offchip = false;
    /** Fired bits in the cycle's raw syndrome, both halves (AFS input). */
    int raw_weight = 0;
    /** On-chip corrections applied by Clique this cycle. */
    int clique_corrections = 0;
    /** Escalations enqueued on the off-chip service this cycle. */
    int queued = 0;
    /** Queued corrections that landed (were applied) this cycle. */
    int landed = 0;
    /**
     * Decodes deferred to an already-outstanding request of the same
     * half (see BtwcSystem's reconciliation contract): off-chip
     * classifications absorbed rather than re-enqueued, and on-chip
     * resolutions held back rather than applied (either would make
     * the in-flight correction stale).
     */
    int suppressed = 0;
    /** Requests still waiting for link capacity after this cycle. */
    uint64_t queue_backlog = 0;
    /** Timed-out requests given up and re-escalated (backoff). */
    int retried = 0;
    /** Timed-out halves resolved by the on-chip UF fallback. */
    int degraded = 0;
};

/**
 * Tier-0 classification of one hierarchical decode, the Clique-verdict
 * contract of the paper: nothing fired / resolved locally by tier 0 /
 * escalated. Identical for every chain sharing the same tier 0 --
 * deeper tiers only change who pays for the COMPLEX signatures.
 * Shared by the closed-loop pipeline (BtwcSystem::step) and the
 * open-loop Signature-mode sampler (sim/lifetime.cpp) so the two
 * modes can never desynchronize on this mapping.
 */
CliqueVerdict classify_decode(const TierChain::Result &outcome);

/**
 * The full BTWC decode pipeline of one logical qubit (Fig. 2):
 * phenomenological noise -> noisy syndrome measurement -> multi-round
 * measurement filter -> configurable decoder tier chain (Clique
 * first, rare escalation to Union-Find and/or off-chip matching).
 *
 * `step()` advances one code cycle and reports the classification the
 * bandwidth allocator consumes. Escalated signatures are enqueued on
 * the off-chip link (core/offchip_service.hpp) and their corrections
 * land `offchip_latency` cycles later, persisting through the filter
 * window; intervening errors stay on the lattice and re-escalate
 * after the landing, which is how late corrections are reconciled
 * against syndromes that changed in flight.
 *
 * Reconciliation contract: each half has at most one outstanding
 * off-chip request, and while it is in flight the half applies no
 * corrections at all. A signature classified off-chip in that window
 * is *absorbed* (counted in `CycleReport::suppressed`): its errors
 * remain on the lattice, the landing correction removes the
 * escalation-time component, and the residual re-escalates as a
 * fresh request. A signature an on-chip tier could resolve in that
 * window is *deferred* (also counted as suppressed): the escalated
 * errors are folded into it, so correcting it now would leave the
 * landing correction stale and XOR already-fixed errors back on.
 * Either shortcut -- re-sending the stale syndrome every cycle, or
 * applying overlapping corrections from both paths -- would
 * double-correct and oscillate.
 *
 * Every escalation travels through a `SharedOffchipService`: a
 * stand-alone system builds a one-tenant FIFO service on its first
 * `step()` and advances it in phase 3; a fleet tenant attaches to one
 * shared link instead (`attach_shared_service`). The bandwidth/stall
 * machinery lives in `core/bandwidth.hpp` / `core/offchip_queue.hpp`
 * and the multi-qubit machine model in `sim/fleet.hpp`.
 */
class BtwcSystem
{
  public:
    BtwcSystem(const RotatedSurfaceCode &code, NoiseParams noise,
               SystemConfig config, uint64_t seed);

    /** Advance one noisy cycle through the full pipeline. */
    CycleReport step();

    /**
     * Become tenant `owner` of a shared multi-tenant off-chip link
     * (core/offchip_service.hpp) instead of building an own one:
     * escalations are enqueued on `service` tagged with `owner`, and
     * phase 3 is skipped -- the fleet harness advances the shared link
     * once per machine cycle (after every tenant stepped) and routes
     * landed corrections back via `deliver_offchip_correction`.
     * `offchip_queue()` stays idle; link accounting lives on the
     * service. Attach before the first step (a tenant may later move
     * to another shared link, as fabric failover does; a system that
     * already built its own link may not). With a zero-latency
     * unlimited-bandwidth shared link the cycle statistics are
     * bit-exact with one link per qubit (tested).
     */
    void attach_shared_service(SharedOffchipService *service, int owner);

    /**
     * Apply a correction the service routed back to `half`
     * (error-type index) and free that half for its next escalation
     * (an empty correction is a shed nack: it only frees the half).
     */
    void deliver_offchip_correction(int half,
                                    const std::vector<uint8_t> &correction);

    /** Number of cycles executed. */
    uint64_t cycles() const { return cycles_; }

    /** The underlying code. */
    const RotatedSurfaceCode &code() const { return code_; }

    /** Error frame of one half (by *error* type). */
    const ErrorFrame &frame(CheckType error_type) const
    {
        return frames_[static_cast<int>(error_type)];
    }

    /** Active configuration. */
    const SystemConfig &config() const { return config_; }

    /**
     * The link of the system's own one-tenant service; an idle queue
     * for a tenant of a shared link or before the first step.
     */
    const OffchipQueue &offchip_queue() const;

    /** Decodes deferred to an outstanding request (see above). */
    uint64_t suppressed_escalations() const { return suppressed_; }

    /** Requests enqueued or in flight whose correction has not landed. */
    size_t pending_offchip() const
    {
        return (half_busy_[0] ? 1u : 0u) + (half_busy_[1] ? 1u : 0u);
    }

    /** Corrections the service delivered to this system. */
    uint64_t shared_landed() const { return shared_landed_; }

    /** Timed-out requests given up and re-escalated (backoff). */
    uint64_t retried_decodes() const { return retried_; }

    /** Timed-out halves resolved by the on-chip UF fallback. */
    uint64_t degraded_decodes() const { return degraded_; }

    /** Empty-correction nacks received (shed requests). */
    uint64_t shared_nacks() const { return shared_nacks_; }

    /** Deliveries dropped because the half was no longer waiting
     * (the fault plan's duplicate clause). */
    uint64_t duplicate_drops() const { return duplicate_drops_; }

  private:
    struct Half
    {
        Half(const RotatedSurfaceCode &code, CheckType detector,
             const SystemConfig &config)
            : chain(code, detector, config.tiers),
              filter(code.num_checks(detector), config.filter_rounds)
        {
            if (config.offchip_timeout > 0) {
                fallback =
                    std::make_unique<UnionFindDecoder>(code, detector);
            }
        }

        TierChain chain;
        /** On-chip degraded-mode decoder (offchip_timeout > 0 only):
         * resolves a half whose link request timed out with retries
         * exhausted, instead of waiting on a dead link. */
        std::unique_ptr<UnionFindDecoder> fallback;
        /** Pooled fallback decode outcome (degraded path only). */
        Decoder::Result fallback_result;
        /** Packed per-cycle pipeline (measure_packed -> word-AND filter
         * -> packed tier walk): nothing on this path allocates in
         * steady state. */
        PackedMeasurementFilter filter;
        PackedSyndrome raw;
        /** Pooled decode outcome, overwritten in place each cycle. */
        TierChain::Result outcome;
    };

    /**
     * Verify each frame's stored syndrome and the per-cycle
     * syndrome/filter tail-word invariants (the link's reconciliation
     * state is audited by the service itself).
     * Runs at the end of step() under AuditLevel::Deep; throws
     * CheckFailure.
     */
    void audit_syndromes() const;

    const RotatedSurfaceCode &code_;
    NoiseParams noise_;
    SystemConfig config_;
    Rng rng_;
    std::vector<ErrorFrame> frames_;  ///< indexed by error type
    std::vector<Half> halves_;        ///< indexed by error type
    uint64_t cycles_ = 0;

    // Off-chip transport: `link_` is the link every escalation goes
    // to -- an attached fleet link, or `own_service_`, the one-tenant
    // link a stand-alone system builds on its first step.
    bool half_busy_[2] = {false, false};
    uint64_t suppressed_ = 0;
    std::unique_ptr<SharedOffchipService> own_service_;
    SharedOffchipService *link_ = nullptr;
    int owner_ = 0;
    uint64_t shared_landed_ = 0;

    // Graceful degradation (offchip_timeout > 0): the
    // cycle each half's outstanding request was enqueued, its
    // consecutive-retry count (the backoff exponent), and the
    // outcome counters.
    uint64_t half_busy_since_[2] = {0, 0};
    int half_retries_[2] = {0, 0};
    uint64_t retried_ = 0;
    uint64_t degraded_ = 0;
    uint64_t shared_nacks_ = 0;
    uint64_t duplicate_drops_ = 0;
};

} // namespace btwc
