#include "core/system.hpp"

#include "common/check.hpp"

namespace btwc {

CliqueVerdict
classify_decode(const TierChain::Result &outcome)
{
    if (outcome.decode.defects == 0) {
        return CliqueVerdict::AllZeros;
    }
    if (outcome.tier_index == 0 && outcome.resolved) {
        return CliqueVerdict::Trivial;
    }
    return CliqueVerdict::Complex;
}

BtwcSystem::BtwcSystem(const RotatedSurfaceCode &code, NoiseParams noise,
                       SystemConfig config, uint64_t seed)
    : code_(code), noise_(noise), config_(std::move(config)), rng_(seed)
{
    const CheckType error_types[2] = {CheckType::X, CheckType::Z};
    for (const CheckType err : error_types) {
        frames_.emplace_back(code_, err);
        halves_.emplace_back(code_, detector_of_error(err), config_);
    }
}

CycleReport
BtwcSystem::step()
{
    CycleReport report;
    const int num_types = config_.track_both_types ? 2 : 1;
    if (link_ == nullptr) {
        // Stand-alone: build the one-tenant link on first use, so a
        // fleet tenant that attaches a shared link never pays for one.
        own_service_ = std::make_unique<SharedOffchipService>(
            code_, config_.tiers,
            OffchipQueueConfig{config_.offchip_bandwidth,
                               config_.offchip_latency,
                               config_.offchip_batch});
        link_ = own_service_.get();
    }

    // Phase 0 (graceful degradation): time out halves whose off-chip
    // request has been outstanding past the backoff-scaled budget. The
    // give-up frees the half; with retries left the persisting
    // signature re-escalates naturally in phase 2 (that re-enqueue *is*
    // the retry), otherwise the on-chip UF fallback resolves the half
    // right now instead of waiting on a dead link — a degraded decode,
    // weaker than the off-chip tier but bounded in time.
    if (config_.offchip_timeout > 0) {
        for (int t = 0; t < num_types; ++t) {
            if (!half_busy_[t]) {
                continue;
            }
            const uint64_t waited = cycles_ - half_busy_since_[t];
            const int shift =
                half_retries_[t] < 6 ? half_retries_[t] : 6;
            if (waited < (config_.offchip_timeout << shift)) {
                continue;
            }
            link_->give_up(owner_, t);
            half_busy_[t] = false;
            if (half_retries_[t] < config_.offchip_retries) {
                ++half_retries_[t];
                ++retried_;
                ++report.retried;
                continue;
            }
            Half &half = halves_[t];
            half.fallback->decode_packed(half.filter.filtered(),
                                         half.fallback_result);
            frames_[t].apply_mask(half.fallback_result.correction);
            half_retries_[t] = 0;
            ++degraded_;
            ++report.degraded;
        }
    }

    // Off-chip tiers never run inside phase 1: their input is
    // enqueued and decoded when served. On-chip tiers (Clique, a
    // configured Union-Find mid-tier) always run for real.
    TierChain::Options chain_options;
    chain_options.stop_before_offchip = true;

    // Phase 1: noise injection + noisy measurement + filtering + tier
    // chain classification for each half — all on the packed fast
    // path, so steady-state cycles allocate nothing here.
    for (int t = 0; t < num_types; ++t) {
        ErrorFrame &frame = frames_[t];
        Half &half = halves_[t];
        frame.inject(noise_.p_data, rng_);
        frame.measure_packed(noise_.p_meas, rng_, half.raw);
        report.raw_weight += half.raw.popcount();
        const PackedSyndrome &filtered = half.filter.push(half.raw);
        half.chain.decode_syndrome(filtered, chain_options, half.outcome);

        const int detector = static_cast<int>(frame.detector());
        report.type_verdict[detector] = classify_decode(half.outcome);
        report.tier_used[detector] = half.outcome.tier;
        report.type_offchip[detector] = half.outcome.offchip;
    }

    // Combined verdict over both halves: the logical qubit's syndrome
    // leaves the chip when either half consulted an off-chip tier.
    report.verdict = CliqueVerdict::AllZeros;
    for (int t = 0; t < num_types; ++t) {
        const int detector = static_cast<int>(frames_[t].detector());
        const CliqueVerdict verdict = report.type_verdict[detector];
        if (verdict == CliqueVerdict::Complex) {
            report.verdict = CliqueVerdict::Complex;
        } else if (verdict == CliqueVerdict::Trivial &&
                   report.verdict == CliqueVerdict::AllZeros) {
            report.verdict = CliqueVerdict::Trivial;
        }
        report.offchip |= halves_[t].outcome.offchip;
    }

    // Phase 2: apply on-chip corrections and hand escalations to the
    // off-chip link. Halves resolved by an on-chip tier apply that
    // tier's correction; escalated halves enqueue.
    for (int t = 0; t < num_types; ++t) {
        ErrorFrame &frame = frames_[t];
        TierChain::Result &outcome = halves_[t].outcome;
        if (outcome.decode.defects == 0) {
            continue;
        }
        if (outcome.resolved) {
            if (half_busy_[t]) {
                // The half's off-chip request is still in flight, and
                // its signature is folded into this cycle's (the
                // escalated errors are still on the lattice). Applying
                // an on-chip correction now would make the landing
                // correction stale -- it would XOR already-fixed
                // errors back on. Defer: between enqueue and landing
                // the only frame changes are fresh noise, so the
                // landing removes exactly the escalation-time
                // component and the residual re-decodes normally.
                ++suppressed_;
                ++report.suppressed;
                continue;
            }
            frame.apply_mask(outcome.decode.correction);
            if (outcome.tier_index == 0) {
                // Clique emits each corrected qubit once, so the
                // decode weight is the mask popcount.
                report.clique_corrections +=
                    static_cast<int>(outcome.decode.weight);
            }
        } else if (outcome.offchip) {
            if (half_busy_[t]) {
                // Reconciliation: the half's previous request is
                // still in flight; this signature is absorbed into
                // the residual that re-escalates after the landing.
                ++suppressed_;
                ++report.suppressed;
            } else {
                // Tag the request and hand it to the link; a shared
                // link advances once per machine cycle in the fleet
                // harness, an own one in phase 3 below.
                SharedOffchipService::Request request;
                request.owner = owner_;
                request.half = t;
                request.tier_index = outcome.tier_index;
                request.distance = code_.distance();
                request.oracle = config_.offchip == OffchipPolicy::Oracle;
                if (request.oracle) {
                    request.payload = frame.error();
                } else {
                    halves_[t].filter.filtered().to_bytes(request.payload);
                }
                link_->enqueue(std::move(request));
                half_busy_[t] = true;
                half_busy_since_[t] = cycles_;
                ++report.queued;
            }
        }
        // Otherwise the chain's final tier declined (a degenerate
        // chain with no resolver for this signature, e.g. Clique
        // alone): the error persists and re-escalates next cycle --
        // no silent oracle fix under a real-decode policy.
    }

    // Phase 3 (own link only): advance the link one cycle -- serve
    // queued escalations and apply every correction whose latency
    // elapsed. With the default zero-latency unlimited-bandwidth link
    // this lands this cycle's own corrections. A shared-link tenant
    // skips this: the fleet harness steps the shared service once per
    // machine cycle after every tenant stepped.
    if (own_service_) {
        for (const SharedOffchipService::Delivery &landing :
             own_service_->step()) {
            deliver_offchip_correction(landing.half, landing.correction);
            ++report.landed;
        }
        report.queue_backlog = own_service_->queue().backlog();
    }

    ++cycles_;
    if (audit_deep()) {
        audit_syndromes();
    }
    return report;
}

void
BtwcSystem::audit_syndromes() const
{
    for (const ErrorFrame &frame : frames_) {
        frame.audit();
    }
    for (const Half &half : halves_) {
        half.raw.audit();
        half.filter.filtered().audit();
    }
}

const OffchipQueue &
BtwcSystem::offchip_queue() const
{
    static const OffchipQueue idle;
    return own_service_ ? own_service_->queue() : idle;
}

void
BtwcSystem::attach_shared_service(SharedOffchipService *service, int owner)
{
    BTWC_CHECK_MSG(own_service_ == nullptr,
                   "a system with its own link cannot attach a "
                   "shared one");
    link_ = service;
    owner_ = owner;
}

void
BtwcSystem::deliver_offchip_correction(
    int half, const std::vector<uint8_t> &correction)
{
    if (!half_busy_[half]) {
        // Nothing outstanding: a fault-plan duplicate of a correction
        // this half already consumed. On the healthy path halves are
        // always busy when a delivery arrives, so this never fires.
        ++duplicate_drops_;
        return;
    }
    half_busy_[half] = false;
    if (correction.empty()) {
        // Admission-control nack: the link shed the request past its
        // deadline. The half is free again and its persisting
        // signature re-escalates (or degrades) on the next cycle.
        ++shared_nacks_;
        half_retries_[half] = 0;
        return;
    }
    frames_[static_cast<size_t>(half)].apply_mask(correction);
    half_retries_[half] = 0;
    ++shared_landed_;
}

} // namespace btwc
