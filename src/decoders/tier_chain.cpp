#include "decoders/tier_chain.hpp"

#include <stdexcept>
#include <utility>

#include "common/check.hpp"
#include "common/parse.hpp"

#include "decoders/clique_tier.hpp"
#include "decoders/exact_decoder.hpp"
#include "decoders/lookup_table.hpp"
#include "matching/mwpm.hpp"
#include "matching/union_find.hpp"

namespace btwc {

namespace {

std::unique_ptr<Decoder>
make_tier_decoder(DecoderTier kind, const RotatedSurfaceCode &code,
                  CheckType detector)
{
    switch (kind) {
      case DecoderTier::Clique:
        return std::make_unique<CliqueTierDecoder>(code, detector);
      case DecoderTier::UnionFind:
        return std::make_unique<UnionFindDecoder>(code, detector);
      case DecoderTier::Mwpm:
        return std::make_unique<MwpmDecoder>(code, detector);
      case DecoderTier::Exact:
        return std::make_unique<ExactDecoder>(code, detector);
      case DecoderTier::Lut:
        return std::make_unique<LookupTableDecoder>(code, detector);
      case DecoderTier::Stream:
        // Unreachable: the TierChain constructor rejects stream tiers
        // before building decoders (see the check there).
        return nullptr;
    }
    return nullptr;
}

} // namespace

const char *
decoder_tier_name(DecoderTier tier)
{
    switch (tier) {
      case DecoderTier::Clique:
        return "clique";
      case DecoderTier::UnionFind:
        return "union-find";
      case DecoderTier::Mwpm:
        return "mwpm";
      case DecoderTier::Exact:
        return "exact";
      case DecoderTier::Lut:
        return "lut";
      case DecoderTier::Stream:
        return "stream";
    }
    return "?";
}

TierSpec
TierSpec::clique()
{
    return TierSpec{DecoderTier::Clique, -1, false};
}

TierSpec
TierSpec::union_find(int escalation_threshold)
{
    return TierSpec{DecoderTier::UnionFind, escalation_threshold, false};
}

TierSpec
TierSpec::mwpm()
{
    return TierSpec{DecoderTier::Mwpm, -1, true};
}

TierSpec
TierSpec::exact()
{
    return TierSpec{DecoderTier::Exact, -1, true};
}

TierSpec
TierSpec::lut()
{
    // One table index per decode: cheap enough to live on-chip (the
    // hardware analogue is a syndrome-addressed ROM).
    return TierSpec{DecoderTier::Lut, -1, false};
}

TierSpec
TierSpec::stream()
{
    // The sliding-window streaming matcher is the MWPM-class final
    // tier of a kind=stream chain; like mwpm it lives off-chip.
    return TierSpec{DecoderTier::Stream, -1, true};
}

TierChainConfig
TierChainConfig::legacy()
{
    return TierChainConfig{{TierSpec::clique(), TierSpec::mwpm()}};
}

TierChainConfig
TierChainConfig::deep(int uf_threshold)
{
    return TierChainConfig{{TierSpec::clique(),
                            TierSpec::union_find(uf_threshold),
                            TierSpec::mwpm()}};
}

bool
TierChainConfig::try_parse(const std::string &spec, int uf_threshold,
                           TierChainConfig *out, std::string *error)
{
    if (spec.empty()) {
        *out = legacy();
        return true;
    }
    TierChainConfig config;
    size_t start = 0;
    while (start <= spec.size()) {
        size_t end = spec.find(',', start);
        if (end == std::string::npos) {
            end = spec.size();
        }
        std::string token = spec.substr(start, end - start);
        start = end + 1;
        if (token.empty()) {
            continue;
        }
        bool has_threshold = false;
        int threshold = 0;
        const size_t colon = token.find(':');
        if (colon != std::string::npos) {
            const std::string suffix = token.substr(colon + 1);
            if (!parse_int(suffix, &threshold)) {
                if (error != nullptr) {
                    *error = "malformed tier threshold '" + suffix +
                             "' in spec '" + spec +
                             "'; expected an int-range integer after ':'";
                }
                return false;
            }
            has_threshold = true;
            token = token.substr(0, colon);
        }
        TierSpec tier;
        if (token == "clique") {
            tier = TierSpec::clique();
        } else if (token == "uf" || token == "union-find" ||
                   token == "unionfind") {
            tier = TierSpec::union_find(uf_threshold);
        } else if (token == "mwpm" || token == "matching") {
            tier = TierSpec::mwpm();
        } else if (token == "exact") {
            tier = TierSpec::exact();
        } else if (token == "lut") {
            tier = TierSpec::lut();
        } else if (token == "stream") {
            tier = TierSpec::stream();
        } else {
            if (error != nullptr) {
                *error = "unknown decoder tier '" + token +
                         "' in spec '" + spec +
                         "'; expected clique | uf | union-find | mwpm "
                         "| exact | lut | stream (optionally "
                         "':<threshold>')";
            }
            return false;
        }
        if (has_threshold) {
            tier.escalation_threshold = threshold;
        }
        config.tiers.push_back(tier);
    }
    *out = config.tiers.empty() ? legacy() : std::move(config);
    return true;
}

TierChainConfig
TierChainConfig::parse(const std::string &spec, int uf_threshold)
{
    TierChainConfig config;
    std::string error;
    if (!try_parse(spec, uf_threshold, &config, &error)) {
        throw std::invalid_argument(error);
    }
    return config;
}

bool
TierChainConfig::contains_stream() const
{
    for (const TierSpec &tier : tiers) {
        if (tier.kind == DecoderTier::Stream) {
            return true;
        }
    }
    return false;
}

std::string
TierChainConfig::describe() const
{
    std::string out;
    for (const TierSpec &tier : tiers) {
        if (!out.empty()) {
            out += '>';
        }
        out += decoder_tier_name(tier.kind);
        if (tier.escalation_threshold >= 0) {
            out += '(';
            out += std::to_string(tier.escalation_threshold);
            out += ')';
        }
    }
    return out;
}

TierChain::TierChain(const RotatedSurfaceCode &code, CheckType detector,
                     TierChainConfig config)
    : detector_(detector), config_(std::move(config))
{
    if (config_.tiers.empty()) {
        // A default-constructed TierChainConfig means "no opinion";
        // fall back to the paper's architecture (matching parse("")).
        config_ = TierChainConfig::legacy();
    }
    // A clean diagnostic beats a null decoder: the stream tier is the
    // sliding-window mode of kind=stream scenarios, never a batch
    // chain member (scenario validation rejects it earlier with the
    // same message for parsed specs).
    BTWC_CHECK_MSG(!config_.contains_stream(),
                   "tier 'stream' is only valid in kind=stream "
                   "scenarios (sliding-window decoding); it cannot be "
                   "a batch TierChain member");
    tiers_.reserve(config_.tiers.size());
    for (const TierSpec &tier : config_.tiers) {
        tiers_.push_back(make_tier_decoder(tier.kind, code, detector));
    }
    if (audit_deep()) {
        audit();
    }
}

void
TierChain::audit() const
{
    BTWC_CHECK_MSG(!tiers_.empty() &&
                       tiers_.size() == config_.tiers.size(),
                   "one constructed decoder per configured tier");
    bool seen_offchip = false;
    for (size_t i = 0; i < tiers_.size(); ++i) {
        BTWC_CHECK_MSG(tiers_[i] != nullptr, "every tier has a decoder");
        BTWC_CHECK_MSG(tiers_[i]->detector() == detector_,
                       "every tier decodes this chain's detector type");
        if (seen_offchip) {
            BTWC_CHECK_MSG(config_.tiers[i].offchip,
                           "escalation monotonicity: on-chip tiers form "
                           "a prefix, a signature never returns on-chip");
        }
        seen_offchip = seen_offchip || config_.tiers[i].offchip;
    }
}

TierChain::Result
TierChain::decode(const std::vector<DetectionEvent> &events, int rounds,
                  const Options &options) const
{
    if (events.empty()) {
        // Nothing fired: tier 0 resolves trivially and nothing leaves
        // the chip, regardless of where the chain's tiers live (and
        // regardless of stop_before_offchip).
        Result result;
        result.tier = config_.tiers[0].kind;
        result.decode = tiers_[0]->decode(events, rounds);
        result.resolved = true;
        return result;
    }
    return decode_from(0, events, rounds, options, 0);
}

TierChain::Result
TierChain::decode_from(size_t first_tier,
                       const std::vector<DetectionEvent> &events,
                       int rounds, const Options &options,
                       int base_effort) const
{
    Result result;
    int observed_effort = base_effort;
    const size_t last = tiers_.size() - 1;
    for (size_t i = first_tier; i <= last; ++i) {
        const TierSpec &spec = config_.tiers[i];
        result.tier_index = static_cast<int>(i);
        result.tier = spec.kind;
        result.offchip = spec.offchip;
        if (options.stop_before_offchip && spec.offchip) {
            // The caller substitutes an oracle for this tier -- or,
            // under the queued service, enqueues the signature and
            // later resumes here via decode_from / decode_batch_from.
            result.resolved = false;
            result.effort = observed_effort;
            result.decode.defects = static_cast<int>(events.size());
            return result;
        }
        Decoder::Result attempt = tiers_[i]->decode(events, rounds);
        if (attempt.effort > observed_effort) {
            observed_effort = attempt.effort;
        }
        const bool accept =
            attempt.resolved && (spec.escalation_threshold < 0 ||
                                 attempt.effort <= spec.escalation_threshold);
        if (accept || i == last) {
            result.resolved = attempt.resolved;
            result.effort = observed_effort;
            result.decode = std::move(attempt);
            return result;
        }
    }
    return result;  // unreachable; the final tier always returns
}

std::vector<TierChain::Result>
TierChain::decode_batch_from(
    size_t first_tier,
    const std::vector<std::vector<DetectionEvent>> &batch,
    int rounds) const
{
    const TierSpec &spec = config_.tiers[first_tier];
    const size_t last = tiers_.size() - 1;
    std::vector<Decoder::Result> attempts =
        tiers_[first_tier]->decode_batch(batch, rounds);
    std::vector<Result> results(batch.size());
    for (size_t b = 0; b < batch.size(); ++b) {
        Decoder::Result &attempt = attempts[b];
        const bool accept =
            attempt.resolved && (spec.escalation_threshold < 0 ||
                                 attempt.effort <= spec.escalation_threshold);
        if (accept || first_tier == last) {
            Result &result = results[b];
            result.tier_index = static_cast<int>(first_tier);
            result.tier = spec.kind;
            result.offchip = spec.offchip;
            result.resolved = attempt.resolved;
            result.effort = attempt.effort;
            result.decode = std::move(attempt);
        } else {
            // Rare: the batched tier declined or escalated on effort;
            // finish this entry through the deeper tiers per-item.
            results[b] = decode_from(first_tier + 1, batch[b], rounds,
                                     Options(), attempt.effort);
        }
    }
    return results;
}

TierChain::Result
TierChain::decode_syndrome(const std::vector<uint8_t> &syndrome,
                           const Options &options) const
{
    thread_owner_.assert_single_thread_owner();
    events_from_syndrome(syndrome, events_scratch_);
    return decode(events_scratch_, 1, options);
}

void
TierChain::decode_syndrome(const PackedSyndrome &syndrome,
                           const Options &options, Result &out) const
{
    thread_owner_.assert_single_thread_owner();
    out.effort = 0;
    out.offchip = false;
    out.resolved = true;
    if (syndrome.none()) {
        // Nothing fired: tier 0 resolves trivially without running
        // (mirrors the byte walk's empty-events short-circuit, minus
        // the tier-0 call — its result is fully determined). The
        // correction stays empty, see the header note.
        out.tier_index = 0;
        out.tier = config_.tiers[0].kind;
        out.decode.correction.clear();
        out.decode.weight = 0;
        out.decode.effort = 0;
        out.decode.resolved = true;
        out.decode.defects = 0;
        return;
    }
    int observed_effort = 0;
    const size_t last = tiers_.size() - 1;
    for (size_t i = 0; i <= last; ++i) {
        const TierSpec &spec = config_.tiers[i];
        out.tier_index = static_cast<int>(i);
        out.tier = spec.kind;
        out.offchip = spec.offchip;
        if (options.stop_before_offchip && spec.offchip) {
            out.resolved = false;
            out.effort = observed_effort;
            out.decode.correction.clear();
            out.decode.weight = 0;
            out.decode.effort = 0;
            out.decode.resolved = true;
            out.decode.defects = syndrome.popcount();
            if (audit_deep()) {
                audit_packed_result(syndrome, options, out);
            }
            return;
        }
        tiers_[i]->decode_packed(syndrome, attempt_scratch_);
        if (attempt_scratch_.effort > observed_effort) {
            observed_effort = attempt_scratch_.effort;
        }
        const bool accept =
            attempt_scratch_.resolved &&
            (spec.escalation_threshold < 0 ||
             attempt_scratch_.effort <= spec.escalation_threshold);
        if (accept || i == last) {
            out.resolved = attempt_scratch_.resolved;
            out.effort = observed_effort;
            std::swap(out.decode, attempt_scratch_);
            if (audit_deep()) {
                audit_packed_result(syndrome, options, out);
            }
            return;
        }
    }
}

void
TierChain::audit_packed_result(const PackedSyndrome &syndrome,
                               const Options &options,
                               const Result &out) const
{
    syndrome.audit();
    std::vector<uint8_t> bytes;
    syndrome.to_bytes(bytes);
    const Result reference = decode_syndrome(bytes, options);
    BTWC_CHECK_MSG(reference.tier_index == out.tier_index &&
                       reference.tier == out.tier &&
                       reference.offchip == out.offchip &&
                       reference.resolved == out.resolved &&
                       reference.effort == out.effort,
                   "packed walk reaches the byte walk's escalation "
                   "decision");
    BTWC_CHECK_MSG(reference.decode.weight == out.decode.weight &&
                       reference.decode.defects == out.decode.defects &&
                       reference.decode.effort == out.decode.effort &&
                       reference.decode.resolved == out.decode.resolved,
                   "packed decode result matches the byte-path decode "
                   "(pooled-Result scratch reuse leaked state "
                   "otherwise)");
    BTWC_CHECK_MSG(reference.decode.correction == out.decode.correction,
                   "packed correction mask is bit-exact with the "
                   "byte path");
}

} // namespace btwc
