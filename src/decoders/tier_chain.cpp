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

template <bool EventPath>
void
TierChain::walk(const PackedSyndrome &syndrome, const Options &options,
                size_t first_tier, int effort, Result &out) const
{
    out.offchip = false;
    out.resolved = true;
    if (syndrome.none()) {
        // Nothing fired: tier 0 resolves trivially without running
        // (its result is fully determined) and nothing leaves the
        // chip, regardless of stop_before_offchip. The correction
        // has zero width, see the header note.
        out.tier_index = 0;
        out.tier = config_.tiers[0].kind;
        out.effort = 0;
        out.decode.correction.resize(0);
        out.decode.weight = 0;
        out.decode.effort = 0;
        out.decode.resolved = true;
        out.decode.defects = 0;
        return;
    }
    if constexpr (EventPath) {
        events_from_packed(syndrome, events_scratch_);
    }
    const size_t last = tiers_.size() - 1;
    for (size_t i = first_tier; i <= last; ++i) {
        const TierSpec &spec = config_.tiers[i];
        out.tier_index = static_cast<int>(i);
        out.tier = spec.kind;
        out.offchip = spec.offchip;
        if (options.stop_before_offchip && spec.offchip) {
            // The caller substitutes an oracle for this tier -- or, on
            // the off-chip link, enqueues the syndrome and later
            // resumes the walk here (first_tier = this tier_index).
            out.resolved = false;
            out.effort = effort;
            out.decode.correction.resize(0);
            out.decode.weight = 0;
            out.decode.effort = 0;
            out.decode.resolved = true;
            out.decode.defects = syndrome.popcount();
            return;
        }
        if constexpr (EventPath) {
            tiers_[i]->decode(events_scratch_, 1, attempt_scratch_);
        } else {
            tiers_[i]->decode_packed(syndrome, attempt_scratch_);
        }
        if (attempt_scratch_.effort > effort) {
            effort = attempt_scratch_.effort;
        }
        const bool accept =
            attempt_scratch_.resolved &&
            (spec.escalation_threshold < 0 ||
             attempt_scratch_.effort <= spec.escalation_threshold);
        if (accept || i == last) {
            out.resolved = attempt_scratch_.resolved;
            out.effort = effort;
            std::swap(out.decode, attempt_scratch_);
            return;
        }
    }
}

void
TierChain::decode_syndrome(const PackedSyndrome &syndrome,
                           const Options &options, Result &out,
                           size_t first_tier) const
{
    thread_owner_.assert_single_thread_owner();
    BTWC_DCHECK(first_tier < tiers_.size());
    const int base_effort = first_tier > 0 ? out.effort : 0;
    walk<false>(syndrome, options, first_tier, base_effort, out);
    // A walk with nothing fired ran no tier: nothing to re-derive.
    if (out.decode.defects == 0 || !audit_deep()) {
        return;
    }
    syndrome.audit();
    Result reference;
    walk<true>(syndrome, options, first_tier, base_effort, reference);
    BTWC_CHECK_MSG(reference.tier_index == out.tier_index &&
                       reference.tier == out.tier &&
                       reference.offchip == out.offchip &&
                       reference.resolved == out.resolved &&
                       reference.effort == out.effort,
                   "the packed walk reaches the event-path walk's "
                   "escalation decision");
    BTWC_CHECK_MSG(reference.decode.weight == out.decode.weight &&
                       reference.decode.defects == out.decode.defects &&
                       reference.decode.effort == out.decode.effort &&
                       reference.decode.resolved == out.decode.resolved,
                   "packed decode result matches the event-path decode "
                   "(pooled-Result scratch reuse leaked state "
                   "otherwise)");
    BTWC_CHECK_MSG(reference.decode.correction == out.decode.correction,
                   "packed correction mask is bit-exact with the "
                   "event path");
}

} // namespace btwc
