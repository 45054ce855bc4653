#include "decoders/lookup_table.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "decoders/exact_decoder.hpp"

namespace btwc {

LookupTableDecoder::LookupTableDecoder(const RotatedSurfaceCode &code,
                                       CheckType detector)
    : code_(code), detector_(detector),
      num_checks_(code.num_checks(detector)), num_data_(code.num_data())
{
    if (num_checks_ > kMaxTableChecks) {
        return;  // too large to tabulate; decode() declines everything
    }
    const size_t entries = size_t(1) << num_checks_;
    corrections_.assign(entries * static_cast<size_t>(num_data_), 0);
    weights_.assign(entries, 0);

    // One exact decode per syndrome. The oracle-backed exact matcher
    // makes this cheap (a few milliseconds at d = 5); the table is
    // exact because its teacher is.
    const ExactDecoder teacher(code, detector);
    PackedSyndrome syndrome(num_checks_);
    Result fix;
    for (size_t s = 0; s < entries; ++s) {
        // The table index is the syndrome's one word, the same word
        // decode_packed reads back.
        syndrome.data()[0] = static_cast<uint64_t>(s);
        teacher.decode_packed(syndrome, fix);
        BTWC_CHECK(fix.resolved);
        std::copy(fix.correction.begin(), fix.correction.end(),
                  corrections_.begin() + s * static_cast<size_t>(num_data_));
        weights_[s] = fix.weight;
    }
}

LookupTableDecoder::Result
LookupTableDecoder::decode(const std::vector<DetectionEvent> &events,
                           int rounds) const
{
    Result result;
    result.correction.assign(static_cast<size_t>(num_data_), 0);
    result.defects = static_cast<int>(events.size());
    if (events.empty()) {
        return result;
    }
    // The table indexes single-round syndromes only; decline
    // multi-round windows (time-like pairings are not tabulated) and
    // codes too large to tabulate, so the chain escalates.
    if (!available() || rounds != 1) {
        result.resolved = false;
        return result;
    }
    size_t index = 0;
    for (const DetectionEvent &event : events) {
        BTWC_AUDIT(event.round == 0);
        BTWC_AUDIT(event.check >= 0 && event.check < num_checks_);
        index |= size_t(1) << event.check;
    }
    const uint8_t *entry =
        &corrections_[index * static_cast<size_t>(num_data_)];
    std::copy(entry, entry + num_data_, result.correction.begin());
    result.weight = weights_[index];
    return result;
}

void
LookupTableDecoder::decode_packed(const PackedSyndrome &syndrome,
                                  Result &out) const
{
    out.correction.assign(static_cast<size_t>(num_data_), 0);
    out.weight = 0;
    out.effort = 0;
    out.resolved = true;
    out.defects = syndrome.popcount();
    if (out.defects == 0) {
        return;
    }
    if (!available()) {
        out.resolved = false;
        return;
    }
    // num_checks_ <= kMaxTableChecks <= 64: the whole syndrome lives
    // in word 0, already in table-index bit order.
    const size_t index = static_cast<size_t>(syndrome.word(0));
    const uint8_t *entry =
        &corrections_[index * static_cast<size_t>(num_data_)];
    std::copy(entry, entry + num_data_, out.correction.begin());
    out.weight = weights_[index];
}

} // namespace btwc
