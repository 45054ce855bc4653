#include "decoders/lookup_table.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "decoders/exact_decoder.hpp"

namespace btwc {

LookupTableDecoder::LookupTableDecoder(const RotatedSurfaceCode &code,
                                       CheckType detector)
    : code_(code), detector_(detector),
      num_checks_(code.num_checks(detector)), num_data_(code.num_data()),
      words_(packed_words(code.num_data()))
{
    if (num_checks_ > kMaxTableChecks) {
        return;  // too large to tabulate; decode() declines everything
    }
    const size_t entries = size_t(1) << num_checks_;
    const size_t words = static_cast<size_t>(words_);
    corrections_.assign(entries * words, 0);
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
        std::copy(fix.correction.data(), fix.correction.data() + words,
                  corrections_.begin() + static_cast<long>(s * words));
        weights_[s] = fix.weight;
    }
}

void
LookupTableDecoder::clear_result(Result &out, int defects) const
{
    out.correction.reset(num_data_);
    out.weight = 0;
    out.effort = 0;
    out.resolved = true;
    out.defects = defects;
}

void
LookupTableDecoder::load_entry(size_t index, Result &out) const
{
    const uint64_t *entry =
        &corrections_[index * static_cast<size_t>(words_)];
    std::copy(entry, entry + words_, out.correction.data());
    out.weight = weights_[index];
}

void
LookupTableDecoder::decode(const std::vector<DetectionEvent> &events,
                           int rounds, Result &out) const
{
    clear_result(out, static_cast<int>(events.size()));
    if (events.empty()) {
        return;
    }
    // The table indexes single-round syndromes only; decline
    // multi-round windows (time-like pairings are not tabulated) and
    // codes too large to tabulate, so the chain escalates.
    if (!available() || rounds != 1) {
        out.resolved = false;
        return;
    }
    size_t index = 0;
    for (const DetectionEvent &event : events) {
        BTWC_AUDIT(event.round == 0);
        BTWC_AUDIT(event.check >= 0 && event.check < num_checks_);
        index |= size_t(1) << event.check;
    }
    load_entry(index, out);
}

void
LookupTableDecoder::decode_packed(const PackedSyndrome &syndrome,
                                  Result &out) const
{
    clear_result(out, syndrome.popcount());
    if (out.defects == 0) {
        return;
    }
    if (!available()) {
        out.resolved = false;
        return;
    }
    // num_checks_ <= kMaxTableChecks <= 64: the whole syndrome lives
    // in word 0, already in table-index bit order.
    load_entry(static_cast<size_t>(syndrome.word(0)), out);
}

} // namespace btwc
