#include "decoders/clique_tier.hpp"

#include <cstddef>

namespace btwc {

void
CliqueTierDecoder::decode(const std::vector<DetectionEvent> &events,
                          int rounds, Result &out) const
{
    out.correction.reset(code_.num_data());
    out.weight = 0;
    out.effort = 0;
    out.resolved = true;
    out.defects = static_cast<int>(events.size());
    if (events.empty()) {
        return;  // nothing fired: resolved, nothing to do
    }
    if (rounds != 1) {
        // Combinational logic sees one (filtered) round at a time.
        out.resolved = false;
        return;
    }

    // The byte Clique path: the deep audit's independent reference
    // for the packed override below.
    syndrome_scratch_.assign(
        static_cast<size_t>(code_.num_checks(detector())), 0);
    for (const DetectionEvent &ev : events) {
        syndrome_scratch_[ev.check] ^= 1;
    }
    clique_.decode(syndrome_scratch_, outcome_scratch_);
    if (outcome_scratch_.verdict == CliqueVerdict::Complex) {
        out.resolved = false;
        return;
    }
    for (const int q : outcome_scratch_.corrections) {
        out.correction.flip(q);
        ++out.weight;
    }
}

void
CliqueTierDecoder::decode_packed(const PackedSyndrome &syndrome,
                                 Result &out) const
{
    out.weight = 0;
    out.effort = 0;
    out.resolved = true;
    out.defects = syndrome.popcount();
    if (out.defects == 0) {
        out.correction.reset(code_.num_data());
        return;  // nothing fired: resolved, nothing to do
    }
    // Writes (or, on Complex, clears) the full-width mask.
    if (clique_.decode_packed(syndrome, out.correction) ==
        CliqueVerdict::Complex) {
        out.resolved = false;
        return;
    }
    // Clique sets each corrected qubit once: the weight is the mask's
    // popcount.
    out.weight = out.correction.popcount();
}

} // namespace btwc
