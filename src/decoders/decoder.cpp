#include "decoders/decoder.hpp"

namespace btwc {

void
events_from_packed(const PackedSyndrome &syndrome,
                   std::vector<DetectionEvent> &out)
{
    out.clear();
    syndrome.for_each_set(
        [&out](int c) { out.push_back(DetectionEvent{c, 0}); });
}

void
Decoder::decode_packed(const PackedSyndrome &syndrome, Result &out) const
{
    thread_owner_.assert_single_thread_owner();
    events_from_packed(syndrome, events_scratch_);
    decode(events_scratch_, 1, out);
}

} // namespace btwc
