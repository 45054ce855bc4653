#include "fabric/probe.hpp"

#include "common/check.hpp"

namespace btwc {

LogicalFailureProbe::LogicalFailureProbe(const RotatedSurfaceCode &code)
{
    const CheckType error_types[2] = {CheckType::X, CheckType::Z};
    decoders_.reserve(2);
    for (const CheckType err : error_types) {
        decoders_.push_back(
            std::make_unique<MwpmDecoder>(code, detector_of_error(err)));
    }
}

bool
LogicalFailureProbe::logical_parity(const ErrorFrame &frame)
{
    if (frame.syndrome_clear()) {
        return frame.logical_flipped();
    }
    const MwpmDecoder &decoder =
        *decoders_[static_cast<size_t>(frame.error_type())];
    decoder.decode_packed(frame.syndrome(), result_);
    // By linearity the residual error + correction is syndrome-clear
    // iff the correction reproduces the frame's syndrome, and its
    // logical parity is the XOR of the two parities.
    const RotatedSurfaceCode &code = frame.code();
    code.syndrome_of(frame.detector(), result_.correction,
                     correction_syndrome_);
    BTWC_CHECK_MSG(correction_syndrome_ == frame.syndrome(),
                   "an MWPM correction clears the probed syndrome "
                   "(every defect is matched)");
    return frame.logical_flipped() !=
           code.logical_flipped(frame.error_type(), result_.correction);
}

} // namespace btwc
