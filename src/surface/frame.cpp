#include "surface/frame.hpp"

namespace btwc {

ErrorFrame::ErrorFrame(const RotatedSurfaceCode &code, CheckType error_type)
    : code_(code), error_type_(error_type),
      detector_(detector_of_error(error_type)),
      error_(code.num_data()),
      syndrome_(code.num_checks(detector_)),
      data_walk_(0.0, static_cast<uint64_t>(error_.size())),
      meas_walk_(0.0, static_cast<uint64_t>(syndrome_.size()))
{
}

const GapSampler &
ErrorFrame::walk(GapSampler &cache, double p)
{
    if (p != cache.p()) {
        cache = GapSampler(p, cache.width());
    }
    return cache;
}

void
ErrorFrame::flip(int data)
{
    error_.flip(data);
    for (const int check : code_.checks_of_data(detector_, data)) {
        syndrome_.flip(check);
    }
}

void
ErrorFrame::reset()
{
    error_.clear();
    syndrome_.clear();
}

void
ErrorFrame::inject(double p, Rng &rng)
{
    walk(data_walk_, p).for_each_hit(
        rng, [this](uint64_t data) { flip(static_cast<int>(data)); });
}

void
ErrorFrame::apply(const std::vector<int> &corrections)
{
    for (const int data : corrections) {
        flip(data);
    }
}

void
ErrorFrame::apply_mask(const PackedBits &mask)
{
    BTWC_CHECK_MSG(mask.size() == error_.size(),
                   "a correction mask has one bit per data qubit");
    mask.for_each_set([this](int data) { flip(data); });
}

void
ErrorFrame::measure(double p_meas, Rng &rng, std::vector<uint8_t> &out) const
{
    syndrome_.to_bytes(out);
    walk(meas_walk_, p_meas).for_each_hit(
        rng, [&out](uint64_t check) { out[check] ^= 1; });
}

void
ErrorFrame::measure_packed(double p_meas, Rng &rng,
                           PackedSyndrome &out) const
{
    // The noiseless syndrome is maintained by the mutators; copying it
    // reuses out's capacity once it has the check width.
    out = syndrome_;
    // The byte path's walk on the same sampler (and therefore the same
    // RNG stream): Monte-Carlo runs stay bit-exact.
    walk(meas_walk_, p_meas).for_each_hit(
        rng, [&out](uint64_t check) { out.flip(static_cast<int>(check)); });
}

void
ErrorFrame::measure_perfect(std::vector<uint8_t> &out) const
{
    syndrome_.to_bytes(out);
}

void
ErrorFrame::audit() const
{
    error_.audit();
    syndrome_.audit();
    BTWC_CHECK_MSG(error_.size() == code_.num_data(),
                   "the error has one bit per data qubit");
    PackedSyndrome want;
    code_.syndrome_of(detector_, error_, want);
    BTWC_CHECK_MSG(want == syndrome_,
                   "stored syndrome must equal the syndrome of the "
                   "current error");
}

int
ErrorFrame::weight() const
{
    return error_.popcount();
}

bool
ErrorFrame::logical_flipped() const
{
    return code_.logical_flipped(error_type_, error_);
}

} // namespace btwc
