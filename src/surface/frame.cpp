#include "surface/frame.hpp"

namespace btwc {

ErrorFrame::ErrorFrame(const RotatedSurfaceCode &code, CheckType error_type)
    : code_(code), error_type_(error_type),
      detector_(detector_of_error(error_type)),
      err_(static_cast<size_t>(code.num_data()), 0),
      packed_(code.num_data()),
      syndrome_(code.num_checks(detector_))
{
}

void
ErrorFrame::flip(int data)
{
    err_[data] ^= 1;
    packed_.flip(data);
    for (const int check : code_.checks_of_data(detector_, data)) {
        syndrome_.flip(check);
    }
}

void
ErrorFrame::reset()
{
    std::fill(err_.begin(), err_.end(), 0);
    packed_.clear();
    syndrome_.clear();
}

void
ErrorFrame::inject(double p, Rng &rng)
{
    if (p <= 0.0) {
        return;
    }
    const uint64_t n = err_.size();
    uint64_t i = rng.geometric(p);
    while (i < n) {
        flip(static_cast<int>(i));
        const uint64_t gap = rng.geometric(p);
        if (gap >= n - i) {
            break;
        }
        i += gap + 1;
    }
}

void
ErrorFrame::apply(const std::vector<int> &corrections)
{
    for (const int data : corrections) {
        flip(data);
    }
}

void
ErrorFrame::apply_mask(const std::vector<uint8_t> &mask)
{
    for (size_t i = 0; i < err_.size(); ++i) {
        if (mask[i] & 1) {
            flip(static_cast<int>(i));
        }
    }
}

void
ErrorFrame::apply_packed(const PackedBits &mask)
{
    mask.for_each_set([this](int data) { flip(data); });
}

void
ErrorFrame::measure(double p_meas, Rng &rng, std::vector<uint8_t> &out) const
{
    syndrome_.to_bytes(out);
    if (p_meas <= 0.0) {
        return;
    }
    const uint64_t n = out.size();
    uint64_t i = rng.geometric(p_meas);
    while (i < n) {
        out[i] ^= 1;
        const uint64_t gap = rng.geometric(p_meas);
        if (gap >= n - i) {
            break;
        }
        i += gap + 1;
    }
}

void
ErrorFrame::measure_packed(double p_meas, Rng &rng,
                           PackedSyndrome &out) const
{
    // The noiseless syndrome is maintained by the mutators; copying it
    // reuses out's capacity once it has the check width.
    out = syndrome_;
    if (p_meas <= 0.0) {
        return;
    }
    // Identical geometric gap-skipping walk (and therefore identical
    // RNG stream) as the byte path: Monte-Carlo runs stay bit-exact.
    const uint64_t n = static_cast<uint64_t>(out.size());
    uint64_t i = rng.geometric(p_meas);
    while (i < n) {
        out.flip(static_cast<int>(i));
        const uint64_t gap = rng.geometric(p_meas);
        if (gap >= n - i) {
            break;
        }
        i += gap + 1;
    }
}

void
ErrorFrame::measure_perfect(std::vector<uint8_t> &out) const
{
    syndrome_.to_bytes(out);
}

void
ErrorFrame::audit() const
{
    packed_.audit();
    syndrome_.audit();
    PackedBits mirror;
    mirror.from_bytes(err_);
    BTWC_CHECK_MSG(mirror == packed_,
                   "packed error mirror must equal the byte error");
    std::vector<uint8_t> want;
    code_.syndrome_of(detector_, err_, want);
    PackedSyndrome want_packed;
    want_packed.from_bytes(want);
    BTWC_CHECK_MSG(want_packed == syndrome_,
                   "stored syndrome must equal the syndrome of the "
                   "current error");
}

int
ErrorFrame::weight() const
{
    return packed_.popcount();
}

bool
ErrorFrame::logical_flipped() const
{
    return code_.logical_flipped(error_type_, err_);
}

} // namespace btwc
