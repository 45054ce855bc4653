#include "trace.hpp"

namespace btwc_bench {

namespace {

constexpr uint64_t kLinear = 1024;  ///< exact 1 ns bins below this
constexpr int kSubBits = 7;         ///< 2^7 bins per octave above it
constexpr int kLinearBits = 10;     ///< log2(kLinear)
constexpr size_t kBins =
    kLinear + (64 - kLinearBits) * (size_t{1} << kSubBits);

size_t
bin_of(uint64_t ns)
{
    if (ns < kLinear) {
        return static_cast<size_t>(ns);
    }
    const int octave = 63 - __builtin_clzll(ns);
    return kLinear +
           static_cast<size_t>(octave - kLinearBits) * (1u << kSubBits) +
           ((ns >> (octave - kSubBits)) & ((1u << kSubBits) - 1));
}

/** [lower, lower + width) of bin `bin`. */
void
bin_range(size_t bin, double *lower, double *width)
{
    if (bin < kLinear) {
        *lower = static_cast<double>(bin);
        *width = 1.0;
        return;
    }
    const size_t rel = bin - kLinear;
    const int octave = kLinearBits + static_cast<int>(rel >> kSubBits);
    const uint64_t sub = rel & ((1u << kSubBits) - 1);
    const double step =
        static_cast<double>(uint64_t{1} << (octave - kSubBits));
    *lower = static_cast<double>(uint64_t{1} << octave) +
             static_cast<double>(sub) * step;
    *width = step;
}

} // namespace

const char *
span_name(Span span)
{
    switch (span) {
      case Span::Request: return "sim.request";
      case Span::Setup: return "sim.setup";
      case Span::Harness: return "sim.harness";
      case Span::SurfaceInject: return "surface.inject";
      case Span::SurfaceExtract: return "surface.extract";
      case Span::ChainOnchip: return "decoders.chain_onchip";
      case Span::ChainEscalated: return "decoders.chain_escalated";
      case Span::SurfaceNoise: return "surface.noise";
      case Span::StreamBuffer: return "decoders.stream_buffer";
      case Span::WindowMatched: return "matching.window_matched";
      case Span::WindowScreened: return "matching.window_screened";
      case Span::WindowEmpty: return "decoders.window_empty";
      case Span::StreamFlush: return "decoders.stream_flush";
      case Span::TenantStep: return "core.tenant_step";
      case Span::LinkStep: return "fabric.link_step";
      case Span::Deliver: return "fabric.deliver";
      case Span::Probe: return "fabric.probe";
      case Span::TrialSetup: return "sim.trial_setup";
      case Span::NoiseByte: return "surface.noise_byte";
      case Span::CliqueByte: return "core.clique_byte";
      case Span::SurfaceCheck: return "surface.check";
      case Span::Events: return "sim.events";
      case Span::MwpmTrial: return "matching.mwpm_trial";
      case Span::Count: break;
    }
    return "?";
}

void
LatencyHistogram::add(uint64_t ns)
{
    if (counts_.empty()) {
        counts_.assign(kBins, 0);
    }
    ++counts_[bin_of(ns)];
    ++total_;
}

void
LatencyHistogram::merge(const LatencyHistogram &other)
{
    if (other.counts_.empty()) {
        return;
    }
    if (counts_.empty()) {
        counts_.assign(kBins, 0);
    }
    for (size_t i = 0; i < kBins; ++i) {
        counts_[i] += other.counts_[i];
    }
    total_ += other.total_;
}

double
LatencyHistogram::position(uint64_t j) const
{
    uint64_t below = 0;
    for (size_t i = 0; i < counts_.size(); ++i) {
        if (below + counts_[i] > j) {
            double lower = 0.0;
            double width = 0.0;
            bin_range(i, &lower, &width);
            return lower + width * (static_cast<double>(j - below) + 0.5) /
                               static_cast<double>(counts_[i]);
        }
        below += counts_[i];
    }
    return 0.0;
}

double
LatencyHistogram::percentile(double fraction) const
{
    if (total_ == 0) {
        return 0.0;
    }
    const double x = fraction * static_cast<double>(total_ - 1);
    const uint64_t lo = static_cast<uint64_t>(x);
    const double at_lo = position(lo);
    if (lo + 1 >= total_) {
        return at_lo;
    }
    return at_lo + (x - static_cast<double>(lo)) * (position(lo + 1) - at_lo);
}

Tracer::Tracer(Mode mode, uint32_t latency_spans, size_t raw_cap)
    : mode_(mode), latency_spans_(latency_spans), raw_cap_(raw_cap),
      epoch_(std::chrono::steady_clock::now()),
      spans_(static_cast<size_t>(kNumSpans))
{
    raw_.reserve(raw_cap_);
}

} // namespace btwc_bench
