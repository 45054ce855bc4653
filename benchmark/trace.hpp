#pragma once

#include <chrono>
#include <cstdint>
#include <vector>

namespace btwc_bench {

/**
 * Every span the replica harnesses record: one per call into a layer
 * (module) of the library, plus `Request` (one cycle / round / trial /
 * machine cycle, the parent of its layer spans), `Setup` (decoder and
 * lattice construction) and `Harness` (the loop's own bookkeeping, the
 * report harvest and teardown). The name prefix is the layer.
 */
enum class Span : uint8_t
{
    Request,
    Setup,
    Harness,
    // kind=lifetime (signature mode)
    SurfaceInject,
    SurfaceExtract,
    ChainOnchip,
    ChainEscalated,
    // kind=stream
    SurfaceNoise,
    StreamBuffer,
    WindowMatched,
    WindowScreened,
    WindowEmpty,
    StreamFlush,
    // kind=fabric
    TenantStep,
    LinkStep,
    Deliver,
    Probe,
    // kind=memory
    TrialSetup,
    NoiseByte,
    CliqueByte,
    SurfaceCheck,
    Events,
    MwpmTrial,
    Count,
};

constexpr int kNumSpans = static_cast<int>(Span::Count);

/** Dotted span name, "<layer>.<call>" ("surface.inject", ...). */
const char *span_name(Span span);

/**
 * Latency histogram over nanosecond durations: exact 1 ns bins below
 * 1024 ns, then 128 bins per octave (< 0.8% bin width), so memory is
 * bounded (~60 KiB) whatever the outliers. The samples of a bin are
 * taken as evenly spread across it (grouped-data quantiles), so a
 * percentile of integer-nanosecond samples is not stuck on an integer
 * or a bin edge.
 */
class LatencyHistogram
{
  public:
    void add(uint64_t ns);
    void merge(const LatencyHistogram &other);
    uint64_t count() const { return total_; }
    /** Linear interpolation between the ranks around fraction*(n-1). */
    double percentile(double fraction) const;

  private:
    /** Where the j-th smallest sample sits (0-based). */
    double position(uint64_t j) const;

    std::vector<uint64_t> counts_;
    uint64_t total_ = 0;
};

/** Per-span aggregate of a traced pass. */
struct SpanStats
{
    uint64_t calls = 0;
    uint64_t total_ns = 0;
    LatencyHistogram histogram;
};

/** One raw span of the bounded JSONL dump. */
struct RawSpan
{
    uint64_t id = 0;
    Span span = Span::Request;
    uint64_t request = 0;  ///< cycle / round / trial / machine cycle
    uint64_t start_ns = 0;
    uint64_t end_ns = 0;
    uint64_t parent = 0;  ///< id of the enclosing span (0 = segment)
};

/**
 * Span sink of the replica harnesses. `Latency` mode aggregates only
 * the spans flagged in `latency_spans` into one histogram (the
 * decode-latency pass); `Full` mode aggregates every span and keeps
 * the first `raw_cap` raw spans (the traced pass).
 */
class Tracer
{
  public:
    enum class Mode : uint8_t { Latency, Full };

    Tracer(Mode mode, uint32_t latency_spans, size_t raw_cap);

    uint64_t now() const
    {
        return static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - epoch_)
                .count());
    }

    uint64_t next_id() { return ++last_id_; }

    /** End of the most recently added span. */
    uint64_t last_end() const { return last_end_; }

    void add(Span span, uint64_t request, uint64_t start, uint64_t end,
             uint64_t id, uint64_t parent)
    {
        const uint64_t ns = end - start;
        last_end_ = end;
        if (mode_ == Mode::Latency) {
            if ((latency_spans_ >> static_cast<int>(span)) & 1u) {
                latency_.add(ns);
            }
            return;
        }
        SpanStats &stats = spans_[static_cast<int>(span)];
        ++stats.calls;
        stats.total_ns += ns;
        stats.histogram.add(ns);
        if (raw_.size() < raw_cap_) {
            raw_.push_back(RawSpan{id, span, request, start, end, parent});
        }
    }

    const LatencyHistogram &latency() const { return latency_; }
    const std::vector<SpanStats> &spans() const { return spans_; }
    const std::vector<RawSpan> &raw() const { return raw_; }

  private:
    Mode mode_;
    uint32_t latency_spans_;
    size_t raw_cap_;
    std::chrono::steady_clock::time_point epoch_;
    uint64_t last_id_ = 0;
    uint64_t last_end_ = 0;
    LatencyHistogram latency_;
    std::vector<SpanStats> spans_;
    std::vector<RawSpan> raw_;
};

/**
 * The spans of one request, laid end to end: each `mark(span)` closes
 * the interval since the previous mark, so consecutive calls share
 * one clock read per boundary. `close()` records the request span
 * around all of them.
 */
class Lap
{
  public:
    Lap(Tracer &tracer, uint64_t request)
        : tracer_(tracer), request_(request), id_(tracer.next_id()),
          start_(tracer.now()), last_(start_)
    {
    }

    void mark(Span span)
    {
        const uint64_t t = tracer_.now();
        tracer_.add(span, request_, last_, t, tracer_.next_id(), id_);
        last_ = t;
    }

    /** Close the interval now and attribute it later (after reading
     * which kind of call just ran). */
    void stop() { stopped_ = tracer_.now(); }

    void attribute(Span span)
    {
        tracer_.add(span, request_, last_, stopped_, tracer_.next_id(),
                    id_);
        last_ = stopped_;
    }

    void close()
    {
        tracer_.add(Span::Request, request_, start_, last_, id_, 0);
    }

  private:
    Tracer &tracer_;
    uint64_t request_;
    uint64_t id_;
    uint64_t start_;
    uint64_t last_;
    uint64_t stopped_ = 0;
};

} // namespace btwc_bench
