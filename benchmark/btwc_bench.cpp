/**
 * btwc_bench — the repository benchmark (benchmark/README.md).
 *
 *   btwc_bench --config benchmark/workloads.json --benchmark BENCHMARK.json
 *              [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
 *              [--json PATH] [--spans PATH] [--smoke] [--rev SHA]
 *   btwc_bench --compare A.json B.json [--benchmark BENCHMARK.json]
 *
 * Each workload (benchmark/workloads.json) first runs once at its
 * reference volume, which gives the simulated metrics, then measures
 * on one thread, for --seconds per pass:
 *
 *   end to end (--trace 0)  rounds of a set-up call (`run_scenario` at
 *                           volume 1), an untraced `run_scenario`
 *                           segment (ns per qubit cycle) and a
 *                           decode-latency segment (a replica of the
 *                           harness loop that times only the decode
 *                           call);
 *   traced (--trace 1)      rounds of an untraced segment and a replica
 *                           segment with a span around every layer call.
 *
 * Segment k runs the input of seed --seed * 32 + k % 32. Every run of
 * one input — by `run_scenario` or a replica — must give the same
 * `metrics` subtree, and the harness invariants must hold; a failed
 * check names the workload and the first differing key and makes the
 * exit status 1. With --workload the last stdout line is one JSON
 * object {correct, attempted, failed, metrics} holding the
 * BENCHMARK.json end_to_end metrics (--trace 0), its per_layer metrics
 * (--trace 1), or both.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "api/json_input.hpp"
#include "api/report.hpp"
#include "api/run.hpp"
#include "api/scenario.hpp"
#include "common/check.hpp"
#include "common/flags.hpp"
#include "common/table.hpp"
#include "replica.hpp"
#include "trace.hpp"

#ifndef BTWC_BENCH_BUILD_TYPE
#define BTWC_BENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace btwc;
using namespace btwc_bench;

constexpr uint64_t kMinSegments = 3;
constexpr uint64_t kSegmentSeeds = 32;
constexpr size_t kRawSpanCap = 10000;
constexpr uint64_t kSmokeDivisor = 100;

// ------------------------------------------------------------ metrics

/** A metric btwc_bench can produce: its unit and direction. */
struct MetricInfo
{
    std::string name;
    std::string unit;
    std::string better;  ///< "lower" | "higher"
};

/**
 * Every metric name btwc_bench emits. The end-to-end and simulated
 * rows are fixed; one `<span>_ns` row per span follows (host ns per
 * call in the traced pass: per-segment means, then `host_time`).
 */
const std::vector<MetricInfo> &
known_metrics()
{
    static const std::vector<MetricInfo> metrics = [] {
        std::vector<MetricInfo> m = {
            {"ns_per_qubit_cycle", "ns", "lower"},
            {"decode_latency_p50_ns", "ns", "lower"},
            {"decode_latency_p99_ns", "ns", "lower"},
            {"escalation_fraction", "fraction", "lower"},
            {"setup_s", "s", "lower"},
            {"offchip_fraction", "fraction", "lower"},
            {"failed_fraction", "fraction", "lower"},
            {"p99_queue_delay_cycles", "cycles", "lower"},
            {"exec_time_increase", "ratio", "lower"},
            {"probe_failure_rate", "fraction", "lower"},
            {"ler", "fraction", "lower"},
            {"decoders.escalated_halves", "count", "lower"},
            {"matching.matched_windows", "count", "lower"},
            {"matching.screen_absorb_ratio", "fraction", "higher"},
            {"matching.window_defects_mean", "count", "lower"},
            {"fabric.served", "count", "higher"},
            {"fabric.link_utilization", "fraction", "higher"},
            {"fabric.mean_queue_delay_cycles", "cycles", "lower"},
            {"fabric.suppressed", "count", "lower"},
            {"core.complex_rounds", "count", "lower"},
            {"matching.trial_defects_mean", "count", "lower"},
            {"trace.coverage", "fraction", "higher"},
            {"trace.overhead", "fraction", "lower"},
        };
        for (int s = 0; s < kNumSpans; ++s) {
            const Span span = static_cast<Span>(s);
            if (span != Span::Request) {
                m.push_back({std::string(span_name(span)) + "_ns", "ns",
                             "lower"});
            }
        }
        return m;
    }();
    return metrics;
}

const MetricInfo *
find_metric(const std::string &name)
{
    for (const MetricInfo &m : known_metrics()) {
        if (m.name == name) {
            return &m;
        }
    }
    return nullptr;
}

/** One measured metric of a workload. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::vector<double> samples;  ///< per segment / call / set-up call
    uint64_t count = 0;           ///< sample count as printed
    /** Simulated: a function of (spec, seed) alone, so two runs at the
     * same seed must agree exactly. */
    bool exact = false;
};

/**
 * Quantile q of a sample by the "exclusive" method of Python's
 * statistics.quantiles (so q = 0.5 is statistics.median).
 */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty()) {
        return 0.0;
    }
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() + 1) - 1.0;
    if (pos <= 0.0) {
        return v.front();
    }
    if (pos >= static_cast<double>(v.size() - 1)) {
        return v.back();
    }
    const size_t lo = static_cast<size_t>(pos);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[lo + 1] - v[lo]);
}

/** Interquartile range over the median. */
double
relative_iqr(const std::vector<double> &v)
{
    const double mid = quantile(v, 0.5);
    return v.size() < 2 || mid == 0.0
               ? 0.0
               : (quantile(v, 0.75) - quantile(v, 0.25)) / mid;
}

/**
 * The value a host-time metric reports: the lower quartile of its
 * per-segment samples. Neighbours on a shared host slow whole
 * stretches of seconds by up to ~55%; the lower quartile moves only
 * when such a stretch covers three quarters of the run, where the
 * median moves at one half (benchmark/README.md, "Noise").
 */
double
host_time(const std::vector<double> &samples)
{
    return quantile(samples, 0.25);
}

// ------------------------------------------------------------ config

struct MetricDef
{
    std::string name;
    std::string unit;
    std::string better;
    double bound = -1.0;  ///< end_to_end only
};

/** The parts of BENCHMARK.json btwc_bench uses. */
struct BenchmarkFile
{
    std::vector<std::string> workloads;
    std::vector<MetricDef> end_to_end;
    std::vector<MetricDef> per_layer;
};

struct Workload
{
    std::string name;
    ScenarioSpec spec;  ///< at the reference volume
    uint64_t segment = 0;  ///< cycles / rounds / trials per timed segment
};

[[noreturn]] void
config_error(const std::string &what)
{
    throw std::runtime_error(what);
}

const JsonValue &
member(const JsonValue &object, const std::string &key,
       const std::string &where)
{
    const JsonValue *value = object.find(key);
    if (value == nullptr) {
        config_error(where + ": missing \"" + key + "\"");
    }
    return *value;
}

JsonValue
parse_json_file(const std::string &path)
{
    JsonValue root;
    std::string error;
    if (!json_parse_file(path, &root, &error)) {
        config_error(path + ": " + error);
    }
    return root;
}

std::vector<MetricDef>
metric_list(const JsonValue &root, const std::string &key,
            const std::string &path, bool with_bound)
{
    std::vector<MetricDef> out;
    for (const JsonValue &entry : member(root, key, path).array) {
        MetricDef def;
        def.name = member(entry, "name", path).s;
        def.unit = member(entry, "unit", path).s;
        def.better = member(entry, "better", path).s;
        if (with_bound) {
            def.bound = member(entry, "bound", path).number;
        }
        const MetricInfo *info = find_metric(def.name);
        if (info == nullptr) {
            config_error(path + ": " + key + " metric \"" + def.name +
                         "\" is not produced by btwc_bench");
        }
        if (info->unit != def.unit || info->better != def.better) {
            config_error(path + ": metric \"" + def.name + "\" is " +
                         info->unit + "/" + info->better +
                         " in btwc_bench, not " + def.unit + "/" +
                         def.better);
        }
        out.push_back(def);
    }
    return out;
}

BenchmarkFile
load_benchmark(const std::string &path)
{
    const JsonValue root = parse_json_file(path);
    BenchmarkFile bench;
    for (const JsonValue &entry : member(root, "workloads", path).array) {
        bench.workloads.push_back(member(entry, "name", path).s);
    }
    bench.end_to_end = metric_list(root, "end_to_end", path, true);
    bench.per_layer = metric_list(root, "per_layer", path, false);
    return bench;
}

uint64_t &
volume_of(ScenarioSpec &spec)
{
    return spec.kind == ScenarioKind::Memory ? spec.engine.trials
                                             : spec.engine.cycles;
}

std::vector<Workload>
load_workloads(const std::string &path, const BenchmarkFile &bench)
{
    const JsonValue root = parse_json_file(path);
    std::vector<Workload> out;
    for (const JsonValue &entry : member(root, "workloads", path).array) {
        Workload w;
        w.name = member(entry, "name", path).s;
        std::string error;
        if (!ScenarioSpec::try_parse(member(entry, "spec", path).s, &w.spec,
                                     &error)) {
            config_error(path + ": workload " + w.name + ": " + error);
        }
        // Measurement hygiene: one thread, audits off, whatever the
        // spec says.
        w.spec.engine.threads = 1;
        w.spec.engine.audit = static_cast<int>(AuditLevel::Off);
        const std::string why = replica_unsupported(w.spec);
        if (!why.empty()) {
            config_error(path + ": workload " + w.name + ": " + why);
        }
        const JsonValue &segment = member(entry, "segment", path);
        if (volume_of(w.spec) == 0 || !segment.is_integer_token() ||
            segment.number < 1) {
            config_error(path + ": workload " + w.name +
                         " must set its volume (cycles= or trials=) "
                         "and a positive integer segment volume");
        }
        w.segment = static_cast<uint64_t>(segment.number);
        out.push_back(std::move(w));
    }
    std::vector<std::string> names;
    for (const Workload &w : out) {
        names.push_back(w.name);
    }
    if (names != bench.workloads) {
        config_error(path + ": workload names differ from the "
                            "benchmark file's");
    }
    return out;
}

// ------------------------------------------------------------ passes

Report
metrics_of(Report &&report)
{
    return std::move(report.child("metrics"));
}

double
num(const Report &metrics, const std::string &path)
{
    double v = 0.0;
    if (!metrics.lookup_double(path, &v)) {
        throw std::runtime_error("metrics has no number at " + path);
    }
    return v;
}

/** First dotted key whose value differs ("" when the trees agree). */
std::string
first_difference(const Report &a, const Report &b)
{
    const auto fa = a.flat();
    const auto fb = b.flat();
    for (size_t i = 0; i < std::min(fa.size(), fb.size()); ++i) {
        if (fa[i] != fb[i]) {
            return fa[i].first == fb[i].first
                       ? fa[i].first
                       : fa[i].first + " / " + fb[i].first;
        }
    }
    if (fa.size() != fb.size()) {
        return fa.size() > fb.size() ? fa[fb.size()].first
                                     : fb[fa.size()].first;
    }
    return "";
}

/** Logical-qubit code cycles one segment simulates. */
double
qubit_cycles(const ScenarioSpec &spec, const Report &metrics)
{
    switch (spec.kind) {
      case ScenarioKind::Lifetime:
        return num(metrics, "cycles");
      case ScenarioKind::Stream:
        return static_cast<double>(spec.to_stream_config().rounds);
      case ScenarioKind::Fabric: {
        const FabricFleetConfig config = spec.to_fabric_config();
        return static_cast<double>(config.fleet.cycles) *
               config.fleet.num_qubits;
      }
      case ScenarioKind::Memory: {
        const MemoryConfig config = spec.to_memory_config();
        return num(metrics, "trials") *
               (config.rounds > 0 ? config.rounds : config.distance);
      }
      default:
        break;
    }
    return 0.0;
}

double
ratio(double a, double b)
{
    return b == 0.0 ? 0.0 : a / b;
}

/** Clock a call in seconds. */
template <typename F>
double
seconds_of(F &&call)
{
    const auto t0 = std::chrono::steady_clock::now();
    call();
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

std::string
loadavg()
{
    double load[3] = {0.0, 0.0, 0.0};
    if (getloadavg(load, 3) != 3) {
        return "unknown";
    }
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.2f %.2f %.2f", load[0], load[1],
                  load[2]);
    return buf;
}

/** Everything measured and checked on one workload. */
class WorkloadRun
{
  public:
    WorkloadRun(const Workload &workload, uint64_t seed, bool smoke)
        : name_(workload.name), seed_(seed), full_(workload.spec),
          spec_(workload.spec), refs_(kSegmentSeeds),
          setup_refs_(kSegmentSeeds)
    {
        const uint64_t divisor = smoke ? kSmokeDivisor : 1;
        full_.engine.seed = seed;
        volume_of(full_) = std::max<uint64_t>(1, volume_of(full_) / divisor);
        volume_of(spec_) = std::max<uint64_t>(1, workload.segment / divisor);
    }

    const std::string &name() const { return name_; }
    const ScenarioSpec &spec() const { return full_; }
    const ScenarioSpec &segment_spec() const { return spec_; }
    const std::vector<Metric> &metrics() const { return metrics_; }
    const std::vector<std::string> &failures() const { return failures_; }
    uint64_t attempted() const { return attempted_; }
    uint64_t failed() const { return failed_; }
    const std::vector<SpanStats> &spans() const { return spans_; }
    const std::vector<RawSpan> &raw_spans() const { return raw_; }
    std::string load_before, load_after;

    /**
     * One run at the reference volume, whose simulated metrics the
     * benchmark reports, then the discarded warm-up segment.
     */
    void reference()
    {
        const Report full = metrics_of(run_scenario(full_));
        ++attempted_;
        check_invariants(full, "reference run");
        add_simulated(full);
        check_repeat(refs_, 0, metrics_of(run_scenario(segment(0))),
                     "warm-up segment");
    }

    /**
     * Untraced segments alternating with decode-latency segments and
     * set-up calls (`run_scenario` at volume 1), so host-load bursts
     * hit all three alike.
     */
    void end_to_end_pass(double seconds)
    {
        const double cycles = qubit_cycles(spec_, refs_[0]);
        std::vector<double> setup;
        std::vector<double> per_cycle;
        std::vector<double> p50;
        std::vector<double> p99;
        uint64_t decodes = 0;
        const auto deadline = deadline_after(seconds);
        for (uint64_t k = 0; k < kMinSegments ||
                             std::chrono::steady_clock::now() < deadline;
             ++k) {
            ScenarioSpec one = segment(k);
            volume_of(one) = 1;
            Report metrics;
            setup.push_back(seconds_of(
                [&] { metrics = metrics_of(run_scenario(one)); }));
            check_repeat(setup_refs_, k, std::move(metrics), "set-up call");

            const ScenarioSpec spec = segment(k);
            const double s = seconds_of(
                [&] { metrics = metrics_of(run_scenario(spec)); });
            check_repeat(refs_, k, std::move(metrics), "run_scenario segment");
            per_cycle.push_back(s * 1e9 / cycles);

            Tracer tracer(Tracer::Mode::Latency, latency_spans(spec.kind),
                          0);
            check_repeat(refs_, k, replicate(spec, tracer).metrics,
                         "latency replica");
            p50.push_back(tracer.latency().percentile(0.50));
            p99.push_back(tracer.latency().percentile(0.99));
            decodes += tracer.latency().count();
        }
        add("setup_s", host_time(setup), setup, setup.size(), false);
        add("ns_per_qubit_cycle", host_time(per_cycle), per_cycle,
            per_cycle.size(), false);
        add("decode_latency_p50_ns", host_time(p50), p50, decodes, false);
        add("decode_latency_p99_ns", host_time(p99), p99, decodes, false);
    }

    /** Untraced segments alternating with fully traced replicas. */
    void traced_pass(double seconds)
    {
        spans_.assign(static_cast<size_t>(kNumSpans), SpanStats());
        std::vector<std::vector<double>> mean_ns(
            static_cast<size_t>(kNumSpans));  ///< per span, per segment
        std::vector<double> traced_s;
        std::vector<double> untraced_s;
        uint64_t root_ns = 0;
        double trial_defects_mean = 0.0;
        const auto deadline = deadline_after(seconds);
        for (uint64_t k = 0; k < kMinSegments ||
                             std::chrono::steady_clock::now() < deadline;
             ++k) {
            const ScenarioSpec spec = segment(k);
            Report metrics;
            untraced_s.push_back(seconds_of(
                [&] { metrics = metrics_of(run_scenario(spec)); }));
            check_repeat(refs_, k, std::move(metrics), "run_scenario segment");

            Tracer tracer(Tracer::Mode::Full, 0,
                          raw_.empty() ? kRawSpanCap : 0);
            ReplicaRun run;
            const uint64_t t0 = tracer.now();
            traced_s.push_back(
                seconds_of([&] { run = replicate(spec, tracer); }));
            root_ns += tracer.now() - t0;
            if (k == 0) {
                trial_defects_mean = run.trial_defects_mean;
            }
            check_repeat(refs_, k, std::move(run.metrics), "traced replica");
            for (int s = 0; s < kNumSpans; ++s) {
                SpanStats &into = spans_[static_cast<size_t>(s)];
                const SpanStats &from = tracer.spans()[static_cast<size_t>(s)];
                into.calls += from.calls;
                into.total_ns += from.total_ns;
                into.histogram.merge(from.histogram);
                if (from.calls > 0) {
                    mean_ns[static_cast<size_t>(s)].push_back(
                        static_cast<double>(from.total_ns) /
                        static_cast<double>(from.calls));
                }
            }
            if (raw_.empty()) {
                raw_ = tracer.raw();
            }
        }
        traced_segments_ = traced_s.size();
        uint64_t covered_ns = 0;
        for (int s = 0; s < kNumSpans; ++s) {
            const SpanStats &stats = spans_[static_cast<size_t>(s)];
            if (static_cast<Span>(s) != Span::Request) {
                covered_ns += stats.total_ns;
                const std::vector<double> &per_segment =
                    mean_ns[static_cast<size_t>(s)];
                add(std::string(span_name(static_cast<Span>(s))) + "_ns",
                    host_time(per_segment), per_segment, stats.calls,
                    false);
            }
        }
        const double coverage = ratio(static_cast<double>(covered_ns),
                                      static_cast<double>(root_ns));
        add("trace.coverage", coverage, {}, traced_segments_, false);
        add("trace.overhead", host_time(traced_s) / host_time(untraced_s) - 1.0,
            traced_s, traced_segments_, false);
        add_layer_counters(trial_defects_mean);
        if (coverage < 0.9) {
            fail("trace.coverage " + Table::num(coverage) +
                 " < 0.9: the layer spans miss part of the loop");
        }
    }

    uint64_t traced_segments() const { return traced_segments_; }

    const Metric *find(const std::string &name) const
    {
        for (const Metric &m : metrics_) {
            if (m.name == name) {
                return &m;
            }
        }
        return nullptr;
    }

  private:
    static std::chrono::steady_clock::time_point
    deadline_after(double seconds)
    {
        return std::chrono::steady_clock::now() +
               std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                   std::chrono::duration<double>(seconds));
    }

    void add(const std::string &name, double value,
             std::vector<double> samples, uint64_t count, bool exact)
    {
        metrics_.push_back(
            Metric{name, value, std::move(samples), count, exact});
    }

    void add_exact(const std::string &name, double value)
    {
        add(name, value, {value}, 1, true);
    }

    /** Record a failed check; `failed_` counts the runs it fails. */
    void note(const std::string &what)
    {
        failures_.push_back(name_ + ": " + what);
    }

    void fail(const std::string &what)
    {
        note(what);
        ++failed_;
    }

    /**
     * Segment k's input: the seed cycles through kSegmentSeeds values
     * derived from --seed, so a run averages over several inputs and
     * still sees each one repeat.
     */
    ScenarioSpec segment(uint64_t k) const
    {
        ScenarioSpec spec = spec_;
        spec.engine.seed = seed_ * kSegmentSeeds + k % kSegmentSeeds;
        return spec;
    }

    /**
     * The first metrics seen for segment k's input become its
     * reference (and must keep the harness invariants); every later
     * run of that input, by `run_scenario` or a replica, must equal it.
     */
    void check_repeat(std::vector<Report> &refs, uint64_t k, Report got,
                      const std::string &what)
    {
        ++attempted_;
        Report &ref = refs[k % kSegmentSeeds];
        if (ref.size() == 0) {
            ref = std::move(got);
            check_invariants(ref, what);
            return;
        }
        const std::string key = first_difference(ref, got);
        if (!key.empty()) {
            fail(what + " metrics differ from the first run of its input "
                        "at " + key);
        }
    }

    /** The counted invariants each harness promises. */
    void check_invariants(const Report &m, const std::string &what)
    {
        const size_t before = failures_.size();
        const auto expect = [&](bool ok, const char *rule) {
            if (!ok) {
                note(what + ": invariant violated: " + rule);
            }
        };
        switch (spec_.kind) {
          case ScenarioKind::Lifetime:
            expect(num(m, "all_zero_halves") + num(m, "trivial_halves") +
                           num(m, "complex_halves") ==
                       2.0 * num(m, "cycles"),
                   "all_zero_halves + trivial_halves + complex_halves == "
                   "2 * cycles");
            expect(num(m, "all_zero_cycles") + num(m, "trivial_cycles") +
                           num(m, "complex_cycles") ==
                       num(m, "cycles"),
                   "all_zero_cycles + trivial_cycles + complex_cycles == "
                   "cycles");
            break;
          case ScenarioKind::Stream:
            expect(num(m, "unclear_syndromes") == 0.0,
                   "unclear_syndromes == 0");
            expect(num(m, "defects_in") == num(m, "defects_committed"),
                   "defects_in == defects_committed after flush");
            break;
          case ScenarioKind::Fabric:
            expect(num(m, "enqueued") == num(m, "landed") + num(m, "pending"),
                   "enqueued == landed + pending");
            break;
          case ScenarioKind::Memory:
            expect(num(m, "unclear_syndromes") == 0.0,
                   "unclear_syndromes == 0");
            break;
          default:
            break;
        }
        if (failures_.size() > before) {
            ++failed_;
        }
    }

    /** The simulated (seed-exact) metrics of the reference run. */
    void add_simulated(const Report &m)
    {
        switch (spec_.kind) {
          case ScenarioKind::Lifetime:
            add_exact("escalation_fraction", num(m, "offchip_fraction"));
            add_exact("offchip_fraction", num(m, "offchip_fraction"));
            break;
          case ScenarioKind::Stream:
            add_exact("escalation_fraction",
                      ratio(num(m, "matched_windows"), num(m, "windows")));
            add_exact("failed_fraction",
                      ratio(num(m, "defects_in") -
                                num(m, "defects_committed") +
                                num(m, "unclear_syndromes"),
                            num(m, "defects_in")));
            break;
          case ScenarioKind::Fabric:
            add_exact("escalation_fraction",
                      num(m, "demand.mean") /
                          full_.to_fabric_config().fleet.num_qubits);
            add_exact("p99_queue_delay_cycles", num(m, "queue_delay.p99"));
            add_exact("exec_time_increase", num(m, "exec_time_increase"));
            add_exact("probe_failure_rate", num(m, "fabric.ler"));
            add_exact("failed_fraction",
                      ratio(num(m, "fabric.deadline_misses"),
                            num(m, "enqueued")));
            break;
          case ScenarioKind::Memory:
            add_exact("escalation_fraction",
                      num(m, "offchip_round_fraction"));
            add_exact("ler", num(m, "ler"));
            add_exact("failed_fraction",
                      ratio(num(m, "unclear_syndromes"), num(m, "trials")));
            break;
          default:
            break;
        }
    }

    /** Per-layer work counters of the warm-up segment. */
    void add_layer_counters(double trial_defects_mean)
    {
        const Report &m = refs_[0];
        switch (spec_.kind) {
          case ScenarioKind::Lifetime:
            add_exact("decoders.escalated_halves", num(m, "offchip_halves"));
            break;
          case ScenarioKind::Stream: {
            const double matched = num(m, "matched_windows");
            const double screened = num(m, "screened_windows");
            add_exact("matching.matched_windows", matched);
            add_exact("matching.screen_absorb_ratio",
                      ratio(screened, screened + matched));
            add_exact("matching.window_defects_mean",
                      num(m, "window_defects.mean"));
            break;
          }
          case ScenarioKind::Fabric: {
            const FabricFleetConfig config = spec_.to_fabric_config();
            add_exact("fabric.served", num(m, "served"));
            add_exact("fabric.link_utilization",
                      ratio(num(m, "served"),
                            static_cast<double>(config.fleet.cycles) *
                                config.topology.links *
                                static_cast<double>(
                                    config.fleet.offchip_bandwidth)));
            add_exact("fabric.mean_queue_delay_cycles",
                      num(m, "queue_delay.mean"));
            add_exact("fabric.suppressed", num(m, "suppressed"));
            break;
          }
          case ScenarioKind::Memory:
            add_exact("core.complex_rounds", num(m, "offchip_rounds"));
            add_exact("matching.trial_defects_mean", trial_defects_mean);
            break;
          default:
            break;
        }
    }

    std::string name_;
    uint64_t seed_;
    ScenarioSpec full_;  ///< reference volume
    ScenarioSpec spec_;  ///< segment volume
    std::vector<Report> refs_;        ///< per segment input
    std::vector<Report> setup_refs_;  ///< per set-up input
    std::vector<Metric> metrics_;
    std::vector<std::string> failures_;
    uint64_t attempted_ = 0;
    uint64_t failed_ = 0;
    std::vector<SpanStats> spans_;
    std::vector<RawSpan> raw_;
    uint64_t traced_segments_ = 0;
};

// ------------------------------------------------------------ output

/** Minimal streaming JSON writer (objects, arrays, scalars). */
class JsonWriter
{
  public:
    std::string str() const { return out_.str(); }

    void begin_object() { open('{'); }
    void end_object() { close('}'); }
    void begin_array() { open('['); }
    void end_array() { close(']'); }

    void key(const std::string &k)
    {
        separate();
        out_ << quote(k) << ":";
        after_key_ = true;
    }

    void value(double v) { scalar(format_double(v)); }
    void value(uint64_t v) { scalar(std::to_string(v)); }
    void value(bool v) { scalar(v ? "true" : "false"); }
    void value(const std::string &v) { scalar(quote(v)); }
    void value(const char *v) { scalar(quote(v)); }

    template <typename T>
    void field(const std::string &k, const T &v)
    {
        key(k);
        value(v);
    }

    static std::string quote(const std::string &s)
    {
        std::string q = "\"";
        for (const char c : s) {
            if (c == '"' || c == '\\') {
                q += '\\';
                q += c;
            } else if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                q += buf;
            } else {
                q += c;
            }
        }
        return q + "\"";
    }

  private:
    void separate()
    {
        if (after_key_) {
            after_key_ = false;
            return;
        }
        if (!first_.empty()) {
            if (!first_.back()) {
                out_ << ",";
            }
            first_.back() = false;
        }
    }
    void open(char c)
    {
        separate();
        out_ << c;
        first_.push_back(true);
    }
    void close(char c)
    {
        first_.pop_back();
        out_ << c;
    }
    void scalar(const std::string &text)
    {
        separate();
        out_ << text;
    }

    std::ostringstream out_;
    std::vector<bool> first_;
    bool after_key_ = false;
};

std::string
compiler_version()
{
#if defined(__clang__)
    return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    return std::string("gcc ") + __VERSION__;
#else
    return "unknown";
#endif
}

void
print_workload(const WorkloadRun &run)
{
    std::printf("\n== %s  (%s)\n", run.name().c_str(),
                run.spec().to_string().c_str());
    std::printf("   loadavg before: %s, after: %s\n",
                run.load_before.c_str(), run.load_after.c_str());
    Table table({"metric", "unit", "value", "samples", "iqr/median"});
    for (const Metric &m : run.metrics()) {
        const MetricInfo *info = find_metric(m.name);
        if (m.count == 0 && !m.exact) {
            continue;  // spans this workload never enters
        }
        table.add_row({m.name, info->unit, format_double(m.value),
                       std::to_string(m.count),
                       m.samples.size() > 1
                           ? Table::num(relative_iqr(m.samples))
                           : "-"});
    }
    table.print();
    if (!run.spans().empty()) {
        Table spans({"span", "calls/segment", "mean_ns", "p50_ns",
                     "p99_ns", "share"});
        double covered = 0.0;
        for (int s = 0; s < kNumSpans; ++s) {
            if (static_cast<Span>(s) != Span::Request) {
                covered += static_cast<double>(
                    run.spans()[static_cast<size_t>(s)].total_ns);
            }
        }
        for (int s = 0; s < kNumSpans; ++s) {
            const SpanStats &st = run.spans()[static_cast<size_t>(s)];
            if (st.calls == 0) {
                continue;
            }
            const bool request = static_cast<Span>(s) == Span::Request;
            spans.add_row(
                {span_name(static_cast<Span>(s)),
                 Table::num(ratio(static_cast<double>(st.calls),
                                  static_cast<double>(
                                      run.traced_segments()))),
                 Table::num(ratio(static_cast<double>(st.total_ns),
                                  static_cast<double>(st.calls))),
                 Table::num(st.histogram.percentile(0.50)),
                 Table::num(st.histogram.percentile(0.99)),
                 request ? "-"
                         : Table::num(ratio(static_cast<double>(st.total_ns),
                                            covered))});
        }
        spans.print();
    }
    for (const std::string &f : run.failures()) {
        std::printf("   CHECK FAILED: %s\n", f.c_str());
    }
}

void
write_results(const std::string &path, const std::vector<WorkloadRun> &runs,
              uint64_t seed, double seconds, bool smoke,
              const std::string &rev)
{
    JsonWriter json;
    json.begin_object();
    json.field("benchmark", "btwc_bench");
    json.field("seed", seed);
    json.field("seconds", seconds);
    json.field("smoke", smoke);
    json.key("host");
    json.begin_object();
    json.field("nproc",
               static_cast<uint64_t>(std::thread::hardware_concurrency()));
    json.field("build_type", BTWC_BENCH_BUILD_TYPE);
    json.field("compiler", compiler_version());
    json.field("rev", rev);
    json.end_object();
    json.key("workloads");
    json.begin_object();
    for (const WorkloadRun &run : runs) {
        json.key(run.name());
        json.begin_object();
        json.field("spec", run.spec().to_string());
        json.field("segment_spec", run.segment_spec().to_string());
        json.field("loadavg_before", run.load_before);
        json.field("loadavg_after", run.load_after);
        json.field("correct", run.failures().empty());
        json.key("failures");
        json.begin_array();
        for (const std::string &f : run.failures()) {
            json.value(f);
        }
        json.end_array();
        json.key("metrics");
        json.begin_object();
        for (const Metric &m : run.metrics()) {
            const MetricInfo *info = find_metric(m.name);
            json.key(m.name);
            json.begin_object();
            json.field("value", m.value);
            json.field("unit", info->unit);
            json.field("better", info->better);
            json.field("exact", m.exact);
            json.field("count", m.count);
            json.key("samples");
            json.begin_array();
            for (const double v : m.samples) {
                json.value(v);
            }
            json.end_array();
            json.end_object();
        }
        json.end_object();
        if (!run.spans().empty()) {
            json.key("spans");
            json.begin_object();
            for (int s = 0; s < kNumSpans; ++s) {
                const SpanStats &st = run.spans()[static_cast<size_t>(s)];
                if (st.calls == 0) {
                    continue;
                }
                json.key(span_name(static_cast<Span>(s)));
                json.begin_object();
                json.field("calls", st.calls);
                json.field("total_ns", st.total_ns);
                json.field("p50_ns", st.histogram.percentile(0.50));
                json.field("p99_ns", st.histogram.percentile(0.99));
                json.end_object();
            }
            json.end_object();
        }
        json.end_object();
    }
    json.end_object();
    json.end_object();
    std::ofstream out(path);
    out << json.str() << "\n";
    if (!out) {
        throw std::runtime_error("cannot write " + path);
    }
}

void
write_spans(const std::string &path, const std::vector<WorkloadRun> &runs)
{
    std::ofstream out(path);
    for (const WorkloadRun &run : runs) {
        for (const RawSpan &span : run.raw_spans()) {
            JsonWriter json;
            json.begin_object();
            json.field("workload", run.name());
            json.field("id", span.id);
            json.field("name", span_name(span.span));
            json.field("request", span.request);
            json.field("start_ns", span.start_ns);
            json.field("end_ns", span.end_ns);
            json.field("parent", span.parent);
            json.end_object();
            out << json.str() << "\n";
        }
    }
    if (!out) {
        throw std::runtime_error("cannot write " + path);
    }
}

/** The last stdout line the benchmark contract asks for. */
void
print_result_line(const WorkloadRun &run,
                  const std::vector<const MetricDef *> &wanted)
{
    JsonWriter json;
    json.begin_object();
    json.field("correct", run.failures().empty());
    json.field("attempted", run.attempted());
    json.field("failed", run.failed());
    json.key("metrics");
    json.begin_object();
    for (const MetricDef *def : wanted) {
        const Metric *m = run.find(def->name);
        json.key(def->name);
        json.begin_object();
        // A per-layer metric of a layer this workload never enters
        // reads 0: the bypass prediction.
        json.field("value", m == nullptr ? 0.0 : m->value);
        json.field("unit", def->unit);
        json.end_object();
    }
    json.end_object();
    json.end_object();
    std::printf("%s\n", json.str().c_str());
}

// ------------------------------------------------------------ compare

std::vector<double>
samples_of(const JsonValue &metric)
{
    std::vector<double> out;
    const JsonValue *samples = metric.find("samples");
    if (samples != nullptr) {
        for (const JsonValue &v : samples->array) {
            out.push_back(v.number);
        }
    }
    return out;
}

/**
 * Compare two result files metric by metric: simulated metrics must
 * match exactly at equal seeds; host-time metrics may move by their
 * BENCHMARK.json bound, and read "unresolved" when the segment spread
 * of either side exceeds it. Exit status 1 when any metric is worse.
 */
int
compare(const std::string &a_path, const std::string &b_path,
        const BenchmarkFile &bench)
{
    const JsonValue a = parse_json_file(a_path);
    const JsonValue b = parse_json_file(b_path);
    const bool same_seed =
        member(a, "seed", a_path).raw == member(b, "seed", b_path).raw;
    std::map<std::string, double> bounds;
    for (const MetricDef &def : bench.end_to_end) {
        bounds[def.name] = def.bound;
    }
    Table table({"workload", "metric", "unit", "A", "B", "change",
                 "spread", "bound", "verdict"});
    int worse = 0;
    for (const auto &[workload, wa] : member(a, "workloads", a_path).object) {
        const JsonValue *wb = member(b, "workloads", b_path).find(workload);
        for (const auto &[name, ma] : member(wa, "metrics", a_path).object) {
            const bool exact = member(ma, "exact", a_path).b;
            const auto bound = bounds.find(name);
            if (!exact && bound == bounds.end()) {
                continue;  // per-layer host times carry no bound
            }
            const JsonValue *mb =
                wb == nullptr ? nullptr
                              : member(*wb, "metrics", b_path).find(name);
            const std::string unit = member(ma, "unit", a_path).s;
            const double va = member(ma, "value", a_path).number;
            if (mb == nullptr) {
                table.add_row({workload, name, unit, format_double(va), "-",
                               "-", "-", "-", "missing"});
                ++worse;
                continue;
            }
            const double vb = member(*mb, "value", b_path).number;
            const bool lower = member(ma, "better", a_path).s == "lower";
            const double change = va == 0.0 ? (vb == va ? 0.0 : 1.0)
                                            : (vb - va) / std::fabs(va);
            const double worsening = lower ? change : -change;
            const std::vector<double> sa = samples_of(ma);
            const std::vector<double> sb = samples_of(*mb);
            const double spread = std::max(relative_iqr(sa), relative_iqr(sb));
            std::string verdict;
            std::string bound_text = "exact";
            if (exact && same_seed) {
                const bool equal = member(ma, "value", a_path).raw ==
                                   member(*mb, "value", b_path).raw;
                verdict = equal ? "agree" : worsening > 0 ? "worse" : "better";
            } else if (bound == bounds.end()) {
                verdict = "unresolved";  // simulated, different seeds
            } else {
                bound_text = Table::num(bound->second);
                const auto better_all = [&] {
                    for (const double x : sa) {
                        for (const double y : sb) {
                            if (lower ? y >= x : y <= x) {
                                return false;
                            }
                        }
                    }
                    return !sa.empty() && !sb.empty();
                };
                if (spread > bound->second) {
                    verdict = better_all() ? "better" : "unresolved";
                } else if (worsening > bound->second) {
                    verdict = "worse";
                } else if (worsening < -bound->second) {
                    verdict = "better";
                } else {
                    verdict = "agree";
                }
            }
            worse += verdict == "worse" ? 1 : 0;
            table.add_row({workload, name, unit, format_double(va),
                           format_double(vb), Table::num(change),
                           Table::num(spread), bound_text, verdict});
        }
    }
    table.print();
    std::printf("%d metric(s) worse\n", worse);
    return worse > 0 ? 1 : 0;
}

// ------------------------------------------------------------ main

int
run(const Flags &flags)
{
    const BenchmarkFile bench =
        load_benchmark(flags.get("benchmark", "BENCHMARK.json"));
    if (flags.has("compare")) {
        if (flags.positional().size() != 1) {
            std::fprintf(stderr, "usage: btwc_bench --compare A.json B.json\n");
            return 2;
        }
        return compare(flags.get("compare", ""), flags.positional()[0],
                       bench);
    }

    // Measurement hygiene: numbers from a debug or audited build are
    // not this program's numbers.
#if !defined(NDEBUG) || !defined(__OPTIMIZE__)
    std::fprintf(stderr,
                 "btwc_bench: refusing to measure a build without NDEBUG "
                 "and optimisation (build type %s); configure "
                 "benchmark/ with -DCMAKE_BUILD_TYPE=Release\n",
                 BTWC_BENCH_BUILD_TYPE);
    return 2;
#endif
    if (std::getenv("BTWC_AUDIT") != nullptr) {
        std::fprintf(stderr, "btwc_bench: refusing to measure with "
                             "BTWC_AUDIT set\n");
        return 2;
    }
    set_audit_level(AuditLevel::Off);

    const std::vector<Workload> workloads = load_workloads(
        flags.get("config", "benchmark/workloads.json"), bench);
    const bool smoke = flags.get_bool("smoke");
    const uint64_t seed = static_cast<uint64_t>(flags.get_int("seed", 1));
    const double seconds = smoke ? 0.0 : flags.get_double("seconds", 3.0);
    const std::string trace = flags.get("trace", "");
    if (!trace.empty() && trace != "0" && trace != "1") {
        std::fprintf(stderr, "btwc_bench: --trace takes 0 or 1\n");
        return 2;
    }
    const std::string only = flags.get("workload", "");
    if (!flags.ok()) {
        std::fprintf(stderr, "btwc_bench: %s\n", flags.error().c_str());
        return 2;
    }

    std::vector<WorkloadRun> runs;
    for (const Workload &w : workloads) {
        if (only.empty() || w.name == only) {
            runs.emplace_back(w, seed, smoke);
        }
    }
    if (runs.empty()) {
        std::fprintf(stderr, "btwc_bench: no workload named '%s'\n",
                     only.c_str());
        return 2;
    }
    for (WorkloadRun &run : runs) {
        run.load_before = loadavg();
        run.reference();
        if (trace != "1") {
            run.end_to_end_pass(seconds);
        }
        if (trace != "0") {
            run.traced_pass(seconds);
        }
        run.load_after = loadavg();
        print_workload(run);
    }

    if (flags.has("json")) {
        write_results(flags.get("json", ""), runs, seed, seconds, smoke,
                      flags.get("rev", ""));
    }
    if (flags.has("spans")) {
        write_spans(flags.get("spans", ""), runs);
    }
    bool correct = true;
    for (const WorkloadRun &run : runs) {
        correct = correct && run.failures().empty();
    }
    if (!only.empty()) {
        std::vector<const MetricDef *> wanted;
        if (trace != "1") {
            for (const MetricDef &def : bench.end_to_end) {
                wanted.push_back(&def);
            }
        }
        if (trace != "0") {
            for (const MetricDef &def : bench.per_layer) {
                wanted.push_back(&def);
            }
        }
        print_result_line(runs.front(), wanted);
    }
    return correct ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return run(flags_or_exit(argc, argv));
    } catch (const std::exception &e) {
        std::fprintf(stderr, "btwc_bench: %s\n", e.what());
        return 2;
    }
}
