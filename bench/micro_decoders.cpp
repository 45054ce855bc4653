/**
 * @file
 * Google-benchmark microbenchmarks for the decode pipeline: per-cycle
 * Clique decisions, the measurement filter, MWPM and Union-Find
 * decodes, and the full BTWC system step. These back the paper's
 * architectural argument that the common case must be cheap: Clique's
 * per-cycle work is orders of magnitude below MWPM's.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/clique.hpp"
#include "core/filter.hpp"
#include "core/system.hpp"
#include "decoders/exact_decoder.hpp"
#include "decoders/lookup_table.hpp"
#include "decoders/stream_window.hpp"
#include "decoders/tier_chain.hpp"
#include "matching/mwpm.hpp"
#include "matching/union_find.hpp"
#include "surface/frame.hpp"
#include "surface/lattice.hpp"
#include "surface/packed.hpp"

namespace {

using namespace btwc;

/** A random syndrome with roughly `errors` injected data errors. */
std::vector<uint8_t>
sample_syndrome(const RotatedSurfaceCode &code, int errors, Rng &rng)
{
    ErrorFrame frame(code, CheckType::X);
    for (int i = 0; i < errors; ++i) {
        frame.flip(static_cast<int>(rng.next_below(code.num_data())));
    }
    std::vector<uint8_t> syndrome;
    frame.measure_perfect(syndrome);
    return syndrome;
}

/** Detection events of a full d-round spacetime window at rate p. */
std::vector<DetectionEvent>
sample_window(const RotatedSurfaceCode &code, Rng &rng, double p = 5e-3)
{
    const int d = code.distance();
    ErrorFrame frame(code, CheckType::X);
    std::vector<std::vector<uint8_t>> raw(d + 1);
    std::vector<DetectionEvent> events;
    for (int t = 0; t < d; ++t) {
        frame.inject(p, rng);
        frame.measure(p, rng, raw[t]);
    }
    frame.measure_perfect(raw[d]);
    for (int t = 0; t <= d; ++t) {
        for (int c = 0; c < code.num_checks(CheckType::Z); ++c) {
            const uint8_t prev = t == 0 ? 0 : raw[t - 1][c];
            if ((raw[t][c] ^ prev) & 1) {
                events.push_back(DetectionEvent{c, t});
            }
        }
    }
    return events;
}

void
BM_CliqueDecode(benchmark::State &state)
{
    const RotatedSurfaceCode code(static_cast<int>(state.range(0)));
    const CliqueDecoder clique(code, CheckType::Z);
    Rng rng(1);
    std::vector<std::vector<uint8_t>> syndromes;
    for (int i = 0; i < 64; ++i) {
        syndromes.push_back(sample_syndrome(code, 2, rng));
    }
    size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(clique.decode(syndromes[i++ & 63]));
    }
}
BENCHMARK(BM_CliqueDecode)->Arg(5)->Arg(9)->Arg(21);

void
BM_MeasurementFilter(benchmark::State &state)
{
    const RotatedSurfaceCode code(static_cast<int>(state.range(0)));
    MeasurementFilter filter(code.num_checks(CheckType::Z), 2);
    Rng rng(2);
    std::vector<uint8_t> raw(code.num_checks(CheckType::Z), 0);
    for (auto _ : state) {
        for (auto &bit : raw) {
            bit = rng.bernoulli(0.01) ? 1 : 0;
        }
        benchmark::DoNotOptimize(filter.push(raw));
    }
}
BENCHMARK(BM_MeasurementFilter)->Arg(9)->Arg(21);

void
BM_MwpmDecodeSyndrome(benchmark::State &state)
{
    const RotatedSurfaceCode code(static_cast<int>(state.range(0)));
    const MwpmDecoder mwpm(code, CheckType::Z);
    Rng rng(3);
    std::vector<std::vector<uint8_t>> syndromes;
    for (int i = 0; i < 64; ++i) {
        syndromes.push_back(
            sample_syndrome(code, state.range(0) / 2, rng));
    }
    size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            mwpm.decode_syndrome(syndromes[i++ & 63]));
    }
}
BENCHMARK(BM_MwpmDecodeSyndrome)->Arg(5)->Arg(9)->Arg(21);

void
BM_UnionFindDecodeSyndrome(benchmark::State &state)
{
    const RotatedSurfaceCode code(static_cast<int>(state.range(0)));
    const UnionFindDecoder uf(code, CheckType::Z);
    Rng rng(4);
    std::vector<std::vector<uint8_t>> syndromes;
    for (int i = 0; i < 64; ++i) {
        syndromes.push_back(
            sample_syndrome(code, state.range(0) / 2, rng));
    }
    size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            uf.decode_syndrome(syndromes[i++ & 63]));
    }
}
BENCHMARK(BM_UnionFindDecodeSyndrome)->Arg(5)->Arg(9)->Arg(21);

/**
 * The packed-fast-path pairs (byte baseline vs word-parallel packed,
 * same pre-sampled inputs): Clique screening and noisy syndrome
 * extraction, followed by the Union-Find decoder on its single-round
 * and stream-window loads. See the archived BENCH_decoders.json for
 * the measured trajectory.
 */
void
BM_CliqueScreenByte(benchmark::State &state)
{
    const RotatedSurfaceCode code(static_cast<int>(state.range(0)));
    const CliqueDecoder clique(code, CheckType::Z);
    Rng rng(12);
    std::vector<std::vector<uint8_t>> syndromes;
    for (int i = 0; i < 64; ++i) {
        syndromes.push_back(sample_syndrome(code, 2, rng));
    }
    CliqueOutcome outcome;
    size_t i = 0;
    for (auto _ : state) {
        clique.decode(syndromes[i++ & 63], outcome);
        benchmark::DoNotOptimize(outcome.verdict);
    }
}
BENCHMARK(BM_CliqueScreenByte)->Arg(9)->Arg(21);

void
BM_CliqueScreenPacked(benchmark::State &state)
{
    const RotatedSurfaceCode code(static_cast<int>(state.range(0)));
    const CliqueDecoder clique(code, CheckType::Z);
    Rng rng(12);
    std::vector<PackedSyndrome> syndromes(64);
    for (int i = 0; i < 64; ++i) {
        syndromes[i].from_bytes(sample_syndrome(code, 2, rng));
    }
    PackedBits correction;
    size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            clique.decode_packed(syndromes[i++ & 63], correction));
    }
}
BENCHMARK(BM_CliqueScreenPacked)->Arg(9)->Arg(21);

void
BM_UnionFindDecodePacked(benchmark::State &state)
{
    // Single-round decodes on one pooled instance: cached topology,
    // bitset cluster state, per-call work bounded by the clusters.
    const RotatedSurfaceCode code(static_cast<int>(state.range(0)));
    const UnionFindDecoder uf(code, CheckType::Z);
    Rng rng(13);
    std::vector<std::vector<DetectionEvent>> events;
    for (int i = 0; i < 64; ++i) {
        events.push_back(events_from_syndrome(
            sample_syndrome(code, state.range(0) / 2, rng)));
    }
    size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(uf.decode(events[i++ & 63], 1));
    }
}
BENCHMARK(BM_UnionFindDecodePacked)->Arg(9)->Arg(21);

/** Rounds per stream-d21 window, and its commit region [0, 6). */
constexpr int kStreamWindow = 8;
constexpr int kStreamCommit = 6;

/**
 * 64 windows of `window` rounds from a d=21, p=1e-3 phenomenological
 * stream, shaped as stream-d21 presents them: each window diffs its
 * round 0 against a noiseless round, as if the stream had already
 * committed or carried every earlier defect. With `overlap` false a
 * window is kept only when every event lies in the commit region
 * [0, commit), which is when the stream runs its screen; with
 * `overlap` true only when some event lies past it, which the screen
 * cannot take. `mean_defects` receives the kept windows' mean event
 * count.
 */
std::vector<std::vector<DetectionEvent>>
stream_windows(const RotatedSurfaceCode &code, int window, int commit,
               bool overlap, double &mean_defects)
{
    ErrorFrame frame(code, CheckType::X);
    Rng rng(17);
    PackedSyndrome prev;
    PackedSyndrome raw;
    std::vector<std::vector<DetectionEvent>> windows;
    std::vector<DetectionEvent> events;
    size_t defects = 0;
    while (windows.size() < 64) {
        events.clear();
        frame.measure_packed(0.0, rng, prev);
        for (int t = 0; t < window; ++t) {
            frame.inject(1e-3, rng);
            frame.measure_packed(1e-3, rng, raw);
            prev ^= raw;
            prev.for_each_set(
                [&events, t](int c) { events.push_back({c, t}); });
            prev = raw;
        }
        const bool reaches_overlap =
            std::any_of(events.begin(), events.end(),
                        [commit](const DetectionEvent &e) {
                            return e.round >= commit;
                        });
        if (reaches_overlap == overlap) {
            defects += events.size();
            windows.push_back(events);
        }
    }
    mean_defects = static_cast<double>(defects) / 64.0;
    return windows;
}

void
BM_UnionFindDecodeWindow(benchmark::State &state)
{
    // The stream screen's load at stream-d21: one pooled decoder over
    // the commit-region windows of `stream_windows`.
    const RotatedSurfaceCode code(21);
    const UnionFindDecoder uf(code, CheckType::Z);
    double defects = 0.0;
    const std::vector<std::vector<DetectionEvent>> windows =
        stream_windows(code, kStreamWindow, kStreamCommit, false, defects);
    Decoder::Result scalars;
    size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            uf.decode_mask(windows[i++ & 63], kStreamWindow, scalars));
    }
    state.counters["defects"] = defects;
}
BENCHMARK(BM_UnionFindDecodeWindow);

void
BM_FrameInject(benchmark::State &state)
{
    // The data walk of one lifetime half at p=1e-3: a reset, then a
    // GapSampler walk over the d^2 data qubits that usually ends on
    // its first draw (for d=21, (1-p)^441 = 0.64 of the time).
    const RotatedSurfaceCode code(static_cast<int>(state.range(0)));
    ErrorFrame frame(code, CheckType::X);
    Rng rng(15);
    for (auto _ : state) {
        frame.reset();
        frame.inject(1e-3, rng);
        benchmark::DoNotOptimize(frame.error().data());
        benchmark::ClobberMemory();
    }
}
BENCHMARK(BM_FrameInject)->Arg(9)->Arg(21);

void
BM_SyndromeExtractByte(benchmark::State &state)
{
    const RotatedSurfaceCode code(static_cast<int>(state.range(0)));
    ErrorFrame frame(code, CheckType::X);
    Rng rng(14);
    frame.inject(5e-3, rng);
    std::vector<uint8_t> syndrome;
    for (auto _ : state) {
        frame.measure(1e-3, rng, syndrome);
        benchmark::DoNotOptimize(syndrome.data());
    }
}
BENCHMARK(BM_SyndromeExtractByte)->Arg(9)->Arg(21);

void
BM_SyndromeExtractPacked(benchmark::State &state)
{
    // Extraction off the frame's stored syndrome: a word copy plus the
    // measurement-flip walk, independent of the error weight (the byte
    // form unpacks the same syndrome into one byte per check).
    const RotatedSurfaceCode code(static_cast<int>(state.range(0)));
    ErrorFrame frame(code, CheckType::X);
    Rng rng(14);
    frame.inject(5e-3, rng);
    PackedSyndrome syndrome;
    for (auto _ : state) {
        frame.measure_packed(1e-3, rng, syndrome);
        benchmark::DoNotOptimize(syndrome.data());
    }
}
BENCHMARK(BM_SyndromeExtractPacked)->Arg(9)->Arg(21);

void
BM_BtwcSystemStep(benchmark::State &state)
{
    const RotatedSurfaceCode code(static_cast<int>(state.range(0)));
    BtwcSystem system(code, NoiseParams::uniform(1e-3), SystemConfig{}, 5);
    for (auto _ : state) {
        benchmark::DoNotOptimize(system.step());
    }
}
BENCHMARK(BM_BtwcSystemStep)->Arg(5)->Arg(9)->Arg(21);

void
BM_SpacetimeMwpmWindow(benchmark::State &state)
{
    // Full d-round spacetime decode, the off-chip worst case.
    const int d = static_cast<int>(state.range(0));
    const RotatedSurfaceCode code(d);
    const MwpmDecoder mwpm(code, CheckType::Z);
    Rng rng(6);
    const std::vector<DetectionEvent> events = sample_window(code, rng);
    for (auto _ : state) {
        benchmark::DoNotOptimize(mwpm.decode(events, d + 1));
    }
}
BENCHMARK(BM_SpacetimeMwpmWindow)->Arg(5)->Arg(9)->Arg(11);

/**
 * Single-shot spacetime decodes (a fresh window per slot, varied
 * inputs) through the production path: O(1) oracle distances and the
 * pooled per-instance scratch. See the archived BENCH_decoders.json
 * for the measured trajectory.
 */
void
BM_MwpmDecodeSingle(benchmark::State &state)
{
    const int d = static_cast<int>(state.range(0));
    const RotatedSurfaceCode code(d);
    const MwpmDecoder mwpm(code, CheckType::Z);
    Rng rng(10);
    std::vector<std::vector<DetectionEvent>> windows;
    for (int i = 0; i < 16; ++i) {
        windows.push_back(sample_window(code, rng));
    }
    size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(mwpm.decode(windows[i++ & 15], d + 1));
    }
}
BENCHMARK(BM_MwpmDecodeSingle)->Arg(11)->Arg(15)->Arg(21);

void
BM_MwpmDecodeMemory(benchmark::State &state)
{
    // The memory experiment's matcher load (Fig. 14): d = 9 spacetime
    // windows of d + 1 rounds at p = 1e-2, decoded by one pooled
    // decoder over a fixed corpus. These windows average ~18 defects;
    // the Clique arm's on-chip corrections raise memory-d9's trials
    // to ~25.
    const int d = 9;
    const RotatedSurfaceCode code(d);
    const MwpmDecoder mwpm(code, CheckType::Z);
    Rng rng(31);
    std::vector<std::vector<DetectionEvent>> windows;
    size_t defects = 0;
    for (int i = 0; i < 64; ++i) {
        windows.push_back(sample_window(code, rng, 1e-2));
        defects += windows.back().size();
    }
    size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(mwpm.decode(windows[i++ & 63], d + 1));
    }
    state.counters["defects"] = static_cast<double>(defects) / 64.0;
}
BENCHMARK(BM_MwpmDecodeMemory);

void
BM_MwpmDecodeWindow(benchmark::State &state)
{
    // The stream's matched-window load at d=21: one pooled decoder over
    // the windows of `stream_windows` that reach the overlap region,
    // where the stream skips its screen and matches with pair
    // attribution. Args are the window W and overlap V: W=8, V=2 is
    // stream-d21's geometry (~11 defects per window); W=42, V=21 is
    // the geometry that keeps the distance (ROADMAP item 1, ~53
    // defects).
    const int window = static_cast<int>(state.range(0));
    const int overlap = static_cast<int>(state.range(1));
    const RotatedSurfaceCode code(21);
    const MwpmDecoder mwpm(code, CheckType::Z);
    double defects = 0.0;
    const std::vector<std::vector<DetectionEvent>> windows =
        stream_windows(code, window, window - overlap, true, defects);
    MwpmMatches matches;
    size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            mwpm.decode_matched(windows[i++ & 63], window, matches));
    }
    state.counters["defects"] = defects;
}
BENCHMARK(BM_MwpmDecodeWindow)->Args({8, 2})->Args({42, 21});

void
BM_LutDecode(benchmark::State &state)
{
    // The lookup-table tier: one syndrome-indexed read per decode.
    const RotatedSurfaceCode code(static_cast<int>(state.range(0)));
    const LookupTableDecoder lut(code, CheckType::Z);
    Rng rng(11);
    std::vector<std::vector<uint8_t>> syndromes;
    for (int i = 0; i < 64; ++i) {
        syndromes.push_back(sample_syndrome(code, 2, rng));
    }
    size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(lut.decode_syndrome(syndromes[i++ & 63]));
    }
}
BENCHMARK(BM_LutDecode)->Arg(3)->Arg(5);

void
BM_TierChainDeepDecode(benchmark::State &state)
{
    // The §8.1 three-tier chain on moderately complex signatures:
    // dominated by the Union-Find mid-tier, with rare MWPM spills.
    const RotatedSurfaceCode code(static_cast<int>(state.range(0)));
    const TierChain chain(code, CheckType::Z, TierChainConfig::deep());
    Rng rng(7);
    std::vector<std::vector<uint8_t>> syndromes;
    for (int i = 0; i < 64; ++i) {
        syndromes.push_back(
            sample_syndrome(code, static_cast<int>(state.range(0)) / 2,
                            rng));
    }
    size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(chain.decode_syndrome(syndromes[i++ & 63]));
    }
}
BENCHMARK(BM_TierChainDeepDecode)->Arg(5)->Arg(9)->Arg(21);

void
BM_MwpmDecodeBatch(benchmark::State &state)
{
    // Batched off-chip decoding (the async service's drain path): one
    // decode_batch call over a batch of single-round d=21 syndromes.
    const int d = 21;
    const RotatedSurfaceCode code(d);
    const MwpmDecoder mwpm(code, CheckType::Z);
    Rng rng(9);
    std::vector<std::vector<DetectionEvent>> batch;
    for (int i = 0; i < static_cast<int>(state.range(0)); ++i) {
        batch.push_back(
            events_from_syndrome(sample_syndrome(code, d / 2, rng)));
    }
    for (auto _ : state) {
        benchmark::DoNotOptimize(mwpm.decode_batch(batch, 1));
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MwpmDecodeBatch)->Arg(4)->Arg(16)->Arg(64);

void
BM_StreamWindowDecode(benchmark::State &state)
{
    // Steady-state streaming decode: per-round cost of push_round
    // (word-parallel diff extraction plus the amortized sliding-window
    // decodes) over a pre-sampled loop of raw syndrome rounds, with a
    // UF(2) screening tier absorbing the easy windows — the sustained
    // decodes/sec point behind the stream-quick scenario.
    const RotatedSurfaceCode code(static_cast<int>(state.range(0)));
    StreamWindowConfig config;
    config.screen = {TierSpec::union_find(2)};
    StreamWindowDecoder stream(code, CheckType::Z, config);
    ErrorFrame frame(code, CheckType::X);
    Rng rng(15);
    std::vector<PackedSyndrome> raws(256);
    for (PackedSyndrome &raw : raws) {
        frame.inject(3e-3, rng);
        frame.measure_packed(3e-3, rng, raw);
    }
    size_t i = 0;
    for (auto _ : state) {
        stream.push_round(raws[i++ & 255]);
    }
    benchmark::DoNotOptimize(stream.stats().windows);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StreamWindowDecode)->Arg(9)->Arg(21);

void
BM_ExactDecodeSyndrome(benchmark::State &state)
{
    // The subset-DP matching oracle on sparse syndromes (the
    // cross-validation tier; exponential in the defect count).
    const RotatedSurfaceCode code(static_cast<int>(state.range(0)));
    const ExactDecoder exact(code, CheckType::Z);
    Rng rng(8);
    std::vector<std::vector<uint8_t>> syndromes;
    for (int i = 0; i < 64; ++i) {
        syndromes.push_back(sample_syndrome(code, 3, rng));
    }
    size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(exact.decode_syndrome(syndromes[i++ & 63]));
    }
}
BENCHMARK(BM_ExactDecodeSyndrome)->Arg(5)->Arg(9);

} // namespace

/**
 * Custom main so the repo-wide `--json <path>` convention works here
 * too: it is rewritten into google-benchmark's native
 * `--benchmark_out=<path> --benchmark_out_format=json` pair before
 * benchmark::Initialize consumes argv.
 */
int
main(int argc, char **argv)
{
    std::vector<std::string> args;
    args.reserve(static_cast<size_t>(argc) + 1);
    for (int i = 0; i < argc; ++i) {
        const std::string arg = argv[i];
        std::string path;
        if (arg.rfind("--json=", 0) == 0) {
            path = arg.substr(7);
        } else if (arg == "--json" && i + 1 < argc &&
                   std::string(argv[i + 1]).rfind("--", 0) != 0) {
            path = argv[++i];
        } else {
            // A bare --json (no path) falls through untranslated and
            // is rejected by ReportUnrecognizedArguments below.
            args.push_back(arg);
            continue;
        }
        if (path.empty() || path == "true") {
            std::fprintf(stderr, "--json requires a path "
                                 "(e.g. --json out.json)\n");
            return 2;
        }
        args.push_back("--benchmark_out=" + path);
        args.push_back("--benchmark_out_format=json");
    }
    std::vector<char *> argv_rewritten;
    argv_rewritten.reserve(args.size());
    for (std::string &arg : args) {
        argv_rewritten.push_back(arg.data());
    }
    int argc_rewritten = static_cast<int>(argv_rewritten.size());
    benchmark::Initialize(&argc_rewritten, argv_rewritten.data());
    if (benchmark::ReportUnrecognizedArguments(argc_rewritten,
                                               argv_rewritten.data())) {
        return 1;
    }
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
