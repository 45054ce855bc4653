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
#include "surface/distance.hpp"
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

/** The packed form of `sample_syndrome` (same draws, same bits): the
 * input of every single-round decoder and chain bench. */
PackedSyndrome
sample_packed(const RotatedSurfaceCode &code, int errors, Rng &rng)
{
    PackedSyndrome syndrome;
    syndrome.from_bytes(sample_syndrome(code, errors, rng));
    return syndrome;
}

/** Detection events of a run of packed rounds: each round XOR the one
 * before it (all-zero before round 0), in (round, check) order. */
std::vector<DetectionEvent>
round_events(const std::vector<PackedSyndrome> &raw)
{
    std::vector<DetectionEvent> events;
    for (size_t t = 0; t < raw.size(); ++t) {
        for (int w = 0; w < raw[t].num_words(); ++w) {
            uint64_t bits =
                raw[t].word(w) ^ (t == 0 ? 0 : raw[t - 1].word(w));
            while (bits != 0) {
                events.push_back(DetectionEvent{
                    w * 64 + __builtin_ctzll(bits), static_cast<int>(t)});
                bits &= bits - 1;
            }
        }
    }
    return events;
}

/** Detection events of a full d-round spacetime window at rate p, closed
 * by the noiseless syndrome. */
std::vector<DetectionEvent>
sample_window(const RotatedSurfaceCode &code, Rng &rng, double p = 5e-3)
{
    const int d = code.distance();
    ErrorFrame frame(code, CheckType::X);
    std::vector<PackedSyndrome> raw(d + 1);
    for (int t = 0; t < d; ++t) {
        frame.inject(p, rng);
        frame.measure_packed(p, rng, raw[t]);
    }
    raw[d] = frame.syndrome();
    return round_events(raw);
}

/**
 * 64 memory-experiment trials of d rounds at rate p, drawn the way the
 * Clique arm's `run_trial` (sim/memory.cpp) draws them: each noisy
 * round goes through the packed 2-round filter and
 * `CliqueDecoder::decode_packed`, a Trivial verdict's mask is applied
 * with `apply_mask`, and the noiseless syndrome closes the trial.
 */
std::vector<std::vector<DetectionEvent>>
memory_trials(const RotatedSurfaceCode &code, double p, Rng &rng)
{
    const int d = code.distance();
    ErrorFrame frame(code, CheckType::X);
    PackedMeasurementFilter filter(code.num_checks(frame.detector()), 2);
    const CliqueDecoder clique(code, frame.detector());
    PackedBits correction;
    std::vector<PackedSyndrome> raw(d + 1);
    std::vector<std::vector<DetectionEvent>> trials;
    while (trials.size() < 64) {
        frame.reset();
        filter.reset();
        for (int t = 0; t < d; ++t) {
            frame.inject(p, rng);
            frame.measure_packed(p, rng, raw[t]);
            if (clique.decode_packed(filter.push(raw[t]), correction) ==
                CliqueVerdict::Trivial) {
                frame.apply_mask(correction);
            }
        }
        raw[d] = frame.syndrome();
        trials.push_back(round_events(raw));
    }
    return trials;
}

/**
 * Share of `mwpm`'s decodes since (`certified0`, `blossom0`) that
 * skipped the blossom (MwpmDecoder::certified_decodes).
 */
double
certified_share(const MwpmDecoder &mwpm, uint64_t certified0,
                uint64_t blossom0)
{
    const double certified =
        static_cast<double>(mwpm.certified_decodes() - certified0);
    const double solved =
        static_cast<double>(mwpm.blossom_decodes() - blossom0);
    return certified + solved > 0 ? certified / (certified + solved) : 0.0;
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
    std::vector<PackedSyndrome> syndromes;
    for (int i = 0; i < 64; ++i) {
        syndromes.push_back(
            sample_packed(code, static_cast<int>(state.range(0)) / 2, rng));
    }
    Decoder::Result out;
    const uint64_t certified0 = mwpm.certified_decodes();
    const uint64_t blossom0 = mwpm.blossom_decodes();
    size_t i = 0;
    for (auto _ : state) {
        mwpm.decode_packed(syndromes[i++ & 63], out);
        benchmark::DoNotOptimize(out.weight);
    }
    state.counters["certified"] = certified_share(mwpm, certified0, blossom0);
}
BENCHMARK(BM_MwpmDecodeSyndrome)->Arg(5)->Arg(9)->Arg(21);

void
BM_UnionFindDecodeSyndrome(benchmark::State &state)
{
    const RotatedSurfaceCode code(static_cast<int>(state.range(0)));
    const UnionFindDecoder uf(code, CheckType::Z);
    Rng rng(4);
    std::vector<PackedSyndrome> syndromes;
    for (int i = 0; i < 64; ++i) {
        syndromes.push_back(
            sample_packed(code, static_cast<int>(state.range(0)) / 2, rng));
    }
    Decoder::Result out;
    size_t i = 0;
    for (auto _ : state) {
        uf.decode_packed(syndromes[i++ & 63], out);
        benchmark::DoNotOptimize(out.weight);
    }
}
BENCHMARK(BM_UnionFindDecodeSyndrome)->Arg(5)->Arg(9)->Arg(21);

/**
 * The packed-fast-path pairs (byte baseline vs word-parallel packed,
 * same pre-sampled inputs): Clique screening and noisy syndrome
 * extraction, followed by the Union-Find decoder on its stream-window
 * load (BM_UnionFindDecodeSyndrome times its single-round load). See
 * the archived BENCH_decoders.json for the measured trajectory.
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
    Decoder::Result out;
    size_t i = 0;
    for (auto _ : state) {
        uf.decode(windows[i++ & 63], kStreamWindow, out);
        benchmark::DoNotOptimize(out.weight);
    }
    state.counters["defects"] = defects;
}
BENCHMARK(BM_UnionFindDecodeWindow);

void
BM_UnionFindDecodePair(benchmark::State &state)
{
    // Two adjacent d=21 defects (clique neighbours, same round) in a
    // window of `range(0)` rounds: one growth round joins them. A
    // decode whose work follows its clusters costs the same at every
    // window depth.
    const int rounds = static_cast<int>(state.range(0));
    const RotatedSurfaceCode code(21);
    const UnionFindDecoder uf(code, CheckType::Z);
    Rng rng(33);
    std::vector<std::vector<DetectionEvent>> pairs;
    while (pairs.size() < 64) {
        const int c = static_cast<int>(
            rng.next_below(code.num_checks(CheckType::Z)));
        const auto neighbors = code.clique_neighbors(CheckType::Z, c);
        const int t = static_cast<int>(rng.next_below(rounds));
        if (!neighbors.empty()) {
            pairs.push_back({{c, t}, {neighbors.front().check, t}});
        }
    }
    Decoder::Result out;
    size_t i = 0;
    for (auto _ : state) {
        uf.decode(pairs[i++ & 63], rounds, out);
        benchmark::DoNotOptimize(out.weight);
    }
}
BENCHMARK(BM_UnionFindDecodePair)->Arg(8)->Arg(64)->Arg(512);

void
BM_LatticeBuild(benchmark::State &state)
{
    // The setup cost every (d, p) point of a sweep pays: building both
    // check types' tables of a fresh code.
    const int d = static_cast<int>(state.range(0));
    for (auto _ : state) {
        const RotatedSurfaceCode code(d);
        benchmark::DoNotOptimize(&code);
    }
}
BENCHMARK(BM_LatticeBuild)->Arg(9)->Arg(21)->Arg(81);

void
BM_CheckDistancesBuild(benchmark::State &state)
{
    // One check type's hop table and boundary retirement, the lazy
    // cost of the first matching decode on a code.
    const RotatedSurfaceCode code(static_cast<int>(state.range(0)));
    for (auto _ : state) {
        const CheckGraphDistances table(code, CheckType::Z);
        benchmark::DoNotOptimize(table.row(0));
    }
}
BENCHMARK(BM_CheckDistancesBuild)->Arg(9)->Arg(21)->Arg(81);

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
    // The memory experiment's matcher load (Fig. 14): memory-d9's
    // Clique-arm trials (d = 9, p = 1e-2, `memory_trials`), decoded
    // over d + 1 rounds by one pooled decoder into a pooled Result, as
    // `run_trial` does.
    const int d = 9;
    const RotatedSurfaceCode code(d);
    const MwpmDecoder mwpm(code, CheckType::Z);
    Rng rng(31);
    const std::vector<std::vector<DetectionEvent>> windows =
        memory_trials(code, 1e-2, rng);
    size_t defects = 0;
    for (const std::vector<DetectionEvent> &window : windows) {
        defects += window.size();
    }
    const uint64_t certified0 = mwpm.certified_decodes();
    const uint64_t blossom0 = mwpm.blossom_decodes();
    Decoder::Result out;
    size_t i = 0;
    for (auto _ : state) {
        mwpm.decode(windows[i++ & 63], d + 1, out);
        benchmark::DoNotOptimize(out.weight);
    }
    state.counters["defects"] = static_cast<double>(defects) / 64.0;
    state.counters["certified"] = certified_share(mwpm, certified0, blossom0);
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
    Decoder::Result out;
    const uint64_t certified0 = mwpm.certified_decodes();
    const uint64_t blossom0 = mwpm.blossom_decodes();
    size_t i = 0;
    for (auto _ : state) {
        mwpm.decode_matched(windows[i++ & 63], window, matches, out);
        benchmark::DoNotOptimize(out.weight);
    }
    state.counters["defects"] = defects;
    state.counters["certified"] = certified_share(mwpm, certified0, blossom0);
}
BENCHMARK(BM_MwpmDecodeWindow)->Args({8, 2})->Args({42, 21});

void
BM_LutDecode(benchmark::State &state)
{
    // The lookup-table tier: one syndrome-indexed read per decode.
    const RotatedSurfaceCode code(static_cast<int>(state.range(0)));
    const LookupTableDecoder lut(code, CheckType::Z);
    Rng rng(11);
    std::vector<PackedSyndrome> syndromes;
    for (int i = 0; i < 64; ++i) {
        syndromes.push_back(sample_packed(code, 2, rng));
    }
    Decoder::Result out;
    size_t i = 0;
    for (auto _ : state) {
        lut.decode_packed(syndromes[i++ & 63], out);
        benchmark::DoNotOptimize(out.weight);
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
    std::vector<PackedSyndrome> syndromes;
    for (int i = 0; i < 64; ++i) {
        syndromes.push_back(
            sample_packed(code, static_cast<int>(state.range(0)) / 2, rng));
    }
    const TierChain::Options options;
    TierChain::Result out;
    size_t i = 0;
    for (auto _ : state) {
        chain.decode_syndrome(syndromes[i++ & 63], options, out);
        benchmark::DoNotOptimize(out.decode.weight);
    }
}
BENCHMARK(BM_TierChainDeepDecode)->Arg(5)->Arg(9)->Arg(21);

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
    std::vector<PackedSyndrome> syndromes;
    for (int i = 0; i < 64; ++i) {
        syndromes.push_back(sample_packed(code, 3, rng));
    }
    Decoder::Result out;
    size_t i = 0;
    for (auto _ : state) {
        exact.decode_packed(syndromes[i++ & 63], out);
        benchmark::DoNotOptimize(out.weight);
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
