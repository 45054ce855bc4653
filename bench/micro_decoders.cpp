/**
 * @file
 * Google-benchmark microbenchmarks for the decode pipeline: per-cycle
 * Clique decisions, the measurement filter, MWPM and Union-Find
 * decodes, and the full BTWC system step. These back the paper's
 * architectural argument that the common case must be cheap: Clique's
 * per-cycle work is orders of magnitude below MWPM's.
 */

#include <benchmark/benchmark.h>

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

/** Detection events of a full d-round spacetime window at p = 5e-3. */
std::vector<DetectionEvent>
sample_window(const RotatedSurfaceCode &code, Rng &rng)
{
    const int d = code.distance();
    ErrorFrame frame(code, CheckType::X);
    std::vector<std::vector<uint8_t>> raw(d + 1);
    std::vector<DetectionEvent> events;
    for (int t = 0; t < d; ++t) {
        frame.inject(5e-3, rng);
        frame.measure(5e-3, rng, raw[t]);
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
 * The packed-fast-path trio (byte baseline vs word-parallel packed,
 * same pre-sampled inputs): Clique screening, the Union-Find mid-tier
 * and noisy syndrome extraction. The acceptance bar is >= 2x on the
 * Clique screen and UF decode at d = 21; see the archived
 * BENCH_decoders.json for the measured trajectory.
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
BM_UnionFindDecodeByte(benchmark::State &state)
{
    // The original allocate-per-call implementation, kept as the
    // pinned reference (UnionFindDecoder::decode_reference).
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
        benchmark::DoNotOptimize(uf.decode_reference(events[i++ & 63], 1));
    }
}
BENCHMARK(BM_UnionFindDecodeByte)->Arg(9)->Arg(21);

void
BM_UnionFindDecodePacked(benchmark::State &state)
{
    // The packed fast path: cached topology, bitset cluster state,
    // pooled scratch (bit-exact with the byte reference).
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
 * The perf-gate pair: single-shot spacetime decodes (a fresh window
 * per slot, varied inputs) through the fast path — distance oracle +
 * sparse candidates + pooled per-instance scratch, the production
 * default — against the legacy per-defect Dijkstra + complete-graph
 * configuration (bit-exact results, tests/test_fastpath.cpp). The
 * acceptance bar is >= 3x at d >= 11; see the archived
 * BENCH_decoders.json for the measured trajectory.
 */
void
run_single_decode(benchmark::State &state, const FastPathConfig &config)
{
    const int d = static_cast<int>(state.range(0));
    const RotatedSurfaceCode code(d);
    const MwpmDecoder mwpm(code, CheckType::Z, 1, 1,
                           MwpmDecoder::Matcher::Blossom, config);
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

void
BM_MwpmDecodeSingle(benchmark::State &state)
{
    run_single_decode(state, FastPathConfig::fast());
}
BENCHMARK(BM_MwpmDecodeSingle)->Arg(11)->Arg(15)->Arg(21);

void
BM_MwpmDecodeSingleLegacy(benchmark::State &state)
{
    run_single_decode(state, FastPathConfig::legacy());
}
BENCHMARK(BM_MwpmDecodeSingleLegacy)->Arg(11)->Arg(15)->Arg(21);

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
    // Batched off-chip decoding (the async service's drain path):
    // decode_batch reuses one graph scratch across the batch, vs the
    // per-call setup of looping decode (BM_MwpmDecodeLoop).
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
BM_MwpmDecodeLoop(benchmark::State &state)
{
    // Baseline for BM_MwpmDecodeBatch: same inputs, one decode call
    // (and one scratch allocation) per item.
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
        for (const auto &events : batch) {
            benchmark::DoNotOptimize(mwpm.decode(events, 1));
        }
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MwpmDecodeLoop)->Arg(4)->Arg(16)->Arg(64);

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
