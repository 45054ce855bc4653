/**
 * @file
 * Golden pin of the Union-Find decoder's results. `tests/golden/
 * uf_decodes.txt` records, for every seeded instance below, the defect
 * count, the correction weight, the growth effort and an FNV-1a-64 of
 * the correction's set data-qubit indices. The file was generated once
 * from the decoder as it stood before its per-call state became
 * incremental (every call then reset whole-window arrays), so any
 * later drift in which correction the cluster growth and peeling
 * produce fails here.
 *
 * Six corpora:
 *   decode    one decoder per configuration over d in {5, 9, 13, 21} x
 *             rounds in {1, 8, d+1} x both detectors, at noise rates
 *             chosen so defect counts run from 0 to over 100;
 *   stream    one pooled d=21 decoder per detector over 8-round
 *             windows shaped like the stream screen's input: every
 *             event lies in rounds 0-5 and carried checks, presented
 *             first at round 0, may repeat a round-0 event;
 *   pool      one pooled d=9 decoder across shuffled round counts,
 *             dense and sparse inputs, duplicate events, empty event
 *             lists and immediately repeated inputs;
 *   boundary  d=21, 8 rounds: a lone defect on every boundary-adjacent
 *             check, and windows crowded onto those checks, so the
 *             boundary-rooted peel walks many grown half-edges;
 *   deep      d in {9, 21} x 32 and 64 rounds: noise windows and
 *             measurement-error strings joined only by time edges;
 *   flush     one pooled d=21 decoder per detector whose round count
 *             cycles 8 -> 3 -> 8 -> 2, the stream's flush-tail pattern.
 *
 * The first three were generated from the decoder as it stood before
 * its per-call state became incremental; the last three from the
 * decoder as it stood before its per-call work came to follow its
 * clusters (window-wide bitsets and a topology cached per round
 * count). The decode and pool corpora run consecutive calls on one
 * instance at an unchanged round count, and the pool and flush corpora
 * change the round count between calls, so state leaking from one
 * call into the next (the between-call invariant in union_find.hpp)
 * fails here too.
 *
 * Each line reads `<label> <defects> <weight> <effort> <fnv1a64 hex>`;
 * lines starting with '#' are comments.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "golden_corpus.hpp"
#include "matching/union_find.hpp"
#include "surface/lattice.hpp"

#ifndef BTWC_GOLDEN_DIR
#error "BTWC_GOLDEN_DIR must name the tests/golden directory"
#endif

namespace btwc {
namespace {

/** Decode once and format the instance's golden line. */
std::string
decode_line(const std::string &label, const UnionFindDecoder &uf,
            const std::vector<DetectionEvent> &events, int rounds)
{
    const Decoder::Result result = uf.decode(events, rounds);
    uint64_t h = kFnvOffset;
    result.correction.for_each_set(
        [&h](int i) { h = fnv1a(h, static_cast<int64_t>(i)); });
    char buf[160];
    std::snprintf(buf, sizeof buf, "%s %d %" PRId64 " %d %016" PRIx64,
                  label.c_str(), result.defects, result.weight,
                  result.effort, h);
    return buf;
}

void
append_decode_corpus(std::vector<std::string> &lines)
{
    // Target defect counts, two instances each; p is set from the
    // spacetime node count so every configuration sweeps empty to
    // dense (small lattices cap out at their node count).
    constexpr int kTargets = 13;
    const int targets[kTargets] = {0,  2,  4,  6,  10, 16, 24,
                                   32, 40, 56, 72, 96, 128};
    for (const int d : {5, 9, 13, 21}) {
        const RotatedSurfaceCode code(d);
        for (const int rounds : {1, 8, d + 1}) {
            for (const CheckType det : {CheckType::X, CheckType::Z}) {
                const UnionFindDecoder uf(code, det);
                Rng rng(1000003ull * static_cast<uint64_t>(d) +
                        101ull * static_cast<uint64_t>(rounds) +
                        static_cast<uint64_t>(det));
                const double nodes =
                    static_cast<double>(rounds * code.num_checks(det));
                for (int i = 0; i < 2 * kTargets; ++i) {
                    const double p =
                        std::min(0.2, targets[i / 2] / (5.0 * nodes));
                    const std::vector<DetectionEvent> events =
                        phenomenological_events(code, det, rounds, p, true,
                                                rng);
                    lines.push_back(decode_line(
                        "decode:d" + std::to_string(d) + ":r" +
                            std::to_string(rounds) + ":" +
                            check_type_name(det) + ":" + std::to_string(i),
                        uf, events, rounds));
                }
            }
        }
    }
}

void
append_stream_corpus(std::vector<std::string> &lines)
{
    // The stream screen's view of a W=8, V=2 window: buffered events
    // in the commit region [0, 6) at relative rounds, preceded by up
    // to three carried defects at round 0, half of which repeat the
    // check of a buffered round-0 event.
    constexpr int kWindow = 8;
    constexpr int kCommit = 6;
    const double rates[] = {1e-3, 1e-3, 3e-3, 1e-2};
    const RotatedSurfaceCode code(21);
    for (const CheckType det : {CheckType::X, CheckType::Z}) {
        const UnionFindDecoder uf(code, det);
        Rng rng(2100 + static_cast<uint64_t>(det));
        for (int i = 0; i < 240; ++i) {
            const std::vector<DetectionEvent> buffered =
                phenomenological_events(code, det, kCommit, rates[i % 4],
                                        false, rng);
            std::vector<int> round0;
            for (const DetectionEvent &e : buffered) {
                if (e.round == 0) {
                    round0.push_back(e.check);
                }
            }
            std::vector<DetectionEvent> events;
            const int carried = static_cast<int>(rng.next_below(4));
            for (int c = 0; c < carried; ++c) {
                const bool repeat = !round0.empty() && rng.bernoulli(0.5);
                const int check =
                    repeat ? round0[rng.next_below(round0.size())]
                           : static_cast<int>(
                                 rng.next_below(code.num_checks(det)));
                events.push_back(DetectionEvent{check, 0});
            }
            events.insert(events.end(), buffered.begin(), buffered.end());
            lines.push_back(decode_line("stream:" +
                                            std::string(check_type_name(det)) +
                                            ":" + std::to_string(i),
                                        uf, events, kWindow));
        }
    }
}

void
append_pool_corpus(std::vector<std::string> &lines)
{
    const int round_choices[] = {1, 2, 3, 5, 8, 10};
    const RotatedSurfaceCode code(9);
    const int nc = code.num_checks(CheckType::Z);
    const UnionFindDecoder uf(code, CheckType::Z);
    Rng rng(20261017);
    std::vector<DetectionEvent> events;
    int rounds = 1;
    for (int iter = 0; iter < 480; ++iter) {
        // Every fifth instance repeats the previous input verbatim;
        // the rest draw a fresh round count, density and event list.
        if (iter % 5 != 4) {
            rounds = round_choices[rng.next_below(6)];
            events.clear();
            if (iter % 8 != 7) {
                const double density =
                    iter % 3 == 0 ? 0.4 * rng.next_double()
                                  : 0.05 * rng.next_double();
                for (int t = 0; t < rounds; ++t) {
                    for (int c = 0; c < nc; ++c) {
                        if (rng.bernoulli(density)) {
                            events.push_back(DetectionEvent{c, t});
                        }
                    }
                }
                if (!events.empty() && rng.bernoulli(0.25)) {
                    events.push_back(events[rng.next_below(events.size())]);
                }
            }
        }
        lines.push_back(
            decode_line("pool:" + std::to_string(iter), uf, events, rounds));
    }
}

void
append_boundary_corpus(std::vector<std::string> &lines)
{
    // d=21, W=8. Lone defects on every boundary-adjacent check at the
    // window's first, a middle and its last round, then windows whose
    // defects crowd the boundary-adjacent checks (and their clique
    // neighbours), so a boundary-rooted peel walks many grown
    // half-edges.
    constexpr int kWindow = 8;
    const RotatedSurfaceCode code(21);
    for (const CheckType det : {CheckType::X, CheckType::Z}) {
        const std::string tag = check_type_name(det);
        const UnionFindDecoder uf(code, det);
        std::vector<int> edge_checks;
        for (int c = 0; c < code.num_checks(det); ++c) {
            if (!code.boundary_data(det, c).empty()) {
                edge_checks.push_back(c);
            }
        }
        for (const int c : edge_checks) {
            for (const int t : {0, 3, kWindow - 1}) {
                lines.push_back(decode_line(
                    "boundary:" + tag + ":lone:" + std::to_string(c) + ":" +
                        std::to_string(t),
                    uf, {DetectionEvent{c, t}}, kWindow));
            }
        }
        Rng rng(2121 + static_cast<uint64_t>(det));
        for (int i = 0; i < 120; ++i) {
            std::vector<DetectionEvent> events;
            const int count = 1 + static_cast<int>(rng.next_below(40));
            for (int k = 0; k < count; ++k) {
                int c = edge_checks[rng.next_below(edge_checks.size())];
                const auto nbs = code.clique_neighbors(det, c);
                if (!nbs.empty() && rng.bernoulli(0.3)) {
                    c = nbs[rng.next_below(nbs.size())].check;
                }
                events.push_back(DetectionEvent{
                    c, static_cast<int>(rng.next_below(kWindow))});
            }
            lines.push_back(decode_line("boundary:" + tag + ":crowd:" +
                                            std::to_string(i),
                                        uf, events, kWindow));
        }
    }
}

void
append_deep_corpus(std::vector<std::string> &lines)
{
    // Windows of 32 and 64 rounds: phenomenological noise swept from
    // sparse to dense, then measurement-error strings (one check
    // firing at two rounds a gap apart), which only time edges join.
    const double rates[] = {2e-4, 1e-3, 3e-3, 1e-2};
    for (const int d : {9, 21}) {
        const RotatedSurfaceCode code(d);
        for (const int rounds : {32, 64}) {
            for (const CheckType det : {CheckType::X, CheckType::Z}) {
                const std::string label =
                    "deep:d" + std::to_string(d) + ":r" +
                    std::to_string(rounds) + ":" + check_type_name(det);
                const UnionFindDecoder uf(code, det);
                Rng rng(3200 + 7ull * static_cast<uint64_t>(d) +
                        static_cast<uint64_t>(rounds) +
                        static_cast<uint64_t>(det));
                for (int i = 0; i < 16; ++i) {
                    const std::vector<DetectionEvent> events =
                        phenomenological_events(code, det, rounds,
                                                rates[i % 4] * 5.0 / d,
                                                i % 2 == 0, rng);
                    lines.push_back(decode_line(
                        label + ":noise:" + std::to_string(i), uf, events,
                        rounds));
                }
                const int nc = code.num_checks(det);
                for (int i = 0; i < 16; ++i) {
                    std::vector<DetectionEvent> events;
                    const int strings = 1 + static_cast<int>(rng.next_below(4));
                    for (int k = 0; k < strings; ++k) {
                        const int c = static_cast<int>(rng.next_below(nc));
                        const int gap =
                            1 + static_cast<int>(rng.next_below(12));
                        const int t = static_cast<int>(
                            rng.next_below(rounds - gap));
                        events.push_back(DetectionEvent{c, t});
                        events.push_back(DetectionEvent{c, t + gap});
                    }
                    lines.push_back(decode_line(
                        label + ":time:" + std::to_string(i), uf, events,
                        rounds));
                }
            }
        }
    }
}

void
append_flush_corpus(std::vector<std::string> &lines)
{
    // One pooled d=21 decoder per detector whose round count cycles
    // 8 -> 3 -> 8 -> 2, the stream's pattern when a run's screened
    // windows alternate with flush tails; every instance is a noisy
    // window cut from a stream, plus up to two carried round-0
    // defects.
    const int cycle[] = {8, 3, 8, 2};
    const double rates[] = {1e-3, 3e-3, 1e-3, 1e-2};
    const RotatedSurfaceCode code(21);
    for (const CheckType det : {CheckType::X, CheckType::Z}) {
        const UnionFindDecoder uf(code, det);
        const int nc = code.num_checks(det);
        Rng rng(8382 + static_cast<uint64_t>(det));
        for (int i = 0; i < 96; ++i) {
            const int rounds = cycle[i % 4];
            std::vector<DetectionEvent> events;
            const int carried = static_cast<int>(rng.next_below(3));
            for (int c = 0; c < carried; ++c) {
                events.push_back(DetectionEvent{
                    static_cast<int>(rng.next_below(nc)), 0});
            }
            const std::vector<DetectionEvent> noise = phenomenological_events(
                code, det, rounds, rates[(i / 4) % 4], false, rng);
            events.insert(events.end(), noise.begin(), noise.end());
            lines.push_back(decode_line("flush:" +
                                            std::string(check_type_name(det)) +
                                            ":" + std::to_string(i),
                                        uf, events, rounds));
        }
    }
}

/** Every corpus line, in file order. */
std::vector<std::string>
uf_corpus()
{
    std::vector<std::string> lines;
    append_decode_corpus(lines);
    append_stream_corpus(lines);
    append_pool_corpus(lines);
    append_boundary_corpus(lines);
    append_deep_corpus(lines);
    append_flush_corpus(lines);
    return lines;
}

TEST(UnionFindGolden, MatchesCommittedDecodes)
{
    const std::string path =
        std::string(BTWC_GOLDEN_DIR) + "/uf_decodes.txt";
    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << path;
    std::vector<std::string> golden;
    for (std::string line; std::getline(in, line);) {
        if (!line.empty() && line[0] != '#') {
            golden.push_back(line);
        }
    }
    const std::vector<std::string> fresh = uf_corpus();
    ASSERT_GE(fresh.size(), 1000u);
    ASSERT_EQ(golden.size(), fresh.size());
    int mismatches = 0;
    int min_defects = 1 << 30;
    int max_defects = 0;
    for (size_t i = 0; i < fresh.size(); ++i) {
        if (golden[i] != fresh[i] && ++mismatches <= 10) {
            ADD_FAILURE() << "golden " << golden[i] << "\nfresh  "
                          << fresh[i];
        }
        if (fresh[i].rfind("decode:", 0) == 0) {
            char label[64];
            int defects = 0;
            ASSERT_EQ(
                std::sscanf(fresh[i].c_str(), "%63s %d", label, &defects),
                2);
            min_defects = std::min(min_defects, defects);
            max_defects = std::max(max_defects, defects);
        }
    }
    EXPECT_EQ(mismatches, 0);
    EXPECT_EQ(min_defects, 0);
    EXPECT_GT(max_defects, 100);
}

} // namespace
} // namespace btwc
