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
 * Three corpora:
 *   decode  one decoder per configuration over d in {5, 9, 13, 21} x
 *           rounds in {1, 8, d+1} x both detectors, at noise rates
 *           chosen so defect counts run from 0 to over 100;
 *   stream  one pooled d=21 decoder per detector over 8-round windows
 *           shaped like the stream screen's input: every event lies
 *           in rounds 0-5 and carried checks, presented first at
 *           round 0, may repeat a round-0 event;
 *   pool    one pooled d=9 decoder across shuffled round counts,
 *           dense and sparse inputs, duplicate events, empty event
 *           lists and immediately repeated inputs.
 *
 * The decode and pool corpora run consecutive calls on one instance
 * at an unchanged round count, so state leaking from one call into
 * the next (the between-call invariant in union_find.hpp) fails here
 * too.
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
    for (size_t i = 0; i < result.correction.size(); ++i) {
        if ((result.correction[i] & 1) != 0) {
            h = fnv1a(h, static_cast<int64_t>(i));
        }
    }
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

/** Every corpus line, in file order. */
std::vector<std::string>
uf_corpus()
{
    std::vector<std::string> lines;
    append_decode_corpus(lines);
    append_stream_corpus(lines);
    append_pool_corpus(lines);
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
