/**
 * @file
 * Golden pin of `MwpmDecoder`'s corrections. `tests/golden/
 * mwpm_corrections.txt` records, for every seeded instance below, the
 * defect count, the matched weight and an FNV-1a-64 over the solved
 * pairing as `decode_matched` reports it: each pair's endpoints
 * (a, b) followed by its path's data-qubit toggles, in order. The file
 * was generated once from the per-defect Dijkstra the distance oracle
 * replaced, so it pins that the oracle's distances and geodesic walk
 * reproduce the Dijkstra's parent chains exactly, under unit and
 * non-unit weights alike.
 *
 * Three corpora:
 *   unit      unit weights over d in {3, 5, 7, 9} x both detectors x
 *             rounds in {1, 3, d+1} x {Blossom, ExactDp};
 *   wide      d=13, d+1 rounds, windows of at least 140 defects;
 *   weighted  (space, time) weights in {(3,2), (2,3), (5,5), (5,1),
 *             (1,5), (482,412)} over d in {5, 9} x both detectors x
 *             rounds in {3, d+1} x {Blossom, ExactDp}; (482, 412) are
 *             `memory-weighted`'s log-likelihood weights.
 *
 * Each configuration decodes its whole corpus through one decoder
 * instance, so state leaking between calls fails here too.
 *
 * Each line reads `<label> <defects> <weight> <fnv1a64 hex>`; lines
 * starting with '#' are comments.
 */

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "golden_corpus.hpp"
#include "matching/mwpm.hpp"
#include "surface/lattice.hpp"

#ifndef BTWC_GOLDEN_DIR
#error "BTWC_GOLDEN_DIR must name the tests/golden directory"
#endif

namespace btwc {
namespace {

/** Decode once through `decode_matched` and format the golden line. */
std::string
decode_line(const std::string &label, const MwpmDecoder &decoder,
            const std::vector<DetectionEvent> &events, int rounds,
            MwpmMatches &matches)
{
    const MwpmDecoder::Result result =
        decoder.decode_matched(events, rounds, matches);
    uint64_t h = kFnvOffset;
    for (const MwpmMatches::Pair &pair : matches.pairs) {
        h = fnv1a(h, pair.a);
        h = fnv1a(h, pair.b);
        for (int i = pair.path_begin; i < pair.path_end; ++i) {
            h = fnv1a(h, matches.path_data[i]);
        }
    }
    char buf[160];
    std::snprintf(buf, sizeof buf, "%s %d %" PRId64 " %016" PRIx64,
                  label.c_str(), result.defects, result.weight, h);
    return buf;
}

const char *
matcher_name(MwpmDecoder::Matcher matcher)
{
    return matcher == MwpmDecoder::Matcher::Blossom ? "blossom"
                                                     : "exactdp";
}

/**
 * `count` instances per configuration at p = 0.01 .. 0.05, through one
 * decoder per (d, detector, matcher, weights).
 */
void
append_grid(std::vector<std::string> &lines, const std::string &prefix,
            const std::vector<int> &distances, int space_weight,
            int time_weight, bool short_windows, int count)
{
    for (const int d : distances) {
        const RotatedSurfaceCode code(d);
        for (const CheckType det : {CheckType::X, CheckType::Z}) {
            for (const MwpmDecoder::Matcher matcher :
                 {MwpmDecoder::Matcher::Blossom,
                  MwpmDecoder::Matcher::ExactDp}) {
                const MwpmDecoder decoder(code, det, space_weight,
                                          time_weight, matcher);
                MwpmMatches matches;
                std::vector<int> round_counts = {3, d + 1};
                if (short_windows) {
                    round_counts.insert(round_counts.begin(), 1);
                }
                for (const int rounds : round_counts) {
                    Rng rng(1000003ull * static_cast<uint64_t>(d) +
                            101ull * static_cast<uint64_t>(rounds) +
                            7919ull *
                                static_cast<uint64_t>(space_weight) +
                            31ull * static_cast<uint64_t>(time_weight) +
                            static_cast<uint64_t>(det));
                    for (int i = 0; i < count; ++i) {
                        const double p = 0.01 + 0.01 * (i % 5);
                        const std::vector<DetectionEvent> events =
                            phenomenological_events(code, det, rounds, p,
                                                    true, rng);
                        lines.push_back(decode_line(
                            prefix + ":d" + std::to_string(d) + ":" +
                                check_type_name(det) + ":r" +
                                std::to_string(rounds) + ":" +
                                matcher_name(matcher) + ":" +
                                std::to_string(i),
                            decoder, events, rounds, matches));
                    }
                }
            }
        }
    }
}

void
append_wide_corpus(std::vector<std::string> &lines)
{
    // Four windows of >= 140 defects per detector: the blossom's large
    // instances.
    const int d = 13;
    const int rounds = d + 1;
    const RotatedSurfaceCode code(d);
    for (const CheckType det : {CheckType::X, CheckType::Z}) {
        const MwpmDecoder decoder(code, det);
        MwpmMatches matches;
        Rng rng(1300 + static_cast<uint64_t>(det));
        int decoded = 0;
        for (int iter = 0; iter < 40 && decoded < 4; ++iter) {
            const std::vector<DetectionEvent> events =
                phenomenological_events(code, det, rounds, 0.03, true,
                                        rng);
            if (events.size() < 140) {
                continue;
            }
            const std::string label = "wide:d13:" +
                                      std::string(check_type_name(det)) +
                                      ":" + std::to_string(decoded);
            lines.push_back(
                decode_line(label, decoder, events, rounds, matches));
            ++decoded;
        }
    }
}

void
append_weighted_corpus(std::vector<std::string> &lines)
{
    const int weights[][2] = {{3, 2}, {2, 3}, {5, 5},
                              {5, 1}, {1, 5}, {482, 412}};
    for (const auto &w : weights) {
        append_grid(lines,
                    "weighted:s" + std::to_string(w[0]) + "t" +
                        std::to_string(w[1]),
                    {5, 9}, w[0], w[1], false, 10);
    }
}

/** Every corpus line, in file order. */
std::vector<std::string>
correction_corpus()
{
    std::vector<std::string> lines;
    append_grid(lines, "unit", {3, 5, 7, 9}, 1, 1, true, 30);
    append_wide_corpus(lines);
    append_weighted_corpus(lines);
    return lines;
}

TEST(MwpmCorrectionsGolden, MatchesCommittedCorrections)
{
    const std::string path =
        std::string(BTWC_GOLDEN_DIR) + "/mwpm_corrections.txt";
    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << path;
    std::vector<std::string> golden;
    for (std::string line; std::getline(in, line);) {
        if (!line.empty() && line[0] != '#') {
            golden.push_back(line);
        }
    }
    const std::vector<std::string> fresh = correction_corpus();
    ASSERT_EQ(golden.size(), fresh.size());
    int mismatches = 0;
    int wide = 0;
    for (size_t i = 0; i < fresh.size(); ++i) {
        if (golden[i] != fresh[i] && ++mismatches <= 10) {
            ADD_FAILURE() << "golden " << golden[i] << "\nfresh  "
                          << fresh[i];
        }
        wide += fresh[i].rfind("wide:", 0) == 0 ? 1 : 0;
    }
    EXPECT_EQ(mismatches, 0);
    EXPECT_EQ(wide, 8) << "the wide corpus must reach large windows";
}

} // namespace
} // namespace btwc
