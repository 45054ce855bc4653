/**
 * @file
 * Golden pin of the matcher's tie-breaking. `tests/golden/
 * mwpm_pairings.txt` records, for every seeded instance below, the
 * defect count, the matched weight, and an FNV-1a-64 of the solved
 * pair (or mate) list. The pool lines were generated once from the
 * blossom engine as it stood before its storage was flattened, the
 * general lines from the flat engine before it gained its speculative
 * stage; any later drift in which of several equal-weight matchings
 * the engine returns fails here, even where the weight (and hence
 * every optimality check) is unchanged.
 *
 * The decode lines were first generated with the pool lines. Their
 * hash column was regenerated once when `MwpmDecoder` stopped solving
 * a 2k-vertex boundary-twin instance and began solving the k defects
 * (plus one virtual boundary vertex for odd k) with pair costs
 * min(w_ij, b_i + b_j): the matcher sees a different graph, so it may
 * return a different one of several equal-weight matchings. Their
 * defects and weight columns were left unchanged by that
 * regeneration.
 *
 * Three corpora:
 *   decode   `MwpmDecoder::decode_matched` over d in {5, 9, 13, 21} x
 *            rounds in {1, 8, d+1} x both detectors, at noise rates
 *            chosen so defect counts run from 0 to over 100;
 *   pool     one pooled `MaxWeightMatching` solving random
 *            twin-construction instances with weights in 1..4 (dense
 *            ties), their sizes shrinking and growing at random;
 *   general  one pooled `MaxWeightMatching` solving random graphs
 *            without the twin structure (n in 1..64, odd n included,
 *            edge density 0.1..1, weights in 1..4 or 1..1000, sizes
 *            shrinking, growing and repeating), where dual
 *            adjustments come early and blossoms nest in other
 *            shapes; then `min_weight_perfect_matching` on even-n
 *            graphs with missing edges (label `mwpm:`, weight -1 when
 *            no perfect matching exists).
 *
 * Each line reads `<label> <defects> <weight> <fnv1a64 hex>`; lines
 * starting with '#' are comments. The decode corpus takes both of
 * `MwpmDecoder`'s paths, the certificate and the blossom
 * (`MwpmCertified.PairingGoldenCorpusTakesBothPaths`), so its lines
 * pin the certified pairings too.
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
#include "matching/blossom.hpp"
#include "matching/mwpm.hpp"
#include "surface/lattice.hpp"

#ifndef BTWC_GOLDEN_DIR
#error "BTWC_GOLDEN_DIR must name the tests/golden directory"
#endif

namespace btwc {
namespace {

std::string
format_line(const std::string &label, int defects, int64_t weight,
            uint64_t hash)
{
    char buf[128];
    std::snprintf(buf, sizeof buf, "%s %d %" PRId64 " %016" PRIx64,
                  label.c_str(), defects, weight, hash);
    return buf;
}

/** Decodes of the `decode:` corpus by path (MwpmDecoder counters). */
struct DecodePaths
{
    uint64_t certified = 0;
    uint64_t certified_large = 0;  ///< k >= 3: the certificate itself
    uint64_t solved = 0;
};

void
append_decode_corpus(std::vector<std::string> &lines,
                     DecodePaths *paths = nullptr)
{
    // Target defect counts, two instances each; p is set from the
    // spacetime node count so every configuration sweeps sparse to
    // dense (small lattices cap out at their node count).
    constexpr int kTargets = 12;
    const int targets[kTargets] = {2,  4,  6,  10, 16, 24,
                                   32, 40, 56, 72, 96, 128};
    for (const int d : {5, 9, 13, 21}) {
        const RotatedSurfaceCode code(d);
        for (const int rounds : {1, 8, d + 1}) {
            for (const CheckType det : {CheckType::X, CheckType::Z}) {
                const MwpmDecoder decoder(code, det);
                MwpmMatches matches;
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
                    const uint64_t certified0 = decoder.certified_decodes();
                    Decoder::Result result;
                    decoder.decode_matched(events, rounds, matches, result);
                    if (paths != nullptr && events.size() >= 3) {
                        paths->certified_large +=
                            decoder.certified_decodes() - certified0;
                    }
                    uint64_t h = kFnvOffset;
                    for (const MwpmMatches::Pair &pair : matches.pairs) {
                        h = fnv1a(h, pair.a);
                        h = fnv1a(h, pair.b);
                    }
                    lines.push_back(format_line(
                        "decode:d" + std::to_string(d) + ":r" +
                            std::to_string(rounds) + ":" +
                            check_type_name(det) + ":" +
                            std::to_string(i),
                        result.defects, result.weight, h));
                }
                if (paths != nullptr) {
                    paths->certified += decoder.certified_decodes();
                    paths->solved += decoder.blossom_decodes();
                }
            }
        }
    }
}

void
append_pool_corpus(std::vector<std::string> &lines)
{
    Rng rng(20231013);
    MaxWeightMatching pooled;
    for (int iter = 0; iter < 400; ++iter) {
        // Mostly small instances with an occasional large one, so the
        // pooled solver keeps shrinking into and regrowing out of
        // regions earlier blossoms wrote.
        const int k = iter % 8 == 7
                          ? 30 + static_cast<int>(rng.next_below(31))
                          : 1 + static_cast<int>(rng.next_below(24));
        const int n = 2 * k;
        std::vector<int64_t> w(static_cast<size_t>(n) * n, -1);
        auto at = [&w, n](int u, int v) -> int64_t & {
            return w[static_cast<size_t>(u) * n + v];
        };
        for (int i = 0; i < k; ++i) {
            for (int j = i + 1; j < k; ++j) {
                if (rng.bernoulli(0.6)) {
                    at(i, j) = 1 + static_cast<int64_t>(rng.next_below(4));
                }
                at(k + i, k + j) = 0;
            }
            at(i, k + i) = 1 + static_cast<int64_t>(rng.next_below(3));
        }
        int64_t total = 0;
        for (int u = 0; u < n; ++u) {
            for (int v = u + 1; v < n; ++v) {
                total += std::max<int64_t>(at(u, v), 0);
            }
        }
        pooled.reset(n);
        for (int u = 0; u < n; ++u) {
            for (int v = u + 1; v < n; ++v) {
                if (at(u, v) >= 0) {
                    pooled.set_weight(u, v, total + 1 - at(u, v));
                }
            }
        }
        uint64_t h = kFnvOffset;
        for (const int mate : pooled.solve()) {
            h = fnv1a(h, mate);
        }
        lines.push_back(format_line("pool:" + std::to_string(iter), k,
                                    pooled.total_weight(), h));
    }
}

void
append_general_corpus(std::vector<std::string> &lines)
{
    Rng rng(20261017);
    MaxWeightMatching pooled;
    int n = 0;
    for (int iter = 0; iter < 480; ++iter) {
        // Every fourth instance repeats the previous size with new
        // weights; the rest draw a fresh size, so the pooled solver
        // shrinks, grows and re-solves at one stride.
        if (iter % 4 != 3) {
            n = 1 + static_cast<int>(rng.next_below(64));
        }
        const double density = 0.1 + 0.9 * rng.next_double();
        const uint64_t max_w = iter % 2 == 0 ? 4 : 1000;
        pooled.reset(n);
        for (int u = 0; u < n; ++u) {
            for (int v = u + 1; v < n; ++v) {
                if (rng.bernoulli(density)) {
                    pooled.set_weight(
                        u, v, 1 + static_cast<int64_t>(rng.next_below(max_w)));
                }
            }
        }
        uint64_t h = kFnvOffset;
        for (const int mate : pooled.solve()) {
            h = fnv1a(h, mate);
        }
        lines.push_back(format_line("general:" + std::to_string(iter), n,
                                    pooled.total_weight(), h));
    }
    for (int iter = 0; iter < 120; ++iter) {
        const int m = 2 * (1 + static_cast<int>(rng.next_below(20)));
        const double density = 0.2 + 0.8 * rng.next_double();
        const uint64_t max_w = iter % 2 == 0 ? 5 : 1000;
        std::vector<std::vector<int64_t>> w(
            static_cast<size_t>(m), std::vector<int64_t>(m, -1));
        for (int u = 0; u < m; ++u) {
            for (int v = u + 1; v < m; ++v) {
                if (rng.bernoulli(density)) {
                    w[u][v] = w[v][u] =
                        static_cast<int64_t>(rng.next_below(max_w));
                }
            }
        }
        const std::vector<int> mate = min_weight_perfect_matching(m, w);
        int64_t weight = mate.empty() ? -1 : 0;
        uint64_t h = kFnvOffset;
        for (int u = 0; u < static_cast<int>(mate.size()); ++u) {
            h = fnv1a(h, mate[u]);
            if (mate[u] > u) {
                weight += w[u][mate[u]];
            }
        }
        lines.push_back(
            format_line("mwpm:" + std::to_string(iter), m, weight, h));
    }
}

/** Every corpus line, in file order. */
std::vector<std::string>
pairing_corpus()
{
    std::vector<std::string> lines;
    append_decode_corpus(lines);
    append_pool_corpus(lines);
    append_general_corpus(lines);
    return lines;
}

TEST(MwpmPairingGolden, MatchesCommittedPairings)
{
    const std::string path =
        std::string(BTWC_GOLDEN_DIR) + "/mwpm_pairings.txt";
    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << path;
    std::vector<std::string> golden;
    for (std::string line; std::getline(in, line);) {
        if (!line.empty() && line[0] != '#') {
            golden.push_back(line);
        }
    }
    const std::vector<std::string> fresh = pairing_corpus();
    ASSERT_GE(fresh.size(), 500u);
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
    // The decode corpus must run from tiny to large windows.
    EXPECT_LE(min_defects, 2);
    EXPECT_GT(max_defects, 100);
}

TEST(MwpmCertified, PairingGoldenCorpusTakesBothPaths)
{
    // The committed `decode:` lines pin the certified path as well as
    // the blossom: both must carry a share of the corpus, and the
    // certified share must include k >= 3 instances, which only the
    // dual certificate settles (k <= 2 is forced).
    std::vector<std::string> lines;
    DecodePaths paths;
    append_decode_corpus(lines, &paths);
    EXPECT_GT(paths.certified_large, 20u);
    EXPECT_GT(paths.certified, paths.certified_large);
    EXPECT_GT(paths.solved, 50u);
}

} // namespace
} // namespace btwc
