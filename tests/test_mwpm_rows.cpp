/**
 * @file
 * Pins `MwpmDecoder`'s one-pass row fill against the instance build it
 * replaced. The reference below is that earlier build, kept only here:
 * a k x k matrix of spacetime distances, pair cost
 * min(w_ij, b_i + b_j), one `MaxWeightMatching::set_weight` call per
 * pair (plus the virtual boundary vertex's column for odd k), the
 * direct-pair test and the pair weights read back from that matrix, and
 * a geodesic walk that asks the oracle for every distance. For the
 * subset-DP matcher the reference hands the same k x k matrix to
 * `exact_min_weight_with_boundary_mates`.
 *
 * `decode_matched` must return the reference's pairs, pair weights and
 * path toggles, in order, and the same Result. Instances are random
 * sets of distinct spacetime nodes with k = 0..100 defects (odd and
 * even), over d in {5, 9, 13}, both detectors, both matchers, and the
 * (space, time) weight pairs of tests/golden/mwpm_corrections.txt,
 * `memory-weighted`'s (482, 412) among them.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <set>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "matching/blossom.hpp"
#include "matching/exact.hpp"
#include "matching/mwpm.hpp"
#include "surface/distance.hpp"
#include "surface/lattice.hpp"

namespace btwc {
namespace {

/** Largest k the decoder hands to the subset DP (mwpm.cpp). */
constexpr int kExactDpMaxDefects = 18;

/** The earlier instance build and walk, one decode at a time. */
class ReferenceDecoder
{
  public:
    ReferenceDecoder(const RotatedSurfaceCode &code, CheckType detector,
                     int space_weight, int time_weight,
                     MwpmDecoder::Matcher matcher)
        : code_(code), detector_(detector), sw_(space_weight),
          tw_(time_weight), matcher_(matcher)
    {
    }

    Decoder::Result decode(const std::vector<DetectionEvent> &events,
                           MwpmMatches &matches)
    {
        Decoder::Result result;
        result.correction.assign(code_.num_data(), 0);
        result.defects = static_cast<int>(events.size());
        matches.clear();
        const int k = static_cast<int>(events.size());
        const size_t ks = static_cast<size_t>(k);
        const CheckGraphDistances &oracle = code_.check_distances(detector_);

        std::vector<int64_t> boundary(ks);
        std::vector<int64_t> w(ks * ks, -1);
        for (int i = 0; i < k; ++i) {
            boundary[i] = (oracle.boundary_hops(events[i].check) + 1) * sw_;
            for (int j = 0; j < i; ++j) {
                const int64_t d =
                    oracle.distance(events[i].check, events[j].check) * sw_ +
                    std::abs(events[i].round - events[j].round) * tw_;
                w[static_cast<size_t>(i) * ks + j] = d;
                w[static_cast<size_t>(j) * ks + i] = d;
            }
        }
        auto at = [&](int i, int j) {
            return w[static_cast<size_t>(i) * ks + j];
        };

        std::vector<int> mate_defect(ks, -1);
        if (matcher_ == MwpmDecoder::Matcher::ExactDp &&
            k <= kExactDpMaxDefects) {
            std::vector<std::vector<int64_t>> dp_w(ks);
            for (int i = 0; i < k; ++i) {
                dp_w[i].assign(w.begin() + static_cast<long>(i * ks),
                               w.begin() + static_cast<long>((i + 1) * ks));
                dp_w[i][i] = -1;
            }
            EXPECT_GE(exact_min_weight_with_boundary_mates(k, dp_w, boundary,
                                                           mate_defect),
                      0);
        } else if (k > 0) {
            auto direct = [&](int i, int j) {
                return at(i, j) <= boundary[i] + boundary[j];
            };
            const int n = k + (k & 1);
            solver_.reset(n);
            int64_t big = 1;
            for (int i = 0; i < k; ++i) {
                big += boundary[i];
            }
            for (int i = 0; i < k; ++i) {
                for (int j = i + 1; j < k; ++j) {
                    const int64_t cost = direct(i, j)
                                             ? at(i, j)
                                             : boundary[i] + boundary[j];
                    solver_.set_weight(i, j, big - cost);
                }
                if (n > k) {
                    solver_.set_weight(i, k, big - boundary[i]);
                }
            }
            const std::vector<int> &mate = solver_.solve();
            for (int i = 0; i < k; ++i) {
                EXPECT_GE(mate[i], 0);
                if (mate[i] >= 0 && mate[i] < k && direct(i, mate[i])) {
                    mate_defect[i] = mate[i];
                }
            }
        }

        auto toggle = [&](int via) {
            result.correction[via] ^= 1;
            matches.path_data.push_back(via);
        };
        auto walk = [&](int i, int c, int r) {
            const int sc = events[i].check;
            const int sr = events[i].round;
            while (c != sc || r != sr) {
                if (r != sr &&
                    (c == sc || tw_ > sw_ || (tw_ == sw_ && r > sr))) {
                    r += r < sr ? 1 : -1;
                    continue;
                }
                const int want = oracle.distance(sc, c) - 1;
                int next = std::numeric_limits<int>::max();
                int via = -1;
                for (const CliqueNeighbor &nb :
                     code_.clique_neighbors(detector_, c)) {
                    if (nb.check < next &&
                        oracle.distance(sc, nb.check) == want) {
                        next = nb.check;
                        via = nb.shared_data;
                    }
                }
                if (via < 0) {
                    ADD_FAILURE() << "no neighbour one hop closer";
                    return;
                }
                c = next;
                toggle(via);
            }
        };
        for (int i = 0; i < k; ++i) {
            const int m = mate_defect[i];
            if (m >= 0 && m < i) {
                continue;
            }
            const int path_begin = static_cast<int>(matches.path_data.size());
            int64_t pair_weight = 0;
            if (m < 0) {
                pair_weight = boundary[i];
                const int bc = oracle.boundary_check(events[i].check);
                toggle(code_.boundary_data(detector_, bc)[0]);
                walk(i, bc, events[i].round);
            } else {
                pair_weight = at(i, m);
                walk(i, events[m].check, events[m].round);
            }
            result.weight += pair_weight;
            matches.pairs.push_back(
                {i, m, pair_weight, path_begin,
                 static_cast<int>(matches.path_data.size())});
        }
        return result;
    }

  private:
    const RotatedSurfaceCode &code_;
    CheckType detector_;
    int64_t sw_;
    int64_t tw_;
    MwpmDecoder::Matcher matcher_;
    MaxWeightMatching solver_;  // pooled, as the decoder's was
};

/** k distinct (check, round) nodes drawn uniformly. */
std::vector<DetectionEvent>
random_events(int num_checks, int rounds, int k, Rng &rng)
{
    std::vector<DetectionEvent> events;
    std::set<std::pair<int, int>> used;
    while (static_cast<int>(events.size()) < k) {
        const int c = static_cast<int>(rng.next_below(num_checks));
        const int t = static_cast<int>(rng.next_below(rounds));
        if (used.insert({c, t}).second) {
            events.push_back(DetectionEvent{c, t});
        }
    }
    return events;
}

void
expect_same_decode(const Decoder::Result &got, const MwpmMatches &got_m,
                   const Decoder::Result &want, const MwpmMatches &want_m)
{
    EXPECT_EQ(got.weight, want.weight);
    EXPECT_EQ(got.defects, want.defects);
    EXPECT_EQ(got.correction, want.correction);
    ASSERT_EQ(got_m.pairs.size(), want_m.pairs.size());
    for (size_t p = 0; p < want_m.pairs.size(); ++p) {
        const MwpmMatches::Pair &g = got_m.pairs[p];
        const MwpmMatches::Pair &w = want_m.pairs[p];
        EXPECT_EQ(g.a, w.a) << "pair " << p;
        EXPECT_EQ(g.b, w.b) << "pair " << p;
        EXPECT_EQ(g.weight, w.weight) << "pair " << p;
        ASSERT_EQ(g.path_end - g.path_begin, w.path_end - w.path_begin)
            << "pair " << p;
        for (int t = 0; t < w.path_end - w.path_begin; ++t) {
            EXPECT_EQ(got_m.path_data[g.path_begin + t],
                      want_m.path_data[w.path_begin + t])
                << "pair " << p << " toggle " << t;
        }
    }
}

TEST(MwpmRows, RowFillMatchesTheSetWeightReference)
{
    const int weights[][2] = {{1, 1}, {3, 2}, {2, 3},    {5, 5},
                              {5, 1}, {1, 5}, {482, 412}};
    int odd = 0;
    int even = 0;
    int max_k = 0;
    for (const int d : {5, 9, 13}) {
        const RotatedSurfaceCode code(d);
        for (const CheckType det : {CheckType::X, CheckType::Z}) {
            const int num_checks = code.num_checks(det);
            for (const auto &w : weights) {
                for (const MwpmDecoder::Matcher matcher :
                     {MwpmDecoder::Matcher::Blossom,
                      MwpmDecoder::Matcher::ExactDp}) {
                    // One decoder and one reference per configuration,
                    // so pooled state carries across instances on both.
                    const MwpmDecoder decoder(code, det, w[0], w[1], matcher);
                    ReferenceDecoder reference(code, det, w[0], w[1],
                                               matcher);
                    MwpmMatches got_m;
                    MwpmMatches want_m;
                    Rng rng(7000 + 100 * static_cast<uint64_t>(d) +
                            10 * static_cast<uint64_t>(det) +
                            static_cast<uint64_t>(w[0] + 3 * w[1]) +
                            static_cast<uint64_t>(matcher));
                    for (int iter = 0; iter < 10; ++iter) {
                        const int rounds = 1 + static_cast<int>(
                                                   rng.next_below(d + 1));
                        // Small counts first (the DP's range), then up
                        // to 100, capped by the node count.
                        const int limit = iter < 5 ? 20 : 101;
                        const int k = std::min(
                            static_cast<int>(rng.next_below(limit)),
                            rounds * num_checks);
                        const std::vector<DetectionEvent> events =
                            random_events(num_checks, rounds, k, rng);
                        const Decoder::Result want =
                            reference.decode(events, want_m);
                        const Decoder::Result got =
                            decoder.decode_matched(events, rounds, got_m);
                        SCOPED_TRACE(::testing::Message()
                                     << "d=" << d << " det="
                                     << check_type_name(det) << " sw=" << w[0]
                                     << " tw=" << w[1] << " matcher="
                                     << static_cast<int>(matcher)
                                     << " k=" << k << " rounds=" << rounds);
                        expect_same_decode(got, got_m, want, want_m);
                        (k % 2 == 1 ? odd : even) += 1;
                        max_k = std::max(max_k, k);
                    }
                }
            }
        }
    }
    EXPECT_GE(odd, 100);
    EXPECT_GE(even, 100);
    EXPECT_GE(max_k, 95);
}

} // namespace
} // namespace btwc
