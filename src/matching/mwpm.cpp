#include "matching/mwpm.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>

#include "common/check.hpp"
#include "matching/blossom.hpp"
#include "matching/exact.hpp"
#include "surface/distance.hpp"

namespace btwc {

namespace {

/**
 * Largest defect count handed to the subset-DP matcher: O(2^k * k)
 * time and O(2^k) memory, so 18 keeps a single decode under ~5M ops.
 * Beyond it the ExactDp backend falls back to blossom (which the
 * property tests verify is exact anyway).
 */
constexpr int kExactDpMaxDefects = 18;

} // namespace

int
log_likelihood_weight(double p, double scale)
{
    BTWC_CHECK(p > 0.0 && p < 1.0);
    const double w = scale * std::log((1.0 - p) / p);
    return w < 1.0 ? 1 : static_cast<int>(std::lround(w));
}

/**
 * Persistent per-instance working set. Every array (and the blossom
 * matcher's dense edge matrix) holds on to its grown capacity, so
 * after the first few decodes the steady state allocates nothing —
 * this is what the `BM_MwpmDecodeSingle` benchmark measures. One
 * Scratch lives in each decoder (`MwpmDecoder::scratch_`); `decode`
 * and `decode_matched` both route through it. No pairwise distance
 * is stored: the blossom's weight rows are written straight from the
 * oracle, and the few distances needed after the solve are recomputed.
 */
struct MwpmDecoder::Scratch
{
    std::vector<int64_t> boundary_dist;  ///< b_i per defect
    std::vector<int> mate_defect;

    // Subset-DP bridge: k x k spacetime distances, -1 on the diagonal.
    std::vector<std::vector<int64_t>> dp_w;

    // Pooled pairing engine (MaxWeightMatching::load_rows).
    MaxWeightMatching matcher;
};

MwpmDecoder::MwpmDecoder(const RotatedSurfaceCode &code, CheckType detector,
                         int space_weight, int time_weight, Matcher matcher)
    : code_(code), detector_(detector), space_weight_(space_weight),
      time_weight_(time_weight), matcher_(matcher),
      scratch_(std::make_unique<Scratch>())
{
    BTWC_CHECK(space_weight >= 1 && time_weight >= 1);
}

MwpmDecoder::~MwpmDecoder() = default;

MwpmDecoder::Result
MwpmDecoder::decode(const std::vector<DetectionEvent> &events,
                    int rounds) const
{
    thread_owner_.assert_single_thread_owner();
    return decode_impl(events, rounds);
}

MwpmDecoder::Result
MwpmDecoder::decode_matched(const std::vector<DetectionEvent> &events,
                            int rounds, MwpmMatches &matches) const
{
    thread_owner_.assert_single_thread_owner();
    return decode_impl(events, rounds, &matches);
}

MwpmDecoder::Result
MwpmDecoder::decode_impl(const std::vector<DetectionEvent> &events,
                         int rounds, MwpmMatches *matches) const
{
    Result result;
    result.correction.assign(code_.num_data(), 0);
    result.defects = static_cast<int>(events.size());
    if (matches != nullptr) {
        matches->clear();
    }
    if (events.empty()) {
        return result;
    }
    BTWC_CHECK(rounds >= 1);

    Scratch &scratch = *scratch_;
    const int k = static_cast<int>(events.size());
    const size_t ks = static_cast<size_t>(k);
    const int64_t sw = space_weight_;
    const int64_t tw = time_weight_;

    // The spacetime graph is the Cartesian product of the check graph
    // and the round path, with one uniform weight per dimension, so a
    // distance is space hops * sw + time separation * tw, and a
    // boundary is nearest in the defect's own round. Both come from
    // the precomputed check-graph tables in O(1).
    const CheckGraphDistances &oracle = code_.check_distances(detector_);
    if (audit_basic()) {
        for (const DetectionEvent &e : events) {
            BTWC_CHECK(e.round >= 0 && e.round < rounds);
            BTWC_CHECK(e.check >= 0 && e.check < oracle.num_checks());
        }
    }
    auto distance = [&](int i, int j) -> int64_t {
        return oracle.distance(events[i].check, events[j].check) * sw +
               std::abs(events[i].round - events[j].round) * tw;
    };
    std::vector<int64_t> &boundary_dist = scratch.boundary_dist;
    boundary_dist.resize(ks);
    for (int i = 0; i < k; ++i) {
        boundary_dist[i] = (oracle.boundary_hops(events[i].check) + 1) * sw;
    }

    // Solve the pairing: mate_defect[i] is another defect index, or -1
    // for a boundary retirement.
    std::vector<int> &mate_defect = scratch.mate_defect;
    if (matcher_ == Matcher::ExactDp && k <= kExactDpMaxDefects) {
        std::vector<std::vector<int64_t>> &dp_w = scratch.dp_w;
        if (dp_w.size() < ks) {
            dp_w.resize(ks);
        }
        for (int i = 0; i < k; ++i) {
            dp_w[i].resize(ks);
            for (int j = 0; j < k; ++j) {
                dp_w[i][j] = distance(i, j);
            }
            dp_w[i][i] = -1;
        }
        const int64_t total = exact_min_weight_with_boundary_mates(
            k, dp_w, boundary_dist, mate_defect);
        BTWC_CHECK_MSG(total >= 0,
                       "defect graph always admits a boundary matching");
    } else {
        // Perfect matching on the k defects, plus one virtual boundary
        // vertex V = k when k is odd. Retiring both ends of a pair
        // costs b_i + b_j, so pair (i, j) costs
        // c_ij = min(w_ij, b_i + b_j) and (i, V) costs b_i. The
        // optimum equals the boundary matching's: its retirees pair
        // up at b_i + b_j >= c_ij, the odd one out taking V;
        // conversely a mate costing b_i + b_j splits into two
        // retirements. A mate with w_ij <= b_i + b_j maps back to a
        // direct pair, every other mate (V included) to boundary
        // retirements.
        //
        // No edge costs more than its endpoints' b (V's is 0), so no
        // perfect matching costs more than the sum of all b_i: with
        // `big` above it, a maximum-weight matching under weights
        // big - cost is a minimum-cost perfect matching, and every
        // weight is positive.
        const int n = k + (k & 1);
        int64_t big = 1;
        for (int i = 0; i < k; ++i) {
            big += boundary_dist[i];
        }
        MaxWeightMatching &solver = scratch.matcher;
        solver.load_rows(n, [&](int u, int64_t *row) {
            if (u == k) {
                return;  // V is the last vertex: its row is all mirror
            }
            // One read of u's hop row serves the whole weight row.
            const uint16_t *hops = oracle.row(events[u].check);
            const int ru = events[u].round;
            const int64_t bu = boundary_dist[u];
            for (int j = u + 1; j < k; ++j) {
                const int64_t w = hops[events[j].check] * sw +
                                  std::abs(ru - events[j].round) * tw;
                row[j] = big - std::min(w, bu + boundary_dist[j]);
            }
            if (n > k) {
                row[k] = big - bu;
            }
        });
        if (audit_deep()) {
            // Every loaded weight, re-derived from the closed form.
            for (int i = 0; i < n; ++i) {
                for (int j = 0; j < n; ++j) {
                    int64_t cost = 0;
                    if (i < k && j < k) {
                        cost = std::min(distance(i, j),
                                        boundary_dist[i] + boundary_dist[j]);
                    } else if (i < k || j < k) {
                        cost = boundary_dist[std::min(i, j)];
                    }
                    BTWC_CHECK_MSG(solver.edge_weight(i, j) ==
                                       (i == j ? 0 : big - cost),
                                   "a loaded weight is big - c_ij");
                }
            }
        }

        const std::vector<int> &mate = solver.solve();
        mate_defect.assign(ks, -1);
        for (int i = 0; i < k; ++i) {
            const int m = mate[i];
            BTWC_CHECK_MSG(m >= 0,
                           "a complete graph on an even vertex count "
                           "admits a perfect matching");
            if (i < m && m < k &&
                distance(i, m) <= boundary_dist[i] + boundary_dist[m]) {
                mate_defect[i] = m;
                mate_defect[m] = i;
            }
        }
    }

    // Path recovery: each path is the parent chain a Dijkstra from the
    // pair's lower endpoint would record, recomputed from distances
    // alone (the tie-breaking contract in surface/distance.hpp): with
    // tw > sw, the time step whenever r != r_src; with sw > tw, a space
    // step whenever c != c_src; with tw == sw, the first of (c, r-1), a
    // space step and (c, r+1) on a geodesic. A space step goes to the
    // smallest-id neighbour one hop closer.
    auto toggle = [&](int via) {
        result.correction[via] ^= 1;
        if (matches != nullptr) {
            matches->path_data.push_back(via);
        }
    };

    auto walk = [&](int i, int c, int r) {
        const int sc = events[i].check;
        const int sr = events[i].round;
        const uint16_t *hops = oracle.row(sc);
        while (c != sc || r != sr) {
            if (r != sr &&
                (c == sc || tw > sw || (tw == sw && r > sr))) {
                r += r < sr ? 1 : -1;
                continue;
            }
            const int want = hops[c] - 1;
            int next = std::numeric_limits<int>::max();
            int via = -1;
            for (const CliqueNeighbor &nb :
                 code_.clique_neighbors(detector_, c)) {
                if (nb.check < next && hops[nb.check] == want) {
                    next = nb.check;
                    via = nb.shared_data;
                }
            }
            BTWC_CHECK_MSG(via >= 0,
                           "a check off the source has a neighbour one "
                           "hop closer to it");
            c = next;
            toggle(via);
        }
    };

    for (int i = 0; i < k; ++i) {
        const int m = mate_defect[i];
        if (m >= 0 && m < i) {
            continue;  // pair already walked from its lower endpoint
        }
        const int path_begin =
            matches != nullptr ? static_cast<int>(matches->path_data.size())
                               : 0;
        int64_t pair_weight = 0;
        if (m < 0) {
            // Boundary retirement: path to the nearest boundary qubit.
            pair_weight = boundary_dist[i];
            const int bc = oracle.boundary_check(events[i].check);
            toggle(code_.boundary_data(detector_, bc)[0]);
            walk(i, bc, events[i].round);
        } else {
            pair_weight = distance(i, m);
            walk(i, events[m].check, events[m].round);
        }
        result.weight += pair_weight;
        if (matches != nullptr) {
            matches->pairs.push_back(
                {i, m, pair_weight, path_begin,
                 static_cast<int>(matches->path_data.size())});
        }
    }
    return result;
}

} // namespace btwc
