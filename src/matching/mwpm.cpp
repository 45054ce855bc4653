#include "matching/mwpm.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <queue>

#include "common/check.hpp"
#include "matching/blossom.hpp"
#include "matching/exact.hpp"
#include "surface/distance.hpp"

namespace btwc {

namespace {

constexpr int kNoNode = -1;

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
 * this is what the `BM_MwpmDecodeSingle*` benchmarks measure. One
 * Scratch lives in each decoder (`MwpmDecoder::scratch_`); `decode`,
 * `decode_batch`, and the tier-chain resume paths all route through
 * it.
 */
struct MwpmDecoder::Scratch
{
    // Dijkstra fallback: per-defect distance and parent arrays over
    // the full spacetime graph (only touched on the legacy path).
    std::vector<std::vector<int>> dist;
    std::vector<std::vector<int>> parent_node;
    std::vector<std::vector<int>> parent_data;
    std::vector<int> boundary_node;
    std::vector<int> boundary_via;

    // Shared by both paths.
    std::vector<int64_t> boundary_dist;
    std::vector<int64_t> defect_w;  ///< k x k pairwise distances, flat
    std::vector<int> mate_defect;

    // Subset-DP bridge (row-matrix view over `defect_w`).
    std::vector<std::vector<int64_t>> dp_w;

    // Pooled pairing engine (MaxWeightMatching::reset).
    MaxWeightMatching matcher;

    void prepare_dijkstra(int defects)
    {
        const size_t k = static_cast<size_t>(defects);
        if (dist.size() < k) {
            dist.resize(k);
            parent_node.resize(k);
            parent_data.resize(k);
        }
        boundary_node.resize(k);
        boundary_via.resize(k);
    }
};

MwpmDecoder::MwpmDecoder(const RotatedSurfaceCode &code, CheckType detector,
                         int space_weight, int time_weight, Matcher matcher,
                         FastPathConfig fast)
    : code_(code), detector_(detector),
      num_checks_(code.num_checks(detector)),
      space_weight_(space_weight), time_weight_(time_weight),
      matcher_(matcher), fast_(fast),
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
    return decode_impl(events, rounds, *scratch_);
}

std::vector<MwpmDecoder::Result>
MwpmDecoder::decode_batch(
    const std::vector<std::vector<DetectionEvent>> &batch, int rounds) const
{
    thread_owner_.assert_single_thread_owner();
    std::vector<Result> results;
    results.reserve(batch.size());
    for (const std::vector<DetectionEvent> &events : batch) {
        results.push_back(decode_impl(events, rounds, *scratch_));
    }
    return results;
}

MwpmDecoder::Result
MwpmDecoder::decode_matched(const std::vector<DetectionEvent> &events,
                            int rounds, MwpmMatches &matches) const
{
    thread_owner_.assert_single_thread_owner();
    return decode_impl(events, rounds, *scratch_, &matches);
}

MwpmDecoder::Result
MwpmDecoder::decode_impl(const std::vector<DetectionEvent> &events,
                         int rounds, Scratch &scratch,
                         MwpmMatches *matches) const
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

    const int k = static_cast<int>(events.size());
    const size_t ks = static_cast<size_t>(k);

    // Fast path: with uniform per-dimension weights the spacetime
    // graph is the Cartesian product of the check graph and the round
    // path, so distances decompose into space hops + time separation
    // and come from the precomputed oracle in O(1). Non-unit weights
    // would also decompose, but the legacy Dijkstra is kept as the
    // exact reference/fallback there (and for the bit-exactness
    // property tests).
    const bool fast = fast_.distance_oracle && space_weight_ == 1 &&
                      time_weight_ == 1;
    const CheckGraphDistances *oracle =
        fast ? &code_.check_distances(detector_) : nullptr;

    std::vector<int64_t> &boundary_dist = scratch.boundary_dist;
    std::vector<int64_t> &defect_w = scratch.defect_w;
    boundary_dist.assign(ks, -1);
    defect_w.assign(ks * ks, -1);

    if (fast) {
        for (int i = 0; i < k; ++i) {
            BTWC_AUDIT(events[i].round >= 0 && events[i].round < rounds);
            BTWC_AUDIT(events[i].check >= 0 && events[i].check < num_checks_);
            boundary_dist[i] =
                oracle->boundary_hops(events[i].check) + 1;
            for (int j = 0; j < i; ++j) {
                const int64_t w =
                    oracle->distance(events[i].check, events[j].check) +
                    std::abs(events[i].round - events[j].round);
                defect_w[static_cast<size_t>(i) * ks + j] = w;
                defect_w[static_cast<size_t>(j) * ks + i] = w;
            }
        }
    } else {
        // Per-defect Dijkstra over the spacetime graph: distances to
        // every node plus parent pointers for path recovery.
        // parent_data records the data qubit of a space edge (or -1
        // for a time edge). With unit weights this degenerates to
        // breadth-first search.
        const int num_nodes = rounds * num_checks_;
        scratch.prepare_dijkstra(k);
        std::vector<std::vector<int>> &dist = scratch.dist;
        std::vector<std::vector<int>> &parent_node = scratch.parent_node;
        std::vector<std::vector<int>> &parent_data = scratch.parent_data;
        std::vector<int> &boundary_node = scratch.boundary_node;
        std::vector<int> &boundary_via = scratch.boundary_via;

        for (int i = 0; i < k; ++i) {
            BTWC_AUDIT(events[i].round >= 0 && events[i].round < rounds);
            BTWC_AUDIT(events[i].check >= 0 && events[i].check < num_checks_);
            dist[i].assign(num_nodes, -1);
            parent_node[i].assign(num_nodes, kNoNode);
            parent_data[i].assign(num_nodes, -1);
            boundary_dist[i] = -1;
            boundary_node[i] = kNoNode;
            boundary_via[i] = -1;

            const int src = node_id(events[i].check, events[i].round);
            using HeapEntry = std::pair<int, int>;  // (distance, node)
            std::priority_queue<HeapEntry, std::vector<HeapEntry>,
                                std::greater<HeapEntry>>
                frontier;
            dist[i][src] = 0;
            frontier.push({0, src});
            while (!frontier.empty()) {
                const auto [cur_dist, cur] = frontier.top();
                frontier.pop();
                if (cur_dist != dist[i][cur]) {
                    continue;  // stale entry
                }
                const int check = cur % num_checks_;
                const int round = cur / num_checks_;

                // Boundary half-edges cost one space weight; the first
                // settled boundary-adjacent node is optimal because
                // the hop cost is uniform.
                if (boundary_dist[i] < 0 &&
                    !code_.boundary_data(detector_, check).empty()) {
                    boundary_dist[i] = cur_dist + space_weight_;
                    boundary_node[i] = cur;
                    boundary_via[i] =
                        code_.boundary_data(detector_, check)[0];
                }

                auto relax = [&](int node, int via_data, int weight) {
                    const int cand = cur_dist + weight;
                    if (dist[i][node] < 0 || cand < dist[i][node]) {
                        dist[i][node] = cand;
                        parent_node[i][node] = cur;
                        parent_data[i][node] = via_data;
                        frontier.push({cand, node});
                    }
                };
                for (const CliqueNeighbor &nb :
                     code_.clique_neighbors(detector_, check)) {
                    relax(node_id(nb.check, round), nb.shared_data,
                          space_weight_);
                }
                if (round + 1 < rounds) {
                    relax(node_id(check, round + 1), -1, time_weight_);
                }
                if (round > 0) {
                    relax(node_id(check, round - 1), -1, time_weight_);
                }
            }
        }

        // Defect-defect pairing distances, shared by both matcher
        // backends (a divergence here would silently desynchronize the
        // exact-DP oracle from the production blossom matcher).
        for (int i = 0; i < k; ++i) {
            for (int j = i + 1; j < k; ++j) {
                const int nj = node_id(events[j].check, events[j].round);
                const int d = dist[i][nj];
                if (d >= 0) {
                    defect_w[static_cast<size_t>(i) * ks + j] = d;
                    defect_w[static_cast<size_t>(j) * ks + i] = d;
                }
            }
        }
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
            dp_w[i].assign(defect_w.begin() + static_cast<size_t>(i) * ks,
                           defect_w.begin() +
                               static_cast<size_t>(i + 1) * ks);
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
        // c_ij = min(w_ij, b_i + b_j) (b_i + b_j alone when w_ij is
        // missing) and (i, V) costs b_i. The optimum equals the
        // boundary matching's: its retirees pair up at
        // b_i + b_j >= c_ij, the odd one out taking V; conversely a
        // mate costing b_i + b_j splits into two retirements. A mate
        // with w_ij <= b_i + b_j maps back to a direct pair, every
        // other mate (V included) to boundary retirements.
        auto direct = [&](int i, int j) {
            const int64_t w = defect_w[static_cast<size_t>(i) * ks + j];
            return w >= 0 && w <= boundary_dist[i] + boundary_dist[j];
        };

        const int n = k + (k & 1);
        MaxWeightMatching &solver = scratch.matcher;
        solver.reset(n);
        // No edge costs more than its endpoints' b (V's is 0), so no
        // perfect matching costs more than the sum of all b_i: with
        // `big` above it, a maximum-weight matching under weights
        // big - cost is a minimum-cost perfect matching.
        int64_t big = 1;
        for (int i = 0; i < k; ++i) {
            BTWC_CHECK_MSG(boundary_dist[i] >= 0,
                           "every defect reaches the boundary");
            big += boundary_dist[i];
        }
        for (int i = 0; i < k; ++i) {
            for (int j = i + 1; j < k; ++j) {
                const int64_t cost =
                    direct(i, j) ? defect_w[static_cast<size_t>(i) * ks + j]
                                 : boundary_dist[i] + boundary_dist[j];
                solver.set_weight(i, j, big - cost);
            }
            if (n > k) {
                solver.set_weight(i, k, big - boundary_dist[i]);
            }
        }

        const std::vector<int> &mate = solver.solve();
        mate_defect.assign(ks, -1);
        for (int i = 0; i < k; ++i) {
            BTWC_CHECK_MSG(mate[i] >= 0,
                           "a complete graph on an even vertex count "
                           "admits a perfect matching");
            if (mate[i] < k && direct(i, mate[i])) {
                mate_defect[i] = mate[i];
            }
        }
    }

    // Path recovery. The fast walk reproduces the legacy parent
    // chains exactly: Dijkstra settles equal-distance nodes in node-id
    // order, so the parent of node v is its smallest-id neighbor one
    // hop closer to the source — recomputable from distances alone,
    // no parent arrays needed. Corrections are therefore bit-exact
    // between the two paths (pinned by tests/test_fastpath.cpp).
    auto toggle = [&](int via) {
        result.correction[via] ^= 1;
        if (matches != nullptr) {
            matches->path_data.push_back(via);
        }
    };

    auto oracle_walk = [&](int i, int to_check, int to_round) {
        const int sc = events[i].check;
        const int sr = events[i].round;
        int c = to_check;
        int r = to_round;
        int cur_d = oracle->distance(sc, c) + std::abs(r - sr);
        while (cur_d > 0) {
            const int want = cur_d - 1;
            int via = -1;
            // Candidates in node-id order: (c, r-1) precedes every
            // same-round space neighbor, which precede (c, r+1).
            if (r > 0 &&
                oracle->distance(sc, c) + std::abs(r - 1 - sr) == want) {
                --r;
            } else {
                int best_check = std::numeric_limits<int>::max();
                for (const CliqueNeighbor &nb :
                     code_.clique_neighbors(detector_, c)) {
                    if (nb.check < best_check &&
                        oracle->distance(sc, nb.check) +
                                std::abs(r - sr) ==
                            want) {
                        best_check = nb.check;
                        via = nb.shared_data;
                    }
                }
                if (via >= 0) {
                    c = best_check;
                    toggle(via);
                } else {
                    // Only the forward time edge can be closer.
                    BTWC_DCHECK(r + 1 < rounds);
                    ++r;
                }
            }
            --cur_d;
        }
        BTWC_AUDIT_MSG(c == sc && r == sr,
                       "geodesic walk must terminate at the source defect");
    };

    auto legacy_walk_back = [&](int i, int from_node) {
        // XOR the space-edge data qubits on the path from `from_node`
        // back to defect i's source node.
        int cur = from_node;
        while (scratch.parent_node[i][cur] != kNoNode) {
            const int via = scratch.parent_data[i][cur];
            if (via >= 0) {
                toggle(via);
            }
            cur = scratch.parent_node[i][cur];
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
            if (fast) {
                const int bc = oracle->boundary_check(events[i].check);
                toggle(code_.boundary_data(detector_, bc)[0]);
                oracle_walk(i, bc, events[i].round);
            } else {
                toggle(scratch.boundary_via[i]);
                legacy_walk_back(i, scratch.boundary_node[i]);
            }
        } else {
            pair_weight = defect_w[static_cast<size_t>(i) * ks + m];
            if (fast) {
                oracle_walk(i, events[m].check, events[m].round);
            } else {
                legacy_walk_back(
                    i, node_id(events[m].check, events[m].round));
            }
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
