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

/**
 * Smallest uncapped instance worth domination-pruning: below this the
 * complete-graph blossom is already cheap and the O(k^2 log k)
 * selection is pure overhead (measured: no win at k ~ 17, ~1.5x at
 * k ~ 130). Skipping also makes small decodes — the BtwcSystem
 * per-cycle common case — structurally identical to the
 * complete-graph solve.
 */
constexpr int kSparseMinDefects = 32;

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

    // Sparse candidate selection.
    std::vector<int> nbr_order;
    std::vector<uint8_t> keep;  ///< k x k candidate-edge flags

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
    BTWC_CHECK(fast_.knn >= 0);
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
        // Build the 2k matching instance in the pooled solver:
        // defects 0..k-1, boundary twins k..2k-1, twin-twin edges
        // free. Under sparse_candidates each defect offers only its
        // knn nearest non-dominated partners (an edge costing more
        // than the two boundary retirements it replaces is in no
        // optimal matching), symmetrically unioned; boundary and twin
        // edges always survive, so a perfect matching always exists.
        // Skip the selection when it cannot pay for itself: uncapped,
        // below kSparseMinDefects; capped, below the cap + 1 (where
        // the kNN union is the complete graph anyway). Small
        // instances — the common case — then pay zero overhead and
        // match the complete-graph solve identically by construction.
        const int cap = fast_.knn == 0 ? k : fast_.knn;
        const int min_defects =
            fast_.knn == 0 ? kSparseMinDefects : fast_.knn + 1;
        uint8_t *keep = nullptr;
        if (fast_.sparse_candidates && k > min_defects) {
            scratch.keep.assign(ks * ks, 0);
            keep = scratch.keep.data();
            std::vector<int> &order = scratch.nbr_order;
            for (int i = 0; i < k; ++i) {
                const int64_t *row = &defect_w[static_cast<size_t>(i) * ks];
                order.clear();
                for (int j = 0; j < k; ++j) {
                    if (j != i && row[j] >= 0) {
                        order.push_back(j);
                    }
                }
                std::sort(order.begin(), order.end(),
                          [row](int a, int b) {
                              return row[a] != row[b] ? row[a] < row[b]
                                                      : a < b;
                          });
                int taken = 0;
                for (const int j : order) {
                    if (taken >= cap) {
                        break;
                    }
                    if (boundary_dist[i] >= 0 && boundary_dist[j] >= 0 &&
                        row[j] > boundary_dist[i] + boundary_dist[j]) {
                        continue;  // strictly dominated by boundaries
                    }
                    keep[static_cast<size_t>(i) * ks + j] = 1;
                    keep[static_cast<size_t>(j) * ks + i] = 1;
                    ++taken;
                }
            }
        }

        const int n = 2 * k;
        MaxWeightMatching &solver = scratch.matcher;
        solver.reset(n);
        int64_t total = 0;
        for (int i = 0; i < k; ++i) {
            for (int j = i + 1; j < k; ++j) {
                const int64_t w = defect_w[static_cast<size_t>(i) * ks + j];
                if (w >= 0 &&
                    (keep == nullptr ||
                     keep[static_cast<size_t>(i) * ks + j])) {
                    total += w;
                }
            }
            if (boundary_dist[i] >= 0) {
                total += boundary_dist[i];
            }
        }
        const int64_t big = total + 1;
        for (int i = 0; i < k; ++i) {
            for (int j = i + 1; j < k; ++j) {
                const int64_t w = defect_w[static_cast<size_t>(i) * ks + j];
                if (w >= 0 &&
                    (keep == nullptr ||
                     keep[static_cast<size_t>(i) * ks + j])) {
                    solver.set_weight(i, j, big - w);
                }
            }
            if (boundary_dist[i] >= 0) {
                solver.set_weight(i, k + i, big - boundary_dist[i]);
            }
            for (int j = i + 1; j < k; ++j) {
                solver.set_weight(k + i, k + j, big);
            }
        }

        const std::vector<int> &mate = solver.solve();
        mate_defect.assign(ks, -1);
        for (int i = 0; i < k; ++i) {
            BTWC_CHECK_MSG(mate[i] >= 0,
                           "defect graph always admits a perfect matching");
            // Matched to own boundary twin (twin-twin edges are only
            // interconnected among themselves) or to another defect.
            mate_defect[i] = mate[i] < k ? mate[i] : -1;
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
