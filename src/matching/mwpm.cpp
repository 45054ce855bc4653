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
 * Scratch lives in each decoder (`MwpmDecoder::scratch_`); every
 * decode entry point routes through it.
 */
struct MwpmDecoder::Scratch
{
    std::vector<int64_t> boundary_dist;  ///< b_i per defect
    std::vector<int> mate_defect;

    // Certificate attempt: the spacetime distance of every defect pair
    // (row-major k x k, only the part right of the diagonal written),
    // each defect's nearest-defect key and the doubled duals.
    std::vector<int64_t> dist;
    std::vector<uint64_t> nearest;
    std::vector<int64_t> dual;
    std::vector<int> audit_mate;  ///< deep audit: the blossom's pairing

    // Subset-DP bridge: k x k spacetime distances, -1 on the diagonal.
    std::vector<std::vector<int64_t>> dp_w;

    // Pooled pairing engine (MaxWeightMatching::load_rows).
    MaxWeightMatching matcher;
};

namespace {

/**
 * k >= 3 instances with 2 k^2 > rounds * num_checks skip the
 * certificate and go straight to the blossom. The certificate needs
 * every defect clear of rivals, and the expected number of defect
 * pairs within a given distance grows as k^2 over the spacetime node
 * count. Near k^2 / nodes = 1/2 about one attempt in five certifies
 * (single-round d=11 syndromes at k=5, memory-d9's d=9 trials at
 * k=12-14), below what repays the failed ones; stream-d21's windows
 * (k^2 / nodes ~0.07) certify ~80%, memory-d9's typical trials (k~25,
 * ~1.6) under 5%, and d=21 spacetime windows at p=5e-3 (k~130, ~3.4)
 * none.
 */
constexpr int64_t kCertifyCrowding = 2;

/**
 * One pass over the k defect pairs: defect u's distances come from one
 * read of its check's hop row into row u of the row-major k x k table
 * `dist` (right of the diagonal only), and each pair updates both
 * endpoints' nearest defect, keyed (w << shift) | index so that the
 * minimum is the first index at the least distance: selects, not
 * data-dependent branches. A free function of plain values, so no
 * scalar of the caller is reloaded after each table store.
 */
void
scan_pairs(const CheckGraphDistances &oracle, const DetectionEvent *events,
           int k, int64_t sw, int64_t tw, int shift, int64_t *dist,
           uint64_t *nearest)
{
    const size_t ks = static_cast<size_t>(k);
    std::fill_n(nearest, ks, std::numeric_limits<uint64_t>::max());
    for (int u = 0; u < k; ++u) {
        const uint16_t *hops = oracle.row(events[u].check);
        const int ru = events[u].round;
        int64_t *row = dist + static_cast<size_t>(u) * ks;
        uint64_t best = nearest[u];
        for (int j = u + 1; j < k; ++j) {
            const int64_t w = hops[events[j].check] * sw +
                              std::abs(ru - events[j].round) * tw;
            row[j] = w;
            const uint64_t key = static_cast<uint64_t>(w) << shift;
            best = std::min(best, key | static_cast<uint64_t>(j));
            nearest[j] = std::min(nearest[j], key | static_cast<uint64_t>(u));
        }
        nearest[u] = best;
    }
}

/**
 * The pairing of a certified k >= 3 instance, or false. `dist` holds
 * the pair distances right of the diagonal of a row-major k x k
 * table, `b` the boundary distances, and `nearest[i]` is
 * (w_ij << shift) | j for i's nearest defect j, the first index at the
 * least distance (the caller guarantees that no distance overflows
 * its field).
 *
 * The candidate pairs mutual-nearest defects whose distance beats both
 * retirements (w_ij < b_i + b_j) and retires the rest; it is returned
 * only under strict complementary slackness of the doubled duals Y
 * (Y_i = w_ij paired, 2 b_i retired): Y_i < 2 b_i for every paired i
 * and Y_i + Y_j < 2 w_ij for every pair outside it, which makes it the
 * unique optimal boundary matching (src/decoders/README.md,
 * "Certified instances"). The tests run cheapest first and the
 * attempt stops at the first violation: the paired defects' slack,
 * every defect against its nearest (the pair most likely to fail),
 * then the full sweep.
 */
bool
certify(int k, const int64_t *dist, const int64_t *b, const uint64_t *nearest,
        int shift, int64_t *dual, int *mate)
{
    const size_t ks = static_cast<size_t>(k);
    const uint64_t mask = (uint64_t{1} << shift) - 1;
    for (int i = 0; i < k; ++i) {
        const int j = static_cast<int>(nearest[i] & mask);
        const int64_t wij = static_cast<int64_t>(nearest[i] >> shift);
        const bool paired = static_cast<int>(nearest[j] & mask) == i &&
                            wij < b[i] + b[j];
        if (paired && wij >= 2 * b[i]) {
            return false;
        }
        mate[i] = paired ? j : -1;
        dual[i] = paired ? wij : 2 * b[i];
    }
    for (int i = 0; i < k; ++i) {
        const int j = static_cast<int>(nearest[i] & mask);
        const int64_t wij = static_cast<int64_t>(nearest[i] >> shift);
        if (mate[i] != j && dual[i] + dual[j] >= 2 * wij) {
            return false;
        }
    }
    for (int i = 0; i < k; ++i) {
        const int64_t *row = dist + static_cast<size_t>(i) * ks;
        const int64_t yi = dual[i];
        const int mi = mate[i];
        for (int j = i + 1; j < k; ++j) {
            if (yi + dual[j] >= 2 * row[j] && j != mi) {
                return false;
            }
        }
    }
    return true;
}

} // namespace

MwpmDecoder::MwpmDecoder(const RotatedSurfaceCode &code, CheckType detector,
                         int space_weight, int time_weight, Matcher matcher)
    : code_(code), detector_(detector), space_weight_(space_weight),
      time_weight_(time_weight), matcher_(matcher),
      scratch_(std::make_unique<Scratch>())
{
    BTWC_CHECK(space_weight >= 1 && time_weight >= 1);
}

MwpmDecoder::~MwpmDecoder() = default;

const CheckGraphDistances &
MwpmDecoder::oracle() const
{
    if (oracle_ == nullptr) {
        oracle_ = &code_.check_distances(detector_);
    }
    return *oracle_;
}

void
MwpmDecoder::decode(const std::vector<DetectionEvent> &events, int rounds,
                    Result &out) const
{
    thread_owner_.assert_single_thread_owner();
    decode_impl(events, rounds, out, nullptr);
}

void
MwpmDecoder::decode_matched(const std::vector<DetectionEvent> &events,
                            int rounds, MwpmMatches &matches,
                            Result &out) const
{
    thread_owner_.assert_single_thread_owner();
    decode_impl(events, rounds, out, &matches);
}

void
MwpmDecoder::decode_impl(const std::vector<DetectionEvent> &events,
                         int rounds, Result &out, MwpmMatches *matches) const
{
    out.correction.reset(code_.num_data());
    out.weight = 0;
    out.defects = static_cast<int>(events.size());
    out.effort = 0;
    out.resolved = true;
    if (matches != nullptr) {
        matches->clear();
    }
    if (events.empty()) {
        return;
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
    const CheckGraphDistances &oracle = this->oracle();
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
    mate_defect.resize(ks);
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
        const int64_t *b = boundary_dist.data();

        // Uncrowded k >= 3 instances try the certificate (certify): one
        // pass over the defect pairs (scan_pairs) fills a pooled k x k
        // distance table, from which the blossom's rows are then
        // written should the attempt fail, and every defect's
        // nearest-defect key. The keys carry each nearest distance
        // exactly when no distance can overflow its shifted field;
        // weights too large for that skip the attempt.
        int shift = 1;
        while ((int64_t{1} << shift) < k) {
            ++shift;
        }
        const int64_t max_distance =
            oracle.num_checks() * sw + static_cast<int64_t>(rounds - 1) * tw;
        const bool attempt =
            matcher_ == Matcher::Blossom && k >= 3 &&
            kCertifyCrowding * k * k <=
                static_cast<int64_t>(rounds) * oracle.num_checks() &&
            max_distance <= (std::numeric_limits<int64_t>::max() >> shift);
        if (attempt) {
            if (scratch.dist.size() < ks * ks) {
                scratch.dist.resize(ks * ks);  // never shrunk: no refill
            }
            scratch.nearest.resize(ks);
            scratch.dual.resize(ks);
            scan_pairs(oracle, events.data(), k, sw, tw, shift,
                       scratch.dist.data(), scratch.nearest.data());
        }
        const int64_t *dist = scratch.dist.data();

        // No edge costs more than its endpoints' b (V's is 0), so no
        // perfect matching costs more than the sum of all b_i: with
        // `big` above it, a maximum-weight matching under weights
        // big - cost is a minimum-cost perfect matching, and every
        // weight is positive.
        auto solve_blossom = [&](std::vector<int> &mate_out) {
            const int n = k + (k & 1);
            int64_t big = 1;
            for (int i = 0; i < k; ++i) {
                big += b[i];
            }
            MaxWeightMatching &solver = scratch.matcher;
            if (attempt) {
                // Row u of the distance table the attempt filled. Plain
                // values only: no captured scalar is reloaded after each
                // row store.
                solver.load_rows(n, [dist, b, ks, k, n, big](int u,
                                                             int64_t *row) {
                    if (u == k) {
                        return;  // V is the last vertex: all mirror
                    }
                    const int64_t *du = dist + static_cast<size_t>(u) * ks;
                    const int64_t bu = b[u];
                    for (int j = u + 1; j < k; ++j) {
                        row[j] = big - std::min(du[j], bu + b[j]);
                    }
                    if (n > k) {
                        row[k] = big - bu;
                    }
                });
            } else {
                solver.load_rows(n, [&](int u, int64_t *row) {
                    if (u == k) {
                        return;  // V is the last vertex: all mirror
                    }
                    // One read of u's hop row serves the whole weight row.
                    const uint16_t *hops = oracle.row(events[u].check);
                    const int ru = events[u].round;
                    const int64_t bu = b[u];
                    for (int j = u + 1; j < k; ++j) {
                        const int64_t w = hops[events[j].check] * sw +
                                          std::abs(ru - events[j].round) * tw;
                        row[j] = big - std::min(w, bu + b[j]);
                    }
                    if (n > k) {
                        row[k] = big - bu;
                    }
                });
            }
            if (audit_deep()) {
                // Every loaded weight, re-derived from the closed form.
                for (int i = 0; i < n; ++i) {
                    for (int j = 0; j < n; ++j) {
                        int64_t cost = 0;
                        if (i < k && j < k) {
                            cost = std::min(distance(i, j), b[i] + b[j]);
                        } else if (i < k || j < k) {
                            cost = b[std::min(i, j)];
                        }
                        BTWC_CHECK_MSG(solver.edge_weight(i, j) ==
                                           (i == j ? 0 : big - cost),
                                       "a loaded weight is big - c_ij");
                    }
                }
            }

            const std::vector<int> &mate = solver.solve();
            mate_out.assign(ks, -1);
            for (int i = 0; i < k; ++i) {
                const int m = mate[i];
                BTWC_CHECK_MSG(m >= 0,
                               "a complete graph on an even vertex count "
                               "admits a perfect matching");
                if (i < m && m < k && distance(i, m) <= b[i] + b[m]) {
                    mate_out[i] = m;
                    mate_out[m] = i;
                }
            }
        };

        // With k <= 2 the instance has exactly one perfect matching, so
        // the pairing is forced, and the blossom's mapping rule,
        // w <= b_0 + b_1, decides a pair. A certified pairing is the
        // unique optimum, so it is the blossom's. Every other instance
        // is solved.
        bool settled = false;
        if (matcher_ == Matcher::Blossom && k <= 2) {
            const bool pair = k == 2 && distance(0, 1) <= b[0] + b[1];
            mate_defect[0] = pair ? 1 : -1;
            mate_defect[ks - 1] = pair ? 0 : -1;
            settled = true;
        } else if (attempt) {
            settled = certify(k, dist, b, scratch.nearest.data(), shift,
                              scratch.dual.data(), mate_defect.data());
        }
        if (settled) {
            ++certified_;
            if (audit_deep()) {
                solve_blossom(scratch.audit_mate);
                BTWC_CHECK_MSG(scratch.audit_mate == mate_defect,
                               "a certified pairing is the blossom's");
            }
        } else {
            if (matcher_ == Matcher::Blossom) {
                ++blossom_;
            }
            solve_blossom(mate_defect);
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
        out.correction.flip(via);
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
        out.weight += pair_weight;
        if (matches != nullptr) {
            matches->pairs.push_back(
                {i, m, pair_weight, path_begin,
                 static_cast<int>(matches->path_data.size())});
        }
    }
}

} // namespace btwc
