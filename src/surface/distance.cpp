#include "surface/distance.hpp"

#include <limits>

#include "common/check.hpp"

namespace btwc {

CheckGraphDistances::CheckGraphDistances(const RotatedSurfaceCode &code,
                                         CheckType type)
    : n_(code.num_checks(type))
{
    BTWC_CHECK(n_ > 0 &&
               static_cast<size_t>(n_) <
                   std::numeric_limits<uint16_t>::max());
    const size_t n = static_cast<size_t>(n_);
    dist_.assign(n * n, 0);

    // One BFS per source over the unit-weight check graph. The graph
    // is connected (the test suite pins this via symmetry +
    // reachability), so every slot is written.
    std::vector<int> frontier;
    frontier.reserve(n);
    for (int src = 0; src < n_; ++src) {
        uint16_t *dist = &dist_[static_cast<size_t>(src) * n];
        std::vector<uint8_t> seen(n, 0);
        frontier.clear();
        frontier.push_back(src);
        seen[src] = 1;
        dist[src] = 0;
        size_t head = 0;
        while (head < frontier.size()) {
            const int cur = frontier[head++];
            for (const CliqueNeighbor &nb :
                 code.clique_neighbors(type, cur)) {
                if (!seen[nb.check]) {
                    seen[nb.check] = 1;
                    dist[nb.check] =
                        static_cast<uint16_t>(dist[cur] + 1);
                    frontier.push_back(nb.check);
                }
            }
        }
    }

    // Nearest boundary-adjacent check per source, ties broken toward
    // the smallest check id — the order Dijkstra settles equal-distance
    // nodes in, which MwpmDecoder's boundary retirement must match.
    boundary_hops_.assign(n, 0);
    boundary_check_.assign(n, -1);
    for (int src = 0; src < n_; ++src) {
        int best_hops = std::numeric_limits<int>::max();
        int best_check = -1;
        for (int b = 0; b < n_; ++b) {
            if (code.boundary_data(type, b).empty()) {
                continue;
            }
            const int hops = distance(src, b);
            if (hops < best_hops) {
                best_hops = hops;
                best_check = b;
            }
        }
        BTWC_CHECK_MSG(best_check >= 0,
                       "every check graph has a boundary");
        boundary_hops_[src] = static_cast<uint16_t>(best_hops);
        boundary_check_[src] = best_check;
    }

    if (audit_deep()) {
        audit(code, type);
    }
}

void
CheckGraphDistances::audit(const RotatedSurfaceCode &code,
                           CheckType type) const
{
    // The table is correct iff it satisfies the BFS optimality
    // conditions on the (connected, unit-weight) check graph: zero
    // diagonal, symmetry, every edge changes the distance by at most
    // one, and every non-source vertex has a neighbor one hop closer.
    // Together these pin dist() to the true geodesic distances, so
    // this audit re-verifies the oracle against the graph itself
    // rather than against a second copy of the construction code.
    for (int src = 0; src < n_; ++src) {
        BTWC_CHECK_MSG(distance(src, src) == 0,
                       "distance oracle diagonal must be zero");
        for (int c = 0; c < n_; ++c) {
            BTWC_CHECK_MSG(distance(src, c) == distance(c, src),
                           "distance oracle must be symmetric");
            if (c == src) {
                continue;
            }
            const int d = distance(src, c);
            BTWC_CHECK_MSG(d > 0, "off-diagonal distances are positive");
            bool has_descent = false;
            for (const CliqueNeighbor &nb :
                 code.clique_neighbors(type, c)) {
                const int dn = distance(src, nb.check);
                BTWC_CHECK_MSG(dn >= d - 1 && dn <= d + 1,
                               "adjacent checks differ by at most one "
                               "hop from any source");
                has_descent = has_descent || dn == d - 1;
            }
            BTWC_CHECK_MSG(has_descent,
                           "every non-source check has a neighbor one "
                           "hop closer (BFS optimality)");
        }

        // Re-derive the boundary argmin with the same (hops, id)
        // tie-break MwpmDecoder's boundary retirement depends on.
        int best_hops = std::numeric_limits<int>::max();
        int best_check = -1;
        for (int b = 0; b < n_; ++b) {
            if (code.boundary_data(type, b).empty()) {
                continue;
            }
            if (distance(src, b) < best_hops) {
                best_hops = distance(src, b);
                best_check = b;
            }
        }
        BTWC_CHECK_MSG(boundary_check(src) == best_check &&
                           boundary_hops(src) == best_hops,
                       "boundary retirement table must match the "
                       "(hops, id) argmin over boundary checks");
    }
}

} // namespace btwc
