#include "surface/distance.hpp"

#include <algorithm>
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
    const std::vector<Check> &checks = code.checks(type);

    // Two same-type checks are clique neighbours exactly when their
    // plaquettes touch diagonally, and a type's plaquettes fill every
    // same-parity cell of a rectangle at least two cells wide and
    // tall, so the hop distance is the Chebyshev distance of the
    // plaquette coordinates (audit() re-derives it from the graph).
    // Coordinates and differences fit 16 bits (n < 2^16 bounds d), and
    // 16-bit lanes keep the fill a plain SIMD subtract-and-max.
    std::vector<int16_t> rows(n);
    std::vector<int16_t> cols(n);
    for (size_t c = 0; c < n; ++c) {
        rows[c] = static_cast<int16_t>(checks[c].pr);
        cols[c] = static_cast<int16_t>(checks[c].pc);
    }
    dist_.resize(n * n);
    for (size_t a = 0; a < n; ++a) {
        uint16_t *row = &dist_[a * n];
        const int16_t pr = rows[a];
        const int16_t pc = cols[a];
        for (size_t b = 0; b < n; ++b) {
            const int16_t dr = static_cast<int16_t>(rows[b] - pr);
            const int16_t dc = static_cast<int16_t>(cols[b] - pc);
            row[b] = static_cast<uint16_t>(
                std::max(std::max(dr, static_cast<int16_t>(-dr)),
                         std::max(dc, static_cast<int16_t>(-dc))));
        }
    }

    // Nearest boundary-adjacent check per source, ties broken toward
    // the smallest check id -- the order Dijkstra settles equal-distance
    // nodes in, which MwpmDecoder's boundary retirement must match.
    // Scanning the boundary-adjacent checks by ascending id with a
    // strict improvement keeps the first of equal hops.
    std::vector<int> boundary_checks;
    boundary_checks.reserve(n);
    for (int b = 0; b < n_; ++b) {
        if (!code.boundary_data(type, b).empty()) {
            boundary_checks.push_back(b);
        }
    }
    BTWC_CHECK_MSG(!boundary_checks.empty(),
                   "every check graph has a boundary");
    boundary_hops_.assign(n, 0);
    boundary_check_.assign(n, -1);
    for (int src = 0; src < n_; ++src) {
        const uint16_t *hops = row(src);
        int best_check = boundary_checks.front();
        for (const int b : boundary_checks) {
            if (hops[b] < hops[best_check]) {
                best_check = b;
            }
        }
        boundary_hops_[static_cast<size_t>(src)] = hops[best_check];
        boundary_check_[static_cast<size_t>(src)] = best_check;
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
