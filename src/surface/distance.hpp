#pragma once

#include <cstdint>
#include <vector>

#include "surface/lattice.hpp"

namespace btwc {

/**
 * Precomputed geometry of one check type's matching graph: all-pairs
 * hop distances between same-type checks plus, per check, the hop
 * distance to (and identity of) its nearest boundary-adjacent check.
 *
 * This is the spacetime distance oracle behind `MwpmDecoder`. The
 * decoding graph over `(check, round)` nodes is the
 * Cartesian product of this 2-D check graph (space edges, weight
 * `space_weight`) with a path graph over rounds (time edges, weight
 * `time_weight`), and every edge of one dimension carries one uniform
 * weight — so the spacetime distance decomposes in closed form:
 *
 *     dist((c1, r1), (c2, r2)) =
 *         distance(c1, c2) * space_weight + |r1 - r2| * time_weight
 *
 * and the boundary distance from `(c, r)` is
 * `(boundary_hops(c) + 1) * space_weight` (time moves never help reach
 * a boundary). A per-defect Dijkstra costs O(rounds * num_checks * log)
 * per defect; the oracle answers in O(1) from a table built once per
 * code (sparse-blossom-style precomputed geometry, cf. Higgott et al.,
 * arXiv:2203.04948).
 *
 * Tie-breaking contract: the paths `MwpmDecoder` walks are the parent
 * chains of a Dijkstra that settles nodes in (distance, node id)
 * order, node id = round * num_checks + check. A node's parent is its
 * optimal predecessor with the smallest (distance, id); time
 * predecessors sit at D - time_weight and space predecessors at
 * D - space_weight, so walking from (c, r) back to the source
 * (c_src, r_src) takes
 *   - the time step whenever r != r_src, if time_weight > space_weight;
 *   - a space step whenever c != c_src, if space_weight > time_weight;
 *   - if the weights are equal: the first of (c, r-1), a space step
 *     and (c, r+1) that lies on a geodesic.
 * A space step goes to the smallest-id neighbour one hop closer to
 * c_src. `boundary_check(c)` is the boundary-adjacent check with the
 * smallest (hops, id) pair, the first boundary-adjacent node that
 * Dijkstra settles under any weights. tests/golden/
 * mwpm_corrections.txt, generated from such a Dijkstra, pins both.
 *
 * The hop table needs no graph search: two same-type checks are clique
 * neighbours exactly when their plaquettes touch diagonally, so
 * distance(a, b) = max(|pr_a - pr_b|, |pc_a - pc_b|) of their plaquette
 * coordinates (tests/test_fastpath.cpp checks it against a BFS at every
 * odd d from 3 to 61). The table is still the decode-time lookup,
 * read one row per defect by MwpmDecoder's row fill. It holds
 * num_checks^2 `uint16_t`s (~97 KB per type at d = 21, ~21.5 MB at
 * d = 81), built lazily per check type via
 * `RotatedSurfaceCode::check_distances`, so codes that never run a
 * matching decoder (Clique-only chains, Oracle-policy runs) pay
 * nothing.
 */
class CheckGraphDistances
{
  public:
    CheckGraphDistances(const RotatedSurfaceCode &code, CheckType type);

    /** Number of checks (table dimension). */
    int num_checks() const { return n_; }

    /** Lattice hop distance between checks a and b (unit space edges). */
    int distance(int a, int b) const
    {
        return dist_[static_cast<size_t>(a) * static_cast<size_t>(n_) +
                     static_cast<size_t>(b)];
    }

    /**
     * Check a's row of the hop table: row(a)[b] == distance(a, b) for
     * every check b. A caller that needs many distances from one check
     * reads its row once.
     */
    const uint16_t *row(int a) const
    {
        return &dist_[static_cast<size_t>(a) * static_cast<size_t>(n_)];
    }

    /**
     * Hop distance from check c to the nearest boundary-adjacent check
     * (0 when c itself holds a boundary half-edge). The boundary
     * *distance* adds one more space hop for the half-edge itself.
     */
    int boundary_hops(int c) const { return boundary_hops_[c]; }

    /**
     * The boundary-adjacent check realizing `boundary_hops(c)`,
     * smallest check id among ties (the Dijkstra settle order).
     */
    int boundary_check(int c) const { return boundary_check_[c]; }

    /**
     * Re-verify the tables against the check graph itself: BFS
     * optimality conditions (zero diagonal, symmetry, unit edge
     * Lipschitz bound, a descending neighbor from every non-source
     * check) uniquely pin the geodesic distances on a connected
     * unit-weight graph, plus a re-derivation of the boundary
     * (hops, id) argmin. Runs automatically from the constructor at
     * AuditLevel::Deep; throws CheckFailure on any mismatch.
     */
    void audit(const RotatedSurfaceCode &code, CheckType type) const;

  private:
    int n_;
    std::vector<uint16_t> dist_;
    std::vector<uint16_t> boundary_hops_;
    std::vector<int> boundary_check_;
};

} // namespace btwc
