#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace btwc {

/**
 * Maximum-weight matching in a general graph, O(V^3).
 *
 * Classic primal-dual weighted blossom algorithm (Galil's exposition):
 * dual variables on vertices and (shrunken) odd cycles, alternating
 * trees grown over tight edges, with grow / augment / shrink / expand
 * phases. Weights are non-negative integers; a zero weight means "no
 * edge". The implementation doubles all weights internally so that all
 * dual variables stay integral.
 *
 * This is the engine behind the paper's off-chip Minimum Weight
 * Perfect Matching decoder [19]; `min_weight_perfect_matching` below
 * performs the standard reduction. Correctness is property-tested
 * against the brute-force oracle in `matching/exact.hpp`.
 *
 * Storage. Vertices are numbered 1..n internally (0 is the "none"
 * sentinel) and blossoms take the indices n+1..2n, so every slot lives
 * in one flat row-major (2n+1)^2 `int64_t` weight matrix, `w_`, with
 * row stride 2n+1. Weights are symmetric. A slot between two real
 * vertices always describes the edge (u, v) itself, so its endpoints
 * are implicit; only slots that touch a blossom index carry explicit
 * endpoints (`ends_`, the real edge a shrunken blossom reaches its
 * neighbor by). `slack_delta_[x]` caches the reduced cost of the slack
 * edge `slack_[x]`; it is refreshed once per dual adjustment.
 *
 * Pooled-slot invariant. `reset` zeroes only the real (n+1)^2 region.
 * Blossom slots are not cleared: `add_blossom` zeroes a new blossom's
 * row and column before filling them, and every read of a blossom slot
 * happens after that write in the same solve. Endpoints are read only
 * from slots of positive weight.
 *
 * Trajectory. The algorithm's trajectory — vertex numbering, scan
 * order, initial labels, the strict-`<` slack tie rule — is the one the
 * earlier nested `Edge`-matrix engine ran, bit for bit: every instance
 * returns the same matching, not merely one of equal weight. That is
 * pinned by tests/golden/mwpm_pairings.txt (tests/test_pairings.cpp).
 */
class MaxWeightMatching
{
  public:
    /** Create an empty solver; call `reset(n)` before use. */
    MaxWeightMatching() = default;

    /** Create an empty graph on n vertices (0-indexed externally). */
    explicit MaxWeightMatching(int n);

    /**
     * Re-arm the solver for a fresh n-vertex instance, reusing the
     * grown capacity of every internal array (in particular the dense
     * (2n+1)^2 weight matrix, the dominant per-solve allocation): once
     * the instance has seen its largest n, subsequent reset/solve
     * cycles are allocation-free. All edge weights are cleared; the
     * result is indistinguishable from a freshly constructed
     * MaxWeightMatching(n). This is what lets `MwpmDecoder` keep one
     * persistent matcher per decoder instance instead of paying the
     * matrix allocation on every decode.
     */
    void reset(int n);

    /** Set the weight of edge (u, v); w > 0 required, w == 0 removes. */
    void set_weight(int u, int v, int64_t w);

    /**
     * Run the matching. Returns the mate of each vertex (or -1) and
     * stores the total weight retrievable via `total_weight()`. The
     * vector is a pooled member, valid until the next reset or solve.
     */
    const std::vector<int> &solve();

    /** Total weight of the matching computed by `solve()`. */
    int64_t total_weight() const { return total_weight_; }

    /**
     * Verify the pooled-slot invariant over the active instance: the
     * matrix covers (2n+1)^2 slots, weights over the real (n+1)^2
     * region are symmetric and non-negative, and with `expect_cleared`
     * additionally zero — the exact postcondition of reset(). Blossom
     * slots are outside the check: they are written before they are
     * read (see the class comment). Runs automatically at the end of
     * reset() under AuditLevel::Deep. Throws CheckFailure.
     */
    void audit_slots(bool expect_cleared) const;

  private:
    /** Endpoints of the real edge a blossom slot stands for. */
    struct Ends
    {
        int u = 0;
        int v = 0;
    };

    size_t slot(int u, int v) const
    {
        return static_cast<size_t>(u) * stride_ + static_cast<size_t>(v);
    }
    int64_t weight(int u, int v) const { return w_[slot(u, v)]; }
    int end_u(int u, int v) const
    {
        return u <= n_ && v <= n_ ? u : ends_[slot(u, v)].u;
    }
    int end_v(int u, int v) const
    {
        return u <= n_ && v <= n_ ? v : ends_[slot(u, v)].v;
    }
    /** Reduced cost of slot (u, v): lab(a) + lab(b) - 2w(a, b). */
    int64_t edge_delta(int u, int v) const;

    void update_slack(int u, int x, int64_t delta);
    void set_slack(int x);
    void refresh_slack_deltas();
    void queue_push(int x);
    void set_st(int x, int b);
    int get_pr(int b, int xr);
    void set_match(int u, int v);
    void augment(int u, int v);
    int get_lca(int u, int v);
    void add_blossom(int u, int lca, int v);
    void expand_blossom(int b);
    bool on_found_edge(int eu, int ev);
    bool matching_phase();

    int n_ = 0;        ///< number of real vertices
    int n_x_ = 0;      ///< real vertices plus live blossoms
    int capacity_ = 0; ///< allocated array dimension (2 * max n + 1)
    size_t stride_ = 0;     ///< matrix row stride, 2n + 1
    size_t from_stride_ = 0; ///< flower_from_ row stride, n + 1

    std::vector<int64_t> w_;  ///< (2n+1)^2 weights, row-major
    std::vector<Ends> ends_;  ///< endpoints of blossom slots
    std::vector<int64_t> lab_;
    std::vector<int64_t> slack_delta_;  ///< edge_delta(slack_[x], x)
    std::vector<int> match_, slack_, st_, pa_, s_, vis_;
    std::vector<std::vector<int>> flower_;
    std::vector<int> flower_from_;  ///< (2n+1) x (n+1), row-major
    std::vector<int> queue_;
    std::vector<int> mate_;  ///< solve()'s pooled result
    size_t queue_head_ = 0;
    int64_t total_weight_ = 0;
    int visit_stamp_ = 0;
};

/**
 * Minimum-weight perfect matching on a (possibly sparse) graph.
 *
 * @param n      vertex count (must be even for a perfect matching)
 * @param weights dense n x n matrix; weights[u][v] < 0 marks a missing
 *               edge, any value >= 0 is a usable edge weight
 * @return mate vector (mate[u] == v), or an empty vector if no perfect
 *         matching exists
 *
 * Reduction: transformed weight B - w with B larger than the total
 * weight of all edges, so a maximum-weight matching is forced to be
 * perfect (when one exists) and minimizes the original weight.
 */
std::vector<int> min_weight_perfect_matching(
    int n, const std::vector<std::vector<int64_t>> &weights);

} // namespace btwc
