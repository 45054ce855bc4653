#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/check.hpp"

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
 * edge `slack_[x]`; it is refreshed once per dual adjustment. An
 * instance is loaded one of two ways: `reset` then one `set_weight`
 * per edge (sparse graphs), or `load_rows`, which writes the whole
 * real region row by row in one pass (dense graphs; `MwpmDecoder`).
 * Row-fill contract: every real slot is written, the diagonal is
 * zero, and the rows are symmetric; the caller writes each row's part
 * right of the diagonal and `load_rows` copies the part left of it
 * from the rows before.
 *
 * Pooled-slot invariant. `reset` zeroes only the real (n+1)^2 region;
 * `load_rows` zeroes only the sentinel row and column, since the row
 * fill writes the rest of that region. Blossom slots are not cleared:
 * `add_blossom` writes a new blossom's whole row and column, and every
 * read of a blossom slot happens after that write in the same solve.
 * Endpoints are read only from slots of positive weight.
 *
 * Column mirror. `add_blossom` fills row b in one pass over the
 * members' rows, computing each member edge's reduced cost once and
 * keeping the cheapest per column, then writes column b as the mirror
 * of row b: the same weight, the endpoints reversed. Slot (b, b) stays
 * zero. This is exact: the trajectory reads a blossom slot only between
 * two live indices neither of which contains the other, and on every
 * such pair the earlier column-by-column copy already held the same
 * weight on both sides of the diagonal and, where it is positive,
 * reversed endpoints. The mirror makes that hold on every pair of live
 * indices that includes a blossom; deep audits recheck it after each
 * `add_blossom`.
 *
 * Identity rows. `flower_from_` (row-major, (2n+1) x (n+1)) maps a
 * blossom and one of its real vertices to the member containing it.
 * The rows of real vertices would be the identity; they are never
 * written or read: `add_blossom` sets `from_b[xs] = xs` for a real
 * member xs directly.
 *
 * Two stages per phase. A phase is one search for an augmenting path;
 * a dual adjustment is the label change it makes when its queue runs
 * dry; an edge is tight when its reduced cost is zero. Two facts make
 * the shortcuts below exact:
 *   1. Nothing outside the slack upkeep itself reads `slack_` or
 *      `slack_delta_` before the phase's first dual adjustment.
 *   2. Whether a real edge is tight depends only on the labels of its
 *      real endpoints, which change only at solve start and at dual
 *      adjustments.
 * So each phase first runs a speculative stage: it scans its queue for
 * tight edges only, with no slack upkeep and no `slack_` fill (fact
 * 1). Most phases augment there and are done. If the queue runs dry,
 * the phase rolls back: `st_[0..2n]` and `n_x_` are restored to their
 * values at phase start (`st_` from a copy taken just before the
 * stage's first blossom, the first write to it), which kills every
 * blossom the speculative stage made, and the eager stage replays the
 * phase from a fresh start with full slack upkeep. The rollback
 * contract: nothing else the speculative stage wrote is read before
 * the replay rewrites it (a dead blossom's label, mate, flower and
 * matrix slots are rewritten when it is created again; `s_`, `pa_` and
 * the queue are reset or written before they are read; `get_lca`
 * compares visit marks only against a fresh stamp), and the replay
 * repeats the speculative stage's steps in order, because they read
 * neither slack nor anything the rollback left changed. Deep audits
 * check the restored blossom forest.
 *
 * Tight-free stamps. `tight_free_[u] == label_version_` records that
 * row u held no tight edge under the current labels; the version
 * increases at solve start and at every dual adjustment (fact 2). Only
 * the speculative stage reads the stamps: it skips a stamped row in
 * O(1), since scanning it could find no tight edge to act on, and its
 * phase start does not queue a stamped free vertex at all (its row
 * would be skipped; the eager stage queues every free vertex).
 *
 * Unmatched mask. A real vertex, once matched, stays matched for the
 * rest of the solve, so `unmatched_` keeps one bit per real vertex,
 * cleared by `set_match`. A phase start visits only the set bits, in
 * index order, instead of every index: the same free vertices in the
 * same order.
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

    /**
     * Row-fill entry: re-arm the solver for a fresh n-vertex instance
     * as `reset(n)` does, but load every weight in one pass instead of
     * clearing the matrix for `set_weight` calls. Rows are written in
     * order u = 0..n-1: the entry copies row u's lower part, v < u,
     * from the rows already written and zeroes the diagonal, then
     * `fill_row(u, row)` must write row[v], the weight of edge (u, v),
     * for every v in (u, n): non-negative, zero meaning no edge. So
     * every real slot is written, the diagonal is zero and the rows
     * are symmetric by construction; nothing else is cleared. At
     * AuditLevel::Basic the entry then runs `audit_slots(false)` once.
     * This is how `MwpmDecoder` loads its dense instances;
     * `set_weight` stays for sparse ones.
     */
    template <typename FillRow>
    void load_rows(int n, FillRow &&fill_row)
    {
        rearm(n);
        int64_t *w = w_.data();
        const size_t stride = stride_;
        std::fill_n(w, n_ + 1, 0);  // the sentinel row
        for (int u = 1; u <= n_; ++u) {
            int64_t *row = w + static_cast<size_t>(u) * stride;
            row[0] = 0;
            const int64_t *column = w + stride + static_cast<size_t>(u);
            for (int v = 1; v < u; ++v, column += stride) {
                row[v] = *column;
            }
            row[u] = 0;
            fill_row(u - 1, row + 1);
        }
        if (audit_basic()) {
            audit_slots(false);
        }
    }

    /** Set the weight of edge (u, v); w > 0 required, w == 0 removes. */
    void set_weight(int u, int v, int64_t w);

    /** Weight of edge (u, v) as loaded (0 when absent). */
    int64_t edge_weight(int u, int v) const { return weight(u + 1, v + 1); }

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
     * matrix covers (2n+1)^2 slots and every other pooled array its
     * 2n+1 indices, weights over the real (n+1)^2
     * region are symmetric and non-negative with a zero diagonal, and
     * with `expect_cleared` additionally zero — the exact
     * postcondition of reset(). Blossom slots are outside the check:
     * they are written before they are read (see the class comment).
     * Runs automatically at the end of reset() under AuditLevel::Deep
     * and of load_rows() under AuditLevel::Basic. Throws CheckFailure.
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

    /** Size every array for n vertices and clear the visit marks; the
     *  weights are left to `reset` or `load_rows`. */
    void rearm(int n);

    void audit_blossom_slots() const;
    void audit_forest() const;
    void update_slack(int u, int x, int64_t delta);
    void set_slack(int x);
    void refresh_slack_deltas();
    void queue_push(int x);
    void set_st(int x, int b);
    int get_pr(int b, int xr);
    void set_match(int u, int v);
    void augment(int u, int v);
    int get_lca(int u, int v);
    /** Shrink the odd cycle through u, lca, v; `keep_slack` is false
     *  in the speculative stage. */
    void add_blossom(int u, int lca, int v, bool keep_slack);
    void expand_blossom(int b);
    bool on_found_edge(int eu, int ev, bool keep_slack);
    /** Label and queue the free top-level indices (for the
     *  speculative stage, only those with unstamped rows); false if
     *  none is free. */
    bool start_phase(bool speculative);
    /** Tight-edge-only scan of the queue; true if it augmented. */
    bool speculative_stage();
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
    std::vector<int64_t> best_cost_;    ///< add_blossom's per-column cost
    std::vector<uint64_t> tight_free_;  ///< per real vertex, see above
    std::vector<uint64_t> unmatched_;  ///< bit x: real x unmatched
    std::vector<int> match_, slack_, st_, pa_, s_, vis_;
    std::vector<int> st_saved_;  ///< st_ at phase start, for rollback
    bool st_saved_valid_ = false;  ///< st_saved_ taken this phase
    std::vector<std::vector<int>> flower_;
    std::vector<int> flower_from_;  ///< (2n+1) x (n+1), row-major
    std::vector<int> queue_;
    std::vector<int> mate_;  ///< solve()'s pooled result
    size_t queue_head_ = 0;
    int64_t total_weight_ = 0;
    int visit_stamp_ = 0;
    uint64_t label_version_ = 0;  ///< never reset, so stale stamps die
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
