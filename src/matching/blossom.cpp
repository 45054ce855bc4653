#include "matching/blossom.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace btwc {

namespace {
constexpr int64_t kInf = int64_t(1) << 62;
}

MaxWeightMatching::MaxWeightMatching(int n)
{
    reset(n);
}

void
MaxWeightMatching::reset(int n)
{
    BTWC_CHECK(n >= 0);
    n_ = n;
    n_x_ = n;
    const int size = 2 * n_ + 1;
    stride_ = static_cast<size_t>(size);
    from_stride_ = static_cast<size_t>(n_) + 1;
    if (capacity_ < size) {
        // Grow path (rare): allocate at the new size. Sized for the
        // largest n this capacity can host, so every smaller later
        // instance fits at its own (smaller) strides.
        capacity_ = size;
        w_.assign(stride_ * stride_, 0);
        ends_.assign(stride_ * stride_, Ends{});
        lab_.assign(stride_, 0);
        slack_delta_.assign(stride_, 0);
        best_cost_.assign(stride_, 0);
        tight_free_.assign(stride_, 0);
        match_.assign(stride_, 0);
        slack_.assign(stride_, 0);
        st_.assign(stride_, 0);
        st_saved_.assign(stride_, 0);
        pa_.assign(stride_, 0);
        s_.assign(stride_, -1);
        vis_.assign(stride_, 0);
        flower_.assign(stride_, {});
        flower_from_.assign(stride_ * from_stride_, 0);
    } else {
        // Reuse path: zero the real (n+1)^2 region only. Blossom slots
        // keep stale data from earlier instances (at other strides),
        // which is never read: add_blossom zeroes a blossom's row and
        // column before the first read.
        for (int u = 0; u <= n_; ++u) {
            std::fill_n(w_.begin() + static_cast<std::ptrdiff_t>(slot(u, 0)),
                        n_ + 1, 0);
        }
        std::fill_n(vis_.begin(), size, 0);
    }
    // The visit stamp must restart with its array: a persistent pooled
    // matcher would otherwise march the int stamp toward overflow over
    // millions of decodes (fresh instances restarted it implicitly).
    visit_stamp_ = 0;
    if (audit_deep()) {
        audit_slots(true);
    }
}

void
MaxWeightMatching::audit_slots(bool expect_cleared) const
{
    const int size = 2 * n_ + 1;
    const size_t slots = static_cast<size_t>(size) * size;
    const size_t cells = static_cast<size_t>(size);
    BTWC_CHECK_MSG(capacity_ >= size && stride_ == cells &&
                       w_.size() >= slots && ends_.size() >= slots &&
                       flower_from_.size() >= cells * (n_ + 1) &&
                       best_cost_.size() >= cells &&
                       tight_free_.size() >= cells &&
                       st_saved_.size() >= cells,
                   "matcher capacity covers the active instance");
    for (int u = 0; u <= n_; ++u) {
        for (int v = 0; v <= n_; ++v) {
            const int64_t w = weight(u, v);
            BTWC_CHECK_MSG(w >= 0 && w == weight(v, u),
                           "real-region weights must be symmetric and "
                           "non-negative");
            if (expect_cleared) {
                BTWC_CHECK_MSG(w == 0,
                               "reset must clear every real-region "
                               "weight");
            }
        }
    }
}

void
MaxWeightMatching::audit_blossom_slots() const
{
    for (int y = n_ + 1; y <= n_x_; ++y) {
        if (!st_[y]) {
            continue;  // dead blossom index
        }
        for (int x = 1; x <= y; ++x) {
            if (!st_[x]) {
                continue;
            }
            const size_t xy = slot(x, y);
            const size_t yx = slot(y, x);
            BTWC_CHECK_MSG(w_[xy] == w_[yx],
                           "blossom slot weights must be symmetric");
            if (w_[xy] > 0) {
                BTWC_CHECK_MSG(ends_[xy].u == ends_[yx].v &&
                                   ends_[xy].v == ends_[yx].u,
                               "a blossom slot's mirror must hold its "
                               "endpoints reversed");
            }
        }
    }
}

void
MaxWeightMatching::audit_forest() const
{
    for (int u = 1; u <= n_; ++u) {
        const int top = st_[u];
        BTWC_CHECK_MSG(top == u || (top > n_ && top <= n_x_ &&
                                    st_[top] == top),
                       "every real vertex names a live top-level index");
    }
    // The real vertices each top-level blossom's flower reaches.
    std::vector<int> owner(static_cast<size_t>(n_) + 1, 0);
    std::vector<int> stack;
    for (int b = n_ + 1; b <= n_x_; ++b) {
        if (st_[b] != b) {
            continue;
        }
        stack.assign(1, b);
        size_t visits = 0;
        while (!stack.empty()) {
            const int x = stack.back();
            stack.pop_back();
            BTWC_CHECK_MSG(++visits <= stride_ && x >= 1 && x <= n_x_,
                           "blossom flowers form a forest");
            if (x <= n_) {
                BTWC_CHECK_MSG(owner[x] == 0 && st_[x] == b,
                               "a blossom's flower reaches each of its "
                               "real vertices once");
                owner[x] = b;
                continue;
            }
            BTWC_CHECK_MSG(st_[x] == b,
                           "a nested blossom maps to its top-level one");
            for (const int sub : flower_[x]) {
                stack.push_back(sub);
            }
        }
    }
    for (int u = 1; u <= n_; ++u) {
        BTWC_CHECK_MSG(owner[u] == (st_[u] == u ? 0 : st_[u]),
                       "a blossom's flower reaches exactly the real "
                       "vertices that map to it");
    }
}

void
MaxWeightMatching::set_weight(int u, int v, int64_t w)
{
    BTWC_AUDIT(u != v && u >= 0 && v >= 0 && u < n_ && v < n_ &&
               w >= 0);
    w_[slot(u + 1, v + 1)] = w;
    w_[slot(v + 1, u + 1)] = w;
}

int64_t
MaxWeightMatching::edge_delta(int u, int v) const
{
    const size_t i = slot(u, v);
    if (u <= n_ && v <= n_) {
        return lab_[u] + lab_[v] - w_[i] * 2;
    }
    const Ends &e = ends_[i];
    return lab_[e.u] + lab_[e.v] - w_[i] * 2;
}

void
MaxWeightMatching::update_slack(int u, int x, int64_t delta)
{
    if (!slack_[x] || delta < slack_delta_[x]) {
        slack_[x] = u;
        slack_delta_[x] = delta;
    }
}

void
MaxWeightMatching::set_slack(int x)
{
    slack_[x] = 0;
    // Weights are symmetric, so row x is column x.
    const int64_t *row = &w_[slot(x, 0)];
    for (int u = 1; u <= n_; ++u) {
        if (row[u] > 0 && st_[u] != x && s_[st_[u]] == 0) {
            update_slack(u, x, edge_delta(u, x));
        }
    }
}

void
MaxWeightMatching::refresh_slack_deltas()
{
    for (int x = 1; x <= n_x_; ++x) {
        if (slack_[x]) {
            slack_delta_[x] = edge_delta(slack_[x], x);
        }
    }
}

void
MaxWeightMatching::queue_push(int x)
{
    if (x <= n_) {
        queue_.push_back(x);
        return;
    }
    for (const int sub : flower_[x]) {
        queue_push(sub);
    }
}

void
MaxWeightMatching::set_st(int x, int b)
{
    st_[x] = b;
    if (x <= n_) {
        return;
    }
    for (const int sub : flower_[x]) {
        set_st(sub, b);
    }
}

int
MaxWeightMatching::get_pr(int b, int xr)
{
    auto &f = flower_[b];
    const int pr = static_cast<int>(
        std::find(f.begin(), f.end(), xr) - f.begin());
    if (pr % 2 == 1) {
        // Walk the cycle the other way so the path to xr is even.
        std::reverse(f.begin() + 1, f.end());
        return static_cast<int>(f.size()) - pr;
    }
    return pr;
}

void
MaxWeightMatching::set_match(int u, int v)
{
    match_[u] = end_v(u, v);
    if (u <= n_) {
        return;
    }
    const int xr = flower_from_[static_cast<size_t>(u) * from_stride_ +
                                static_cast<size_t>(end_u(u, v))];
    const int pr = get_pr(u, xr);
    for (int i = 0; i < pr; ++i) {
        set_match(flower_[u][i], flower_[u][i ^ 1]);
    }
    set_match(xr, v);
    std::rotate(flower_[u].begin(), flower_[u].begin() + pr,
                flower_[u].end());
}

void
MaxWeightMatching::augment(int u, int v)
{
    for (;;) {
        const int xnv = st_[match_[u]];
        set_match(u, v);
        if (!xnv) {
            return;
        }
        set_match(xnv, st_[pa_[xnv]]);
        u = st_[pa_[xnv]];
        v = xnv;
    }
}

int
MaxWeightMatching::get_lca(int u, int v)
{
    ++visit_stamp_;
    while (u || v) {
        if (u != 0) {
            if (vis_[u] == visit_stamp_) {
                return u;
            }
            vis_[u] = visit_stamp_;
            u = st_[match_[u]];
            if (u) {
                u = st_[pa_[u]];
            }
        }
        std::swap(u, v);
    }
    return 0;
}

void
MaxWeightMatching::add_blossom(int u, int lca, int v, bool keep_slack)
{
    int b = n_ + 1;
    while (b <= n_x_ && st_[b]) {
        ++b;
    }
    if (b > n_x_) {
        ++n_x_;
    }
    lab_[b] = 0;
    s_[b] = 0;
    match_[b] = match_[lca];
    flower_[b].clear();
    flower_[b].push_back(lca);
    for (int x = u, y; x != lca; x = st_[pa_[y]]) {
        flower_[b].push_back(x);
        flower_[b].push_back(y = st_[match_[x]]);
        queue_push(y);
    }
    std::reverse(flower_[b].begin() + 1, flower_[b].end());
    for (int x = v, y; x != lca; x = st_[pa_[y]]) {
        flower_[b].push_back(x);
        flower_[b].push_back(y = st_[match_[x]]);
        queue_push(y);
    }
    set_st(b, b);
    // Row b keeps, per column, the member edge of least reduced cost
    // (the first member wins a tie), each cost computed once.
    int64_t *row_b = &w_[slot(b, 0)];
    Ends *ends_b = &ends_[slot(b, 0)];
    int64_t *cost = best_cost_.data();
    std::fill_n(row_b + 1, n_x_, 0);
    int *from_b = &flower_from_[static_cast<size_t>(b) * from_stride_];
    std::fill_n(from_b + 1, n_, 0);
    for (const int xs : flower_[b]) {
        const int64_t *row_xs = &w_[slot(xs, 0)];
        for (int x = 1; x <= n_x_; ++x) {
            const int64_t w = row_xs[x];
            if (w > 0 && x != b) {
                const int eu = end_u(xs, x);
                const int ev = end_v(xs, x);
                const int64_t c = lab_[eu] + lab_[ev] - w * 2;
                if (row_b[x] == 0 || c < cost[x]) {
                    row_b[x] = w;
                    ends_b[x] = Ends{eu, ev};
                    cost[x] = c;
                }
            }
        }
        if (xs <= n_) {
            from_b[xs] = xs;  // a real vertex's own row is the identity
            continue;
        }
        const int *from_xs =
            &flower_from_[static_cast<size_t>(xs) * from_stride_];
        for (int x = 1; x <= n_; ++x) {
            if (from_xs[x]) {
                from_b[x] = xs;
            }
        }
    }
    // Column b mirrors row b: same weight, endpoints reversed.
    for (int x = 1; x <= n_x_; ++x) {
        w_[slot(x, b)] = row_b[x];
        if (row_b[x] > 0) {
            ends_[slot(x, b)] = Ends{ends_b[x].v, ends_b[x].u};
        }
    }
    if (audit_deep()) {
        audit_blossom_slots();
    }
    if (keep_slack) {
        set_slack(b);
    }
}

void
MaxWeightMatching::expand_blossom(int b)
{
    for (const int sub : flower_[b]) {
        set_st(sub, sub);
    }
    const int xr = flower_from_[static_cast<size_t>(b) * from_stride_ +
                                static_cast<size_t>(end_u(b, pa_[b]))];
    const int pr = get_pr(b, xr);
    for (int i = 0; i < pr; i += 2) {
        const int xs = flower_[b][i];
        const int xns = flower_[b][i + 1];
        pa_[xs] = end_u(xns, xs);
        s_[xs] = 1;
        s_[xns] = 0;
        slack_[xs] = 0;
        set_slack(xns);
        queue_push(xns);
    }
    s_[xr] = 1;
    pa_[xr] = pa_[b];
    for (size_t i = static_cast<size_t>(pr) + 1; i < flower_[b].size();
         ++i) {
        const int xs = flower_[b][i];
        s_[xs] = -1;
        set_slack(xs);
    }
    st_[b] = 0;
}

bool
MaxWeightMatching::on_found_edge(int eu, int ev, bool keep_slack)
{
    const int u = st_[eu];
    const int v = st_[ev];
    if (s_[v] == -1) {
        // Grow: attach the free matched pair (v, match(v)) to the tree.
        pa_[v] = eu;
        s_[v] = 1;
        const int nu = st_[match_[v]];
        slack_[v] = 0;
        slack_[nu] = 0;
        s_[nu] = 0;
        queue_push(nu);
    } else if (s_[v] == 0) {
        const int lca = get_lca(u, v);
        if (!lca) {
            augment(u, v);
            augment(v, u);
            return true;
        }
        add_blossom(u, lca, v, keep_slack);
    }
    return false;
}

bool
MaxWeightMatching::start_phase()
{
    // Indices >= 2n+1 are never touched by this instance.
    std::fill_n(s_.begin(), stride_, -1);
    queue_.clear();
    queue_head_ = 0;
    for (int x = 1; x <= n_x_; ++x) {
        if (st_[x] == x && !match_[x]) {
            pa_[x] = 0;
            s_[x] = 0;
            queue_push(x);
        }
    }
    return !queue_.empty();
}

bool
MaxWeightMatching::speculative_stage()
{
    while (queue_head_ < queue_.size()) {
        const int u = queue_[queue_head_++];
        if (s_[st_[u]] == 1 || tight_free_[u] == label_version_) {
            continue;
        }
        const int64_t *row = &w_[slot(u, 0)];
        const int64_t lab_u = lab_[u];
        int st_u = st_[u];  // only on_found_edge can move it
        bool tight_free = true;
        for (int v = 1; v <= n_; ++v) {
            if (row[v] > 0 && lab_u + lab_[v] == row[v] * 2) {
                tight_free = false;
                if (st_u != st_[v]) {
                    if (on_found_edge(u, v, false)) {
                        return true;
                    }
                    st_u = st_[u];
                }
            }
        }
        if (tight_free) {
            tight_free_[u] = label_version_;
        }
    }
    return false;
}

bool
MaxWeightMatching::matching_phase()
{
    if (!start_phase()) {
        return false;
    }
    const int n_x_saved = n_x_;
    std::copy_n(st_.begin(), stride_, st_saved_.begin());
    if (speculative_stage()) {
        return true;
    }
    // The queue ran dry: the phase needs a dual adjustment, and so the
    // slack the speculative stage skipped. Roll back its blossoms and
    // replay the phase eagerly; the replay repeats every step the
    // speculative stage took, in order, then adjusts the duals.
    std::copy_n(st_saved_.begin(), stride_, st_.begin());
    n_x_ = n_x_saved;
    if (audit_deep()) {
        audit_forest();
    }
    start_phase();
    std::fill_n(slack_.begin(), stride_, 0);
    for (;;) {
        while (queue_head_ < queue_.size()) {
            const int u = queue_[queue_head_++];
            if (s_[st_[u]] == 1) {
                continue;
            }
            const int64_t *row = &w_[slot(u, 0)];
            const int64_t lab_u = lab_[u];
            int st_u = st_[u];  // only on_found_edge can move it
            for (int v = 1; v <= n_; ++v) {
                if (row[v] > 0 && st_u != st_[v]) {
                    const int64_t delta = lab_u + lab_[v] - row[v] * 2;
                    if (delta == 0) {
                        if (on_found_edge(u, v, true)) {
                            return true;
                        }
                        st_u = st_[u];
                    } else {
                        // A real target reuses the delta just computed;
                        // a blossom target has its own slot.
                        const int x = st_[v];
                        update_slack(u, x,
                                     x == v ? delta : edge_delta(u, x));
                    }
                }
            }
        }
        int64_t d = kInf;
        for (int b = n_ + 1; b <= n_x_; ++b) {
            if (st_[b] == b && s_[b] == 1) {
                d = std::min(d, lab_[b] / 2);
            }
        }
        for (int x = 1; x <= n_x_; ++x) {
            if (st_[x] == x && slack_[x]) {
                if (s_[x] == -1) {
                    d = std::min(d, slack_delta_[x]);
                } else if (s_[x] == 0) {
                    d = std::min(d, slack_delta_[x] / 2);
                }
            }
        }
        // Every tight-free stamp dies with the labels it was taken at.
        ++label_version_;
        for (int u = 1; u <= n_; ++u) {
            if (s_[st_[u]] == 0) {
                if (lab_[u] <= d) {
                    return false;
                }
                lab_[u] -= d;
            } else if (s_[st_[u]] == 1) {
                lab_[u] += d;
            }
        }
        for (int b = n_ + 1; b <= n_x_; ++b) {
            if (st_[b] == b) {
                if (s_[b] == 0) {
                    lab_[b] += d * 2;
                } else if (s_[b] == 1) {
                    lab_[b] -= d * 2;
                }
            }
        }
        refresh_slack_deltas();
        queue_.clear();
        queue_head_ = 0;
        for (int x = 1; x <= n_x_; ++x) {
            if (st_[x] == x && slack_[x] && st_[slack_[x]] != x &&
                slack_delta_[x] == 0) {
                if (on_found_edge(end_u(slack_[x], x),
                                  end_v(slack_[x], x), true)) {
                    return true;
                }
            }
        }
        for (int b = n_ + 1; b <= n_x_; ++b) {
            if (st_[b] == b && s_[b] == 1 && lab_[b] == 0) {
                expand_blossom(b);
            }
        }
    }
}

const std::vector<int> &
MaxWeightMatching::solve()
{
    std::fill_n(match_.begin(), stride_, 0);
    n_x_ = n_;
    for (int u = 0; u < static_cast<int>(stride_); ++u) {
        st_[u] = u <= n_ ? u : 0;
        flower_[u].clear();
    }
    int64_t w_max = 0;
    for (int u = 1; u <= n_; ++u) {
        const int64_t *row = &w_[slot(u, 0)];
        for (int v = 1; v <= n_; ++v) {
            w_max = std::max(w_max, row[v]);
        }
    }
    for (int u = 1; u <= n_; ++u) {
        lab_[u] = w_max;
    }
    ++label_version_;  // new labels (and possibly new weights)
    while (matching_phase()) {
    }
    total_weight_ = 0;
    for (int u = 1; u <= n_; ++u) {
        if (match_[u] && match_[u] < u) {
            total_weight_ += weight(u, match_[u]);
        }
    }
    mate_.assign(static_cast<size_t>(n_), -1);
    for (int u = 1; u <= n_; ++u) {
        mate_[u - 1] = match_[u] ? match_[u] - 1 : -1;
    }
    return mate_;
}

std::vector<int>
min_weight_perfect_matching(int n,
                            const std::vector<std::vector<int64_t>> &weights)
{
    BTWC_CHECK(n % 2 == 0);
    if (n == 0) {
        return {};
    }
    int64_t total = 0;
    for (int u = 0; u < n; ++u) {
        for (int v = u + 1; v < n; ++v) {
            if (weights[u][v] >= 0) {
                total += weights[u][v];
            }
        }
    }
    const int64_t big = total + 1;
    MaxWeightMatching solver(n);
    for (int u = 0; u < n; ++u) {
        for (int v = u + 1; v < n; ++v) {
            if (weights[u][v] >= 0) {
                solver.set_weight(u, v, big - weights[u][v]);
            }
        }
    }
    std::vector<int> mate = solver.solve();
    for (int u = 0; u < n; ++u) {
        if (mate[u] < 0) {
            return {};
        }
    }
    return mate;
}

} // namespace btwc
