#include "matching/exact.hpp"

#include <cstddef>

#include "common/check.hpp"

namespace btwc {

namespace {
constexpr int64_t kUnreachable = int64_t(1) << 60;
}

int64_t
exact_min_weight_perfect(int n,
                         const std::vector<std::vector<int64_t>> &weights)
{
    BTWC_CHECK(n >= 0 && n % 2 == 0 && n <= 24);
    if (n == 0) {
        return 0;
    }
    const size_t size = size_t(1) << n;
    std::vector<int64_t> best(size, kUnreachable);
    best[0] = 0;
    for (size_t mask = 1; mask < size; ++mask) {
        const int i = __builtin_ctzll(mask);
        if (__builtin_parityll(mask)) {
            continue;
        }
        const size_t rest = mask ^ (size_t(1) << i);
        int64_t acc = kUnreachable;
        for (size_t sub = rest; sub != 0; sub &= sub - 1) {
            const int j = __builtin_ctzll(sub);
            if (weights[i][j] < 0) {
                continue;
            }
            const size_t prev = rest ^ (size_t(1) << j);
            if (best[prev] < kUnreachable) {
                const int64_t cand = best[prev] + weights[i][j];
                acc = cand < acc ? cand : acc;
            }
        }
        best[mask] = acc;
    }
    const int64_t result = best[size - 1];
    return result >= kUnreachable ? -1 : result;
}

int64_t
exact_min_weight_with_boundary(int n,
                               const std::vector<std::vector<int64_t>> &weights,
                               const std::vector<int64_t> &boundary)
{
    BTWC_CHECK(n >= 0 && n <= 24);
    if (n == 0) {
        return 0;
    }
    const size_t size = size_t(1) << n;
    std::vector<int64_t> best(size, kUnreachable);
    best[0] = 0;
    for (size_t mask = 1; mask < size; ++mask) {
        const int i = __builtin_ctzll(mask);
        const size_t rest = mask ^ (size_t(1) << i);
        int64_t acc = kUnreachable;
        if (best[rest] < kUnreachable) {
            acc = best[rest] + boundary[i];
        }
        for (size_t sub = rest; sub != 0; sub &= sub - 1) {
            const int j = __builtin_ctzll(sub);
            if (weights[i][j] < 0) {
                continue;
            }
            const size_t prev = rest ^ (size_t(1) << j);
            if (best[prev] < kUnreachable) {
                const int64_t cand = best[prev] + weights[i][j];
                acc = cand < acc ? cand : acc;
            }
        }
        best[mask] = acc;
    }
    return best[size - 1];
}

int64_t
exact_min_weight_with_boundary_mates(
    int n, const std::vector<std::vector<int64_t>> &weights,
    const std::vector<int64_t> &boundary, std::vector<int> &mates)
{
    BTWC_CHECK(n >= 0 && n <= 24);
    mates.assign(static_cast<size_t>(n), -1);
    if (n == 0) {
        return 0;
    }
    const size_t size = size_t(1) << n;
    std::vector<int64_t> best(size, kUnreachable);
    best[0] = 0;
    for (size_t mask = 1; mask < size; ++mask) {
        const int i = __builtin_ctzll(mask);
        const size_t rest = mask ^ (size_t(1) << i);
        int64_t acc = kUnreachable;
        if (boundary[i] >= 0 && best[rest] < kUnreachable) {
            acc = best[rest] + boundary[i];
        }
        for (size_t sub = rest; sub != 0; sub &= sub - 1) {
            const int j = __builtin_ctzll(sub);
            if (weights[i][j] < 0) {
                continue;
            }
            const size_t prev = rest ^ (size_t(1) << j);
            if (best[prev] < kUnreachable) {
                const int64_t cand = best[prev] + weights[i][j];
                acc = cand < acc ? cand : acc;
            }
        }
        best[mask] = acc;
    }
    if (best[size - 1] >= kUnreachable) {
        return -1;
    }

    // Backtrack: at every step the lowest set bit either retired to
    // the boundary or paired with some other set bit; re-test the DP
    // transition costs (exact integer equality holds by construction).
    size_t mask = size - 1;
    while (mask != 0) {
        const int i = __builtin_ctzll(mask);
        const size_t rest = mask ^ (size_t(1) << i);
        if (boundary[i] >= 0 && best[rest] < kUnreachable &&
            best[rest] + boundary[i] == best[mask]) {
            mates[i] = -1;
            mask = rest;
            continue;
        }
        bool advanced = false;
        for (size_t sub = rest; sub != 0; sub &= sub - 1) {
            const int j = __builtin_ctzll(sub);
            if (weights[i][j] < 0) {
                continue;
            }
            const size_t prev = rest ^ (size_t(1) << j);
            if (best[prev] < kUnreachable &&
                best[prev] + weights[i][j] == best[mask]) {
                mates[i] = j;
                mates[j] = i;
                mask = prev;
                advanced = true;
                break;
            }
        }
        BTWC_CHECK_MSG(advanced,
                       "DP table admits a consistent backtrack");
    }
    return best[size - 1];
}

} // namespace btwc
