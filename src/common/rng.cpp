#include "common/rng.hpp"

#include <limits>

namespace btwc {

namespace {

/** SplitMix64 step used for seeding and stream splitting. */
uint64_t
splitmix64(uint64_t &x)
{
    x += 0x9E3779B97F4A7C15ull;
    uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

/**
 * The inverse-CDF Geometric formula at uniform u in (0, 1], with
 * log_q = log1p(-p): floor(log(u) / log_q), saturated. The one
 * evaluation both Rng::geometric and GapSampler run.
 */
uint64_t
inverse_cdf(double u, double log_q)
{
    double g = std::floor(std::log(u) / log_q);
    if (g < 0.0) {
        g = 0.0;
    }
    if (g > 1e18) {
        return std::numeric_limits<uint64_t>::max();
    }
    return static_cast<uint64_t>(g);
}

/** u = 1 - k 2^-53 of the 53-bit draw k, exact in double. */
double
uniform_of_draw(uint64_t k)
{
    return 1.0 - static_cast<double>(k) * 0x1.0p-53;
}

} // namespace

Rng::Rng(uint64_t seed)
{
    uint64_t sm = seed;
    for (auto &word : state_) {
        word = splitmix64(sm);
    }
    // xoshiro must not start from the all-zero state.
    if ((state_[0] | state_[1] | state_[2] | state_[3]) == 0) {
        state_[0] = 1;
    }
}

uint64_t
Rng::next_below(uint64_t bound)
{
    if (bound <= 1) {
        return 0;
    }
    // Lemire's multiply-and-reject method.
    uint64_t x = next_u64();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    uint64_t l = static_cast<uint64_t>(m);
    if (l < bound) {
        const uint64_t threshold = (0 - bound) % bound;
        while (l < threshold) {
            x = next_u64();
            m = static_cast<__uint128_t>(x) * bound;
            l = static_cast<uint64_t>(m);
        }
    }
    return static_cast<uint64_t>(m >> 64);
}

bool
Rng::bernoulli(double p)
{
    if (p <= 0.0) {
        return false;
    }
    if (p >= 1.0) {
        return true;
    }
    return next_double() < p;
}

uint64_t
Rng::geometric(double p)
{
    if (p >= 1.0) {
        return 0;
    }
    if (p <= 0.0) {
        return std::numeric_limits<uint64_t>::max();
    }
    return inverse_cdf(uniform_of_draw(next_u64() >> 11), std::log1p(-p));
}

uint64_t
Rng::binomial(uint64_t n, double p)
{
    if (n == 0 || p <= 0.0) {
        return 0;
    }
    if (p >= 1.0) {
        return n;
    }
    if (p > 0.5) {
        return n - binomial(n, 1.0 - p);
    }
    const double npq = static_cast<double>(n) * p * (1.0 - p);
    if (n >= 1000 && npq >= 100.0) {
        // Gaussian limit: by npq >= 100 the normal approximation is
        // accurate well past the 99.99th percentile, and it keeps
        // million-cycle fleet simulations O(1) per draw.
        const double u1 = 1.0 - next_double();
        const double u2 = next_double();
        const double z = std::sqrt(-2.0 * std::log(u1)) *
                         std::cos(6.283185307179586 * u2);
        double value = static_cast<double>(n) * p + std::sqrt(npq) * z;
        value = std::round(value);
        if (value < 0.0) {
            return 0;
        }
        if (value > static_cast<double>(n)) {
            return n;
        }
        return static_cast<uint64_t>(value);
    }
    if (p <= 0.1) {
        // Gap skipping: jump across runs of failures. Expected number
        // of iterations is n * p + 1.
        uint64_t count = 0;
        GapSampler(p, n).for_each_hit(*this, [&count](uint64_t) { ++count; });
        return count;
    }
    uint64_t count = 0;
    for (uint64_t i = 0; i < n; ++i) {
        count += bernoulli(p) ? 1 : 0;
    }
    return count;
}

Rng
Rng::split()
{
    return Rng(next_u64());
}

GapSampler::GapSampler(double p, uint64_t width) : p_(p), width_(width)
{
    if (p >= 1.0 || p <= 0.0) {
        return; // gap() answers without a draw
    }
    log_q_ = std::log1p(-p);
    // The exactness argument in rng.hpp fixes both constants.
    constexpr double kMargin = 0x1.0p-32;
    constexpr double kMinAllMiss = 0x1.0p-20;
    const double all_miss = std::exp(static_cast<double>(width) * log_q_);
    if (!(all_miss >= kMinAllMiss)) {
        return;
    }
    const double limit = all_miss - kMargin;
    // The first draw with uniform_of_draw(k) <= limit: the estimate is
    // within a few draws, and the exact comparisons settle it.
    uint64_t k = static_cast<uint64_t>((1.0 - limit) * 0x1.0p53);
    while (uniform_of_draw(k) > limit) {
        ++k;
    }
    while (k > 0 && uniform_of_draw(k - 1) <= limit) {
        --k;
    }
    cutoff_ = k;
}

uint64_t
GapSampler::formula(uint64_t k) const
{
    return inverse_cdf(uniform_of_draw(k), log_q_);
}

} // namespace btwc
