#pragma once

#include <cstdint>
#include <cmath>
#include <limits>

namespace btwc {

/**
 * Deterministic xoshiro256** pseudo-random generator.
 *
 * All Monte-Carlo results in the repository are reproducible given a
 * seed because we do not rely on implementation-defined standard
 * library distributions. The generator is seeded through SplitMix64 so
 * that small consecutive seeds produce uncorrelated streams.
 */
class Rng
{
  public:
    /** Construct a generator from a 64-bit seed. */
    explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ull);

    /** Next raw 64-bit output. */
    uint64_t next_u64()
    {
        const uint64_t result = rotl(state_[1] * 5, 7) * 9;
        const uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);
        return result;
    }

    /** Uniform double in [0, 1): the top 53 bits of `next_u64()`. */
    double next_double()
    {
        return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
    }

    /** Uniform integer in [0, bound) using Lemire rejection. */
    uint64_t next_below(uint64_t bound);

    /** Bernoulli trial with success probability p. */
    bool bernoulli(double p);

    /**
     * Exact Binomial(n, p) sample.
     *
     * Uses the GapSampler walk (expected cost O(n*p + 1)) so that
     * fleet simulations with small per-qubit event probabilities stay
     * cheap; falls back to per-trial Bernoulli draws when p is large.
     */
    uint64_t binomial(uint64_t n, double p);

    /**
     * Geometric sample: number of failures before the first success of
     * a Bernoulli(p) sequence. Returns a saturated large value for
     * p == 0. A Bernoulli sweep over a fixed width draws through
     * GapSampler instead, which returns the same values from the same
     * draws (tools/lint.sh keeps other callers out of src/).
     */
    uint64_t geometric(double p);

    /** Derive an independent child stream (for per-qubit streams). */
    Rng split();

  private:
    static uint64_t rotl(uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    uint64_t state_[4];
};

/**
 * The gap-skipping walk over `width` Bernoulli(p) trials, prepared once
 * per (p, width): every Bernoulli sweep in the library (`ErrorFrame`'s
 * injection and measurement flips, `Rng::binomial`) runs on one.
 *
 * `gap` is `Rng::geometric(p)` with the same draws and, below the
 * width, the same values: it caches L = log1p(-p), and each draw k
 * (the top 53 bits of one `next_u64`) below the cutoff K goes through
 * the inverse-CDF formula floor(log(u) / L), u = 1 - k 2^-53, that
 * `Rng::geometric` also calls. A draw k >= K answers `width` without
 * a logarithm, so the draw that ends a walk, almost always one at low
 * p, costs one generator step and a compare.
 *
 * Why every k >= K gives the formula >= width. With T = (1-p)^width =
 * exp(width * L), the formula reaches the width exactly when
 * u <= T. K is the first draw with u <= fl(exp(fl(width * L))) - 2^-32,
 * found by exact comparisons (each u is a double). The computed
 * exponential errs from T by under 2^-48 (|width * L| < 14 and
 * 1-ulp exp), so u <= T - 2^-33 and log(u) <= width * L - 2^-33.
 * Assuming libm's log errs by at most a few ulp (glibc: under 1),
 * fl(log(u)) is still below width * L by more than 2^-34, which beats
 * the quotient's rounding (width * |L| * 2^-53 < 2^-49) by far, so the
 * floor is >= width. The margin costs a share 2^-32 of draws a
 * needless logarithm. The fast path is off (K = 2^53) when
 * T < 2^-20: such a walk almost never ends on a draw, and the gate
 * keeps |width * L| < 14 in the bound above.
 *
 * p <= 0 and p >= 1 consume no draw, as in `Rng::geometric`.
 * tests/test_gap_sampler.cpp pins all of this against
 * `Rng::geometric`, including the cutoff against a bisected boundary.
 */
class GapSampler
{
  public:
    /** Prepare the walk over `width` trials of success probability p. */
    GapSampler(double p, uint64_t width);

    /** The success probability. */
    double p() const { return p_; }

    /** The number of trials a walk covers. */
    uint64_t width() const { return width_; }

    /** First 53-bit draw answered without the formula; 2^53 when off. */
    uint64_t cutoff() const { return cutoff_; }

    /**
     * One Geometric(p) gap, consuming what `rng.geometric(p)` consumes:
     * its value when that is below `width()`, else a value >= width().
     */
    uint64_t gap(Rng &rng) const
    {
        if (p_ >= 1.0) {
            return 0;
        }
        if (p_ <= 0.0) {
            return std::numeric_limits<uint64_t>::max();
        }
        const uint64_t k = rng.next_u64() >> 11;
        return k >= cutoff_ ? width_ : formula(k);
    }

    /**
     * Call f(i) for each successful trial i in [0, width), ascending:
     * the gap-skipping walk, expected cost O(width * p + 1).
     */
    template <class F>
    void for_each_hit(Rng &rng, F &&f) const
    {
        uint64_t i = gap(rng);
        while (i < width_) {
            f(i);
            const uint64_t next = gap(rng);
            if (next >= width_ - i) {
                break;
            }
            i += next + 1;
        }
    }

  private:
    /** `Rng::geometric`'s formula at the 53-bit draw k. */
    uint64_t formula(uint64_t k) const;

    double p_ = 0.0;
    uint64_t width_ = 0;
    double log_q_ = 0.0;
    uint64_t cutoff_ = uint64_t{1} << 53;
};

} // namespace btwc
