/**
 * @file
 * Exactness pins for GapSampler, the one Bernoulli gap-skipping walk.
 *
 * Every value the sampler returns below its width must equal what
 * `Rng::geometric` returns from the same draw, every value at or above
 * the width may be any value at or above it, and both must consume the
 * same draws. The walks built on the sampler (`ErrorFrame::inject`,
 * `measure`, `measure_packed` and `Rng::binomial`) are compared with a
 * reference gap walk on `Rng::geometric`, so every Monte-Carlo stream,
 * and with it every golden Report, is unchanged by the fast path.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "surface/frame.hpp"
#include "surface/lattice.hpp"
#include "surface/packed.hpp"

namespace btwc {
namespace {

constexpr uint64_t kDraws = uint64_t{1} << 53;

const double kProbabilities[] = {1e-9, 1e-6, 1e-3, 2e-3, 6e-3,
                                 1e-2, 0.1,  0.5,  0.9};
const uint64_t kWidths[] = {1, 2, 81, 121, 220, 441, 6561};

/** Inverse of an odd 64-bit multiplier modulo 2^64 (Newton). */
uint64_t
inverse_odd(uint64_t c)
{
    uint64_t inv = c;
    for (int i = 0; i < 6; ++i) {
        inv *= 2 - c * inv;
    }
    return inv;
}

/** Inverse of z ^= z >> s. */
uint64_t
unshift_xor(uint64_t z, int s)
{
    uint64_t x = z;
    for (int shift = s; shift < 64; shift += s) {
        x ^= z >> shift;
    }
    return x;
}

/**
 * A generator whose first `next_u64() >> 11`, the 53-bit draw every
 * inverse-CDF sample reads, is `k`. xoshiro256**'s first output is
 * rotl(s1 * 5, 7) * 9 of its second state word alone, and the seeding
 * sets s1 = mix(seed + 2 * golden) with SplitMix64's invertible
 * finaliser, so both steps are undone here.
 */
Rng
rng_drawing(uint64_t k)
{
    const uint64_t golden = 0x9E3779B97F4A7C15ull;
    const uint64_t out = k << 11;
    const uint64_t a = out * inverse_odd(9);
    const uint64_t s1 = ((a >> 7) | (a << 57)) * inverse_odd(5);
    uint64_t z = unshift_xor(s1, 31);
    z = unshift_xor(z * inverse_odd(0x94D049BB133111EBull), 27);
    z = unshift_xor(z * inverse_odd(0xBF58476D1CE4E5B9ull), 30);
    return Rng(z - 2 * golden);
}

/** `Rng::geometric(p)` evaluated at the 53-bit draw k. */
uint64_t
geometric_at(double p, uint64_t k)
{
    Rng rng = rng_drawing(k);
    return rng.geometric(p);
}

/** The sampler's gap at the 53-bit draw k. */
uint64_t
sampler_at(const GapSampler &sampler, uint64_t k)
{
    Rng rng = rng_drawing(k);
    return sampler.gap(rng);
}

/**
 * The gap-skipping walk every Bernoulli sweep ran before GapSampler,
 * written on `Rng::geometric`: f(i) for each success in [0, n).
 */
template <class F>
void
reference_walk(double p, uint64_t n, Rng &rng, F &&f)
{
    if (p <= 0.0) {
        return;
    }
    uint64_t i = rng.geometric(p);
    while (i < n) {
        f(i);
        const uint64_t gap = rng.geometric(p);
        if (gap >= n - i) {
            break;
        }
        i += gap + 1;
    }
}

TEST(GapSampler, DrawHelperPrescribesTheFirstDraw)
{
    for (const uint64_t k :
         {uint64_t{0}, uint64_t{1}, uint64_t{12345}, kDraws / 3, kDraws - 1}) {
        Rng rng = rng_drawing(k);
        EXPECT_EQ(rng.next_u64() >> 11, k);
    }
}

TEST(GapSampler, LockstepWithGeometricBelowEveryBound)
{
    Rng pick(77);
    for (const double p : kProbabilities) {
        for (const uint64_t width : kWidths) {
            const GapSampler sampler(p, width);
            const uint64_t bounds[] = {width, width - 1, 1,
                                       1 + pick.next_below(width)};
            for (const uint64_t bound : bounds) {
                Rng a(static_cast<uint64_t>(p * 1e9) + width * 31 + bound);
                Rng b = a;
                for (int draw = 0; draw < 2000; ++draw) {
                    const uint64_t got = sampler.gap(a);
                    const uint64_t want = b.geometric(p);
                    if (want < bound) {
                        ASSERT_EQ(got, want)
                            << "p=" << p << " width=" << width
                            << " bound=" << bound << " draw=" << draw;
                    } else {
                        ASSERT_GE(got, bound)
                            << "p=" << p << " width=" << width
                            << " bound=" << bound << " draw=" << draw;
                    }
                }
                ASSERT_EQ(a.next_u64(), b.next_u64())
                    << "p=" << p << " width=" << width << " bound=" << bound;
            }
        }
    }
}

TEST(GapSampler, CutoffNeverPrecedesTheTrueBoundary)
{
    int fast = 0;
    for (const double p : kProbabilities) {
        for (const uint64_t width : kWidths) {
            const GapSampler sampler(p, width);
            if (sampler.cutoff() >= kDraws) {
                continue; // fast path off: every draw takes the formula
            }
            ++fast;
            // Geometric is monotone in the draw; bisect for the first
            // draw whose exact value reaches the width.
            uint64_t lo = 0;
            uint64_t hi = kDraws - 1;
            ASSERT_GE(geometric_at(p, hi), width) << "p=" << p;
            while (lo < hi) {
                const uint64_t mid = lo + (hi - lo) / 2;
                if (geometric_at(p, mid) >= width) {
                    hi = mid;
                } else {
                    lo = mid + 1;
                }
            }
            EXPECT_GE(sampler.cutoff(), lo)
                << "p=" << p << " width=" << width;
            // Every draw from the cutoff up gives the formula >= width,
            // and the sampler answers without it.
            const uint64_t end =
                std::min(kDraws, sampler.cutoff() + uint64_t{100000});
            for (uint64_t k = sampler.cutoff(); k < end; ++k) {
                ASSERT_GE(geometric_at(p, k), width)
                    << "p=" << p << " width=" << width << " k=" << k;
                ASSERT_GE(sampler_at(sampler, k), width)
                    << "p=" << p << " width=" << width << " k=" << k;
            }
            // Just below the cutoff the sampler still evaluates the
            // formula, so it agrees exactly.
            for (uint64_t k = sampler.cutoff() - std::min<uint64_t>(
                                  sampler.cutoff(), 1000);
                 k < sampler.cutoff(); ++k) {
                ASSERT_EQ(sampler_at(sampler, k), geometric_at(p, k))
                    << "p=" << p << " width=" << width << " k=" << k;
            }
        }
    }
    // The onchip-d21 walks (p=1e-3, widths 441 and 220) are among them.
    EXPECT_GE(fast, 20);
    EXPECT_LT(GapSampler(1e-3, 441).cutoff(), kDraws);
    EXPECT_LT(GapSampler(1e-3, 220).cutoff(), kDraws);
}

TEST(GapSampler, FastPathOffBelowTwoToMinusTwenty)
{
    // (1-p)^width < 2^-20: a walk almost never ends on its first draw.
    EXPECT_EQ(GapSampler(0.1, 220).cutoff(), kDraws);
    EXPECT_EQ(GapSampler(0.5, 21).cutoff(), kDraws);
    EXPECT_LT(GapSampler(0.5, 19).cutoff(), kDraws);
    EXPECT_EQ(GapSampler(1e-2, 6561).cutoff(), kDraws);
}

TEST(GapSampler, CertainAndImpossibleTrialsConsumeNoDraw)
{
    for (const double p : {0.0, -0.5, 1.0, 1.5}) {
        for (const uint64_t width : kWidths) {
            const GapSampler sampler(p, width);
            Rng a(9);
            Rng b(9);
            EXPECT_EQ(sampler.gap(a), b.geometric(p)) << "p=" << p;
            int hits = 0;
            sampler.for_each_hit(a, [&](uint64_t i) {
                EXPECT_EQ(i, static_cast<uint64_t>(hits));
                ++hits;
            });
            EXPECT_EQ(static_cast<uint64_t>(hits), p >= 1.0 ? width : 0)
                << "p=" << p;
            EXPECT_EQ(a.next_u64(), b.next_u64()) << "p=" << p;
        }
    }
}

TEST(GapSampler, ForEachHitMatchesTheReferenceWalk)
{
    for (const double p : kProbabilities) {
        for (const uint64_t width : kWidths) {
            const GapSampler sampler(p, width);
            Rng a(static_cast<uint64_t>(width) * 7 + 3);
            Rng b = a;
            for (int walk = 0; walk < 200; ++walk) {
                std::vector<uint64_t> got;
                std::vector<uint64_t> want;
                sampler.for_each_hit(a, [&](uint64_t i) { got.push_back(i); });
                reference_walk(p, width, b,
                               [&](uint64_t i) { want.push_back(i); });
                ASSERT_EQ(got, want)
                    << "p=" << p << " width=" << width << " walk=" << walk;
            }
            ASSERT_EQ(a.next_u64(), b.next_u64());
        }
    }
}

TEST(GapWalk, BinomialMatchesTheReferenceCount)
{
    // Binomial(n, p) takes the gap walk for p <= 0.1 below the Gaussian
    // limit, and for p >= 0.9 through the complement.
    const std::pair<uint64_t, double> cases[] = {
        {1, 1e-3},    {441, 1e-3}, {220, 2e-3}, {999, 0.1},
        {5000, 1e-3}, {441, 0.95}, {64, 1e-9},  {100000, 1e-4}};
    for (const auto &[n, p] : cases) {
        Rng a(n + 5);
        Rng b = a;
        const bool complement = p > 0.5;
        const double walk_p = complement ? 1.0 - p : p;
        for (int draw = 0; draw < 300; ++draw) {
            uint64_t count = 0;
            reference_walk(walk_p, n, b, [&](uint64_t) { ++count; });
            ASSERT_EQ(a.binomial(n, p), complement ? n - count : count)
                << "n=" << n << " p=" << p << " draw=" << draw;
        }
        ASSERT_EQ(a.next_u64(), b.next_u64()) << "n=" << n << " p=" << p;
    }
}

/**
 * Every ErrorFrame walk against the reference walk on a twin stream:
 * inject, measure and measure_packed, with p changing between calls
 * (the frame's cached samplers rebuild), p = 1 (every qubit flips with
 * no draw) and p = 0, on two frames of different widths that share
 * one generator.
 */
TEST(GapWalk, FrameWalksMatchTheReferenceWalk)
{
    const RotatedSurfaceCode small(5);
    const RotatedSurfaceCode large(9);
    ErrorFrame frames[2] = {ErrorFrame(small, CheckType::X),
                            ErrorFrame(large, CheckType::Z)};
    PackedBits want_err[2] = {PackedBits(small.num_data()),
                              PackedBits(large.num_data())};
    const double schedule[] = {1e-3, 1e-3, 5e-2, 1e-3, 1.0, 0.0,
                               0.3,  2e-3, 1e-9, 0.9,  1e-3};
    Rng rng(41);
    Rng twin = rng;
    int step = 0;
    for (int pass = 0; pass < 20; ++pass) {
        for (const double p : schedule) {
            for (int f = 0; f < 2; ++f) {
                ErrorFrame &frame = frames[f];
                const uint64_t data =
                    static_cast<uint64_t>(want_err[f].size());
                // inject
                frame.inject(p, rng);
                reference_walk(p, data, twin, [&](uint64_t i) {
                    want_err[f].flip(static_cast<int>(i));
                });
                ASSERT_EQ(frame.error(), want_err[f]) << "step " << step;
                // measure (byte) at a different rate than inject
                const double p_meas = p == 1.0 ? 1.0 : p * 0.5;
                std::vector<uint8_t> got;
                frame.measure(p_meas, rng, got);
                std::vector<uint8_t> want;
                frame.measure_perfect(want);
                reference_walk(p_meas, want.size(), twin,
                               [&](uint64_t i) { want[i] ^= 1; });
                ASSERT_EQ(got, want) << "step " << step;
                // measure_packed
                PackedSyndrome got_packed;
                frame.measure_packed(p, rng, got_packed);
                frame.measure_perfect(want);
                reference_walk(p, want.size(), twin,
                               [&](uint64_t i) { want[i] ^= 1; });
                PackedSyndrome want_packed;
                want_packed.from_bytes(want);
                ASSERT_EQ(got_packed, want_packed) << "step " << step;
                ASSERT_EQ(rng.next_u64(), twin.next_u64()) << "step " << step;
                ++step;
            }
            if (pass % 3 == 2) {
                for (int f = 0; f < 2; ++f) {
                    frames[f].reset();
                    want_err[f].clear();
                }
            }
        }
    }
    // A copied frame carries its samplers and walks the same stream.
    ErrorFrame copy = frames[1];
    Rng c(5);
    Rng d(5);
    copy.inject(1e-3, c);
    frames[1].inject(1e-3, d);
    EXPECT_EQ(copy.error(), frames[1].error());
    EXPECT_EQ(c.next_u64(), d.next_u64());
}

} // namespace
} // namespace btwc
