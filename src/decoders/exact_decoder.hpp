#pragma once

#include "matching/mwpm.hpp"

namespace btwc {

/**
 * Brute-force exact matching decoder tier.
 *
 * Shares the spacetime distances, path recovery and pooled scratch
 * with `MwpmDecoder` under unit weights, but solves the defect pairing
 * with the subset DP of matching/exact.hpp (exact by construction,
 * O(2^k * k) in the defect count k). It is the correctness oracle for
 * the blossom-backed production tier and an alternative final tier for
 * cross-validation runs; above ~18 defects it transparently falls back
 * to the blossom, which solves the same reduced instance `MwpmDecoder`
 * does, whose optimum is the subset DP's.
 */
class ExactDecoder : public MwpmDecoder
{
  public:
    ExactDecoder(const RotatedSurfaceCode &code, CheckType detector)
        : MwpmDecoder(code, detector, 1, 1, Matcher::ExactDp)
    {
    }

    const char *name() const override;
};

} // namespace btwc
