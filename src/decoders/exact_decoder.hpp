#pragma once

#include "matching/mwpm.hpp"

namespace btwc {

/**
 * Brute-force exact matching decoder tier.
 *
 * Shares the spacetime graph construction, path recovery, and the
 * scratch-reusing `decode_batch` specialization with `MwpmDecoder`
 * but solves the defect pairing with the subset DP of
 * matching/exact.hpp (exact by construction, O(2^k * k) in the defect
 * count k). It is the correctness oracle for the blossom-backed
 * production tier and an alternative final tier for cross-validation
 * runs; above ~18 defects it transparently falls back to blossom.
 */
class ExactDecoder : public MwpmDecoder
{
  public:
    /**
     * Defaults to `MwpmDecoder`'s fast path: O(1) oracle distances,
     * bit-exact with the Dijkstra. The rare > ~18-defect blossom
     * fallback solves the same reduced instance `MwpmDecoder` does,
     * whose optimum is the subset DP's.
     */
    ExactDecoder(const RotatedSurfaceCode &code, CheckType detector,
                 int space_weight = 1, int time_weight = 1,
                 FastPathConfig fast = FastPathConfig())
        : MwpmDecoder(code, detector, space_weight, time_weight,
                      Matcher::ExactDp, fast)
    {
    }

    const char *name() const override;
};

} // namespace btwc
