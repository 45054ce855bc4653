#pragma once

#include <memory>
#include <vector>

#include "matching/mwpm.hpp"
#include "surface/frame.hpp"
#include "surface/lattice.hpp"

namespace btwc {

/**
 * Memory-experiment-style logical readout for a running pipeline:
 * would this frame's residual error flip the logical operator if the
 * experiment ended now?
 *
 * The closure is the standard memory-experiment readout: take the
 * frame's noiseless syndrome, decode it with full-accuracy MWPM, and
 * read the logical indicator off the (syndrome-clear) residual error +
 * correction. Everything is linear over GF(2), so the residual is
 * never built: its parity is the frame's parity XOR the correction's.
 * The frame is only read, which keeps the probe an observer: the live
 * pipeline's frames, decoders, and RNG streams are untouched, so a
 * probed run is bit-identical to an unprobed one — the property that
 * lets the fabric harness report per-tenant logical error rates
 * alongside the queueing observables without perturbing them
 * (tested).
 *
 * The parity is cumulative over the run (a logical flip persists in
 * the frame), so a *rate* comes from differencing: the fabric harness
 * probes on a fixed interval and counts a failure whenever the parity
 * changed since the previous probe — "a logical error happened in this
 * window", the per-window failure indicator a memory experiment reads
 * at its final round.
 *
 * One probe instance serves every tenant of one code distance (it
 * holds an MWPM decoder per error type); like the decoders it wraps,
 * it is not concurrency-safe — each engine shard owns its own.
 */
class LogicalFailureProbe
{
  public:
    explicit LogicalFailureProbe(const RotatedSurfaceCode &code);

    /**
     * True when `frame`'s error, closed out by a perfect-measurement
     * MWPM decode, flips the logical operator. The frame must belong
     * to the probe's code.
     */
    bool logical_parity(const ErrorFrame &frame);

  private:
    // unique_ptr: MwpmDecoder is not movable (it owns per-lattice
    // matching state), and the probe needs one per error type.
    std::vector<std::unique_ptr<MwpmDecoder>> decoders_;
    Decoder::Result result_;  ///< pooled decode of the frame's syndrome
    PackedSyndrome correction_syndrome_;  ///< closure check scratch
};

} // namespace btwc
