#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "decoders/decoder.hpp"
#include "surface/lattice.hpp"
#include "surface/packed.hpp"

namespace btwc {

/**
 * Union-Find decoder (Delfosse-Nickerson) over the spacetime graph.
 *
 * Implements the almost-linear-time cluster-growth + peeling decoder.
 * The paper's §8.1 suggests deeper decoder hierarchies beyond Clique;
 * Union-Find is the natural mid-tier: far cheaper than MWPM with only
 * slightly worse accuracy. We provide it both as that extension and as
 * an independent cross-check of the MWPM implementation (their logical
 * error rates must be within a small factor of each other).
 *
 * Algorithm: every defect seeds a cluster; clusters grow by half-edge
 * increments; odd clusters keep growing until their defect parity is
 * even or they touch the lattice boundary; the grown support (erasure)
 * is then peeled from the leaves of a spanning forest to produce the
 * correction.
 *
 * As a `Decoder` tier, the number of half-edge growth iterations the
 * cluster stage needed is reported as `Result::effort`: a cheap,
 * hardware-friendly measure of how non-local the signature was (0 =
 * nothing to grow). The tier chain (§8.1) escalates to MWPM above a
 * configured threshold.
 *
 * One implementation, the event entry `decode(events, rounds, out)`,
 * which peels the correction straight into `out.correction`; every
 * other spelling (the value form, the base `decode_packed`) routes
 * through it. The spacetime topology (edges plus a CSR incidence list
 * in ascending edge order) is cached per round count, and all per-call
 * state lives in a per-instance scratch, so in steady state a decode
 * into a pooled Result allocates nothing. Its cost is what its
 * clusters grow plus terms that scale with the window, not the
 * clusters: each call clears five node bitsets (one bit per spacetime
 * node, 64 to a word); each growth round clears and scans the `active`
 * node bitset and the `candidate` edge bitset and scans `in_cluster`;
 * and a peel rooted at the boundary walks the boundary node's whole
 * incidence list, i.e. every boundary half-edge of the window (2d per
 * round), grown or not. The per-edge growth and the `parent` array are
 * not cleared but undone:
 *
 *  - Between calls, every edge's growth is zero and the union-find
 *    `parent` array is the identity. A call records each edge whose
 *    growth leaves zero and, before it returns, zeroes those edges
 *    and resets `parent` for every node that joined a cluster. That
 *    reset covers every `parent` the call changed: `unite` only
 *    relinks roots of in-cluster nodes (the boundary node included,
 *    since the edge that reaches it marks it in-cluster), and path
 *    compression only rewrites nodes `unite` already relinked.
 *  - Peeling walks the same topology incidence lists, skipping edges
 *    not fully grown, so its breadth-first visit order is the one a
 *    grown-edge incidence list built in ascending edge order gives.
 *    Its roots are the boundary (when grown into), then the unvisited
 *    in-cluster nodes in ascending order.
 *
 * `tests/golden/uf_decodes.txt` pins correction, weight and effort
 * bit-exactly, and `AuditLevel::Deep` re-checks the between-call
 * invariant on every entry. Instances are not concurrency-safe
 * (pooled scratch, Decoder's single-owner contract); concurrent shards
 * own their own.
 */
class UnionFindDecoder : public Decoder
{
  public:
    UnionFindDecoder(const RotatedSurfaceCode &code, CheckType detector);
    ~UnionFindDecoder() override;

    const char *name() const override { return "union-find"; }

    /** The check type whose detection events are decoded. */
    CheckType detector() const override { return detector_; }

    /**
     * Decode detection events over `rounds` rounds into `out` (cf.
     * MwpmDecoder). `Result::effort` carries the cluster growth
     * iteration count.
     */
    void decode(const std::vector<DetectionEvent> &events, int rounds,
                Result &out) const override;
    using Decoder::decode;

  private:
    struct Scratch;
    /** Rebuild the scratch's cached topology when `rounds` differs
     * from the last decode's (each caller decodes a fixed window
     * depth). */
    void prepare_topology(int rounds) const;

    const RotatedSurfaceCode &code_;
    CheckType detector_;
    int num_checks_;
    std::unique_ptr<Scratch> scratch_;
};

} // namespace btwc
