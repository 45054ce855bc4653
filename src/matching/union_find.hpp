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
 * through it. A call's work follows its clusters, not the window:
 * it touches only the nodes its clusters reach and the edges at them,
 * so two adjacent defects cost the same in a window of 8 rounds or
 * 512 (`BM_UnionFindDecodePair`). Node (check c, round t) is
 * `(t << check_shift) | c` and edge key `(owning node <<
 * slot_shift) | slot`, so keys ascend as the edges' (round, owning
 * check, slot) order; a check owns its space edges to higher clique
 * neighbours, then its boundary half-edges, then the time edge up.
 * Incident edges come from a per-check table (built from the
 * lattice's clique and boundary lists by the first decode with
 * events) plus the round index, so a new round count only extends
 * the per-node arrays, once, to the deepest window seen. All per-call
 * state lives in a per-instance scratch, so in steady state a decode
 * into a pooled Result allocates nothing.
 *
 *  - Growth: each round's candidates (ungrown edges at the nodes of
 *    odd, boundary-free clusters) are applied in ascending key order
 *    with live re-evaluation of cluster activity. Round one is done
 *    in closed form (only edges joining two defects can fill; the
 *    half-edges of the others are written only if a second round
 *    follows); later rounds queue their candidates in a two-level bit
 *    set over keys, drained from the lowest to the highest active
 *    node's keys.
 *  - Between calls, every edge's growth is zero, every node is its
 *    own union-find parent and every flag is clear. A call records
 *    the edges whose growth leaves zero and the nodes that join a
 *    cluster and, before it returns, resets exactly those. That reset
 *    covers every `parent` the call changed: `unite` only relinks
 *    roots of in-cluster nodes (the boundary node included, since the
 *    edge that reaches it marks it in-cluster), and path compression
 *    only rewrites nodes `unite` already relinked. A call rejected for
 *    a bad event changes nothing.
 *  - Peeling: a breadth-first forest over the fully grown edges, each
 *    node's edges visited in ascending key order, rooted at the
 *    boundary (whose edges are its grown half-edges, ascending) when
 *    grown into, then at each remaining cluster's lowest member:
 *    the forest a scan of the in-cluster nodes in ascending order
 *    roots. When round one ends the growth, each cluster is a
 *    cancelled defect or a pair joined by one edge, and that edge is
 *    its peel.
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

    /** Build the scratch's edge tables from the lattice's clique and
     * boundary lists; the first decode with events calls it. */
    void build_edges() const;

    const RotatedSurfaceCode &code_;
    CheckType detector_;
    int num_checks_;
    std::unique_ptr<Scratch> scratch_;
};

} // namespace btwc
