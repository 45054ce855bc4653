#pragma once

#include <cstdint>
#include <vector>

#include "surface/lattice.hpp"
#include "surface/packed.hpp"

namespace btwc {

/** Classification of one cycle's (filtered) error signature. */
enum class CliqueVerdict : uint8_t
{
    AllZeros = 0,  ///< no check fired: nothing to do
    Trivial = 1,   ///< all fired cliques locally decodable (Local-1s)
    Complex = 2,   ///< at least one clique flagged COMPLEX: go off-chip
};

/** Outcome of one Clique decode. */
struct CliqueOutcome
{
    CliqueVerdict verdict = CliqueVerdict::AllZeros;
    /** Data qubits to flip; populated only for Trivial verdicts. */
    std::vector<int> corrections;
};

/**
 * The on-chip Clique decoder (§4 of the paper) for one check type.
 *
 * For every fired check `a` the decoder inspects the clique of
 * same-type neighbor checks N(a) (Fig. 5):
 *
 *  - odd |fired(N(a))|: trivial; for each fired neighbor the shared
 *    data qubit is corrected (the per-data-qubit AND of Fig. 5);
 *  - |fired(N(a))| == 0 and `a` owns a boundary half-edge: trivial;
 *    one boundary data qubit is corrected (this generalizes the 1+1
 *    and 1+2 corner/edge special cases in Fig. 5 -- flipping either
 *    boundary qubit of a 1+2 clique is equivalent up to a stabilizer);
 *  - otherwise: COMPLEX; the cycle's syndrome must go off-chip.
 *
 * The decision logic per clique is a handful of XOR/AND/NOT gates
 * (Fig. 6); `sfq/clique_circuit.hpp` emits exactly that netlist.
 *
 * Two evaluation paths share that contract bit-exactly (property
 * tests): the legacy byte-per-check `decode`, and the word-parallel
 * packed path (`decode_packed` / `would_raise_complex`) that iterates
 * only the fired bits and evaluates each clique's neighborhood over a
 * precomputed per-check neighbor mask: the decision needs only the
 * parity of the fired neighbors and whether any fired, so that is all
 * it computes (`and_parity`, surface/packed.hpp).
 * Instances are not concurrency-safe (pooled byte-path scratch).
 */
class CliqueDecoder
{
  public:
    /**
     * @param code     the surface code lattice
     * @param detector which check type's syndromes are decoded
     */
    CliqueDecoder(const RotatedSurfaceCode &code, CheckType detector);

    /** The check type this instance decodes. */
    CheckType detector() const { return detector_; }

    /**
     * Decode one (filtered) syndrome: one byte per check of the
     * configured type, nonzero = fired.
     */
    CliqueOutcome decode(const std::vector<uint8_t> &syndrome) const;

    /**
     * As `decode`, but writing into a caller-owned outcome whose
     * corrections capacity is reused: the allocation-free spelling for
     * steady-state loops.
     */
    void decode(const std::vector<uint8_t> &syndrome,
                CliqueOutcome &out) const;

    /**
     * Packed fast path: decode one packed syndrome, writing the
     * correction as a per-data-qubit bit mask (resized/cleared here).
     * The verdict, and the set of corrected qubits, are bit-exact with
     * the byte `decode` — including the early exit on the first
     * COMPLEX clique in ascending check order (the correction mask is
     * all-zero then, like the byte path's cleared list).
     */
    CliqueVerdict decode_packed(const PackedSyndrome &syndrome,
                                PackedBits &correction) const;

    /**
     * Word-parallel screening predicate: true iff `decode` would
     * return a Complex verdict. The escalation decision alone, without
     * materializing corrections — what a tier needs to route a
     * signature off-chip.
     */
    bool would_raise_complex(const PackedSyndrome &syndrome) const;

    /**
     * Gate-level decision for a single clique: true when check `a`
     * would raise the COMPLEX flag given the syndrome. Exposed for the
     * hardware generator and the exhaustive unit tests.
     */
    bool clique_is_complex(int check,
                           const std::vector<uint8_t> &syndrome) const;

  private:
    const RotatedSurfaceCode &code_;
    CheckType detector_;
    int num_checks_;
    int syndrome_words_;
    /** Per-check neighbor bit mask, `syndrome_words_` words per check:
     * bit b of check c's mask is set iff b is a clique neighbor of c. */
    std::vector<uint64_t> neighbor_masks_;
    /** First boundary half-edge data qubit per check, or -1. */
    std::vector<int> first_boundary_data_;
    // Byte-path assert mask, pooled across decode calls.
    mutable std::vector<uint8_t> assert_scratch_;
};

} // namespace btwc
