#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "decoders/decoder.hpp"
#include "surface/lattice.hpp"

namespace btwc {

/**
 * The pairing behind one MWPM decode, exposed for consumers that must
 * attribute the correction to individual matched pairs — the
 * sliding-window stream decoder (decoders/stream_window.hpp) commits
 * pairs, not whole masks. Flat storage: the correction path of
 * `pairs[i]` is `path_data[pairs[i].path_begin, pairs[i].path_end)`, a
 * list of data-qubit toggles whose XOR across all pairs reproduces
 * `Result::correction` exactly (toggles within one pair are distinct;
 * across pairs they cancel pairwise, matching the mask's XOR
 * semantics). Both vectors are pooled: `clear()` keeps capacity, so a
 * caller-owned instance makes steady-state matched decodes
 * allocation-free on the match-record side.
 */
struct MwpmMatches
{
    struct Pair
    {
        int a = -1;  ///< event index of the first endpoint
        int b = -1;  ///< event index of the mate, or -1 for a boundary
                     ///< retirement
        int64_t weight = 0;  ///< matched spacetime distance
        int path_begin = 0;  ///< [path_begin, path_end) into path_data
        int path_end = 0;
    };

    std::vector<Pair> pairs;     ///< one entry per event pair / retirement
    std::vector<int> path_data;  ///< concatenated data-qubit toggles

    void clear()
    {
        pairs.clear();
        path_data.clear();
    }
};

/**
 * Minimum Weight Perfect Matching decoder over the spacetime decoding
 * graph (the paper's off-chip "complex" decoder [19]).
 *
 * Nodes are (check, round) pairs; space edges are data qubits shared
 * by two same-type checks, time edges connect a check to itself in the
 * next round (measurement errors), and boundary half-edges let chains
 * terminate on the lattice boundary. Space and boundary edges weigh
 * `space_weight`, time edges `time_weight`; unit weights are exact for
 * the paper's phenomenological model with equal data and measurement
 * error probabilities.
 *
 * The graph is the product of the check graph and the round path, one
 * uniform weight per dimension, so every spacetime distance comes in
 * O(1) from the precomputed check-graph tables (surface/distance.hpp):
 * w_ij = hops(c_i, c_j) * space_weight + |r_i - r_j| * time_weight,
 * b_i = (boundary_hops(c_i) + 1) * space_weight. A correction path is
 * the geodesic a per-defect Dijkstra's parent pointers would trace
 * (tie rule in surface/distance.hpp); tests/golden/
 * mwpm_corrections.txt, generated from that Dijkstra, pins it under
 * unit and non-unit weights. The pairing is solved with
 * the configured `Matcher` backend: the blossom algorithm, or the
 * brute-force subset DP of matching/exact.hpp, which is exact by
 * construction and backs the `ExactDecoder` cross-validation tier.
 *
 * The blossom instance has one vertex per defect, plus one virtual
 * boundary vertex when the defect count is odd. A defect pair costs
 * the cheaper of its spacetime distance and the two boundary
 * retirements it could take instead, b_i + b_j; a defect's edge to the
 * virtual vertex costs b_i. A minimum perfect matching of this
 * instance has the boundary matching's optimum weight, and maps back
 * to it: a mate no farther than b_i + b_j is a direct pair, and every
 * other mate, the virtual vertex included, means retirement to the
 * boundary.
 *
 * The instance is loaded in one pass (`MaxWeightMatching::load_rows`):
 * defect i's weight row comes from one read of its check's hop row
 * (`CheckGraphDistances::row`), and no pairwise distance matrix is
 * kept; the few distances needed after the solve (the direct-pair
 * test and the weight of each matched pair) are recomputed from the
 * oracle.
 *
 * Hot-path contract: each decoder instance owns one persistent
 * matcher scratch (grown once, reused by every decode
 * call), so steady-state decoding is allocation-free. Instances are
 * therefore not safe for concurrent `decode` calls from multiple
 * threads — the sharded Monte-Carlo engine gives every shard its own
 * decoder stack, which is the intended usage.
 */
class MwpmDecoder : public Decoder
{
  public:
    /** Backwards-compatible alias; see Decoder::Result. */
    using Result = Decoder::Result;

    /** Pairing engine used on the defect distance graph. */
    enum class Matcher : uint8_t
    {
        Blossom = 0,  ///< O(V^3) primal-dual blossom (production path)
        ExactDp = 1,  ///< subset DP oracle; falls back to Blossom when
                      ///< the defect count exceeds its feasible range
    };

    /**
     * @param code         the surface code
     * @param detector     which check type's events this decoder consumes
     * @param space_weight weight of space (data qubit) and boundary edges
     * @param time_weight  weight of time (measurement) edges
     * @param matcher      pairing engine (see Matcher)
     *
     * Unit weights are exact for the paper's p_data == p_meas model;
     * for asymmetric noise pass log-likelihood weights (see
     * `log_likelihood_weight`).
     */
    MwpmDecoder(const RotatedSurfaceCode &code, CheckType detector,
                int space_weight = 1, int time_weight = 1,
                Matcher matcher = Matcher::Blossom);

    ~MwpmDecoder() override;

    const char *name() const override { return "mwpm"; }

    /** The check type whose detection events are decoded. */
    CheckType detector() const override { return detector_; }

    /**
     * Decode a set of detection events observed over `rounds`
     * measurement rounds (all event rounds must lie in [0, rounds)).
     */
    Result decode(const std::vector<DetectionEvent> &events,
                  int rounds) const override;

    /**
     * As `decode`, but also report the solved pairing into `matches`
     * (overwritten; capacity reused): one entry per matched pair or
     * boundary retirement, each event index appearing in exactly one
     * entry, with the data-qubit path of that pair's correction. The
     * Result is bit-identical to `decode` on the same input — the
     * match record is filled inside the same path-recovery walk the
     * plain decode runs (see MwpmMatches).
     */
    Result decode_matched(const std::vector<DetectionEvent> &events,
                          int rounds, MwpmMatches &matches) const;

  private:
    struct Scratch;

    Result decode_impl(const std::vector<DetectionEvent> &events,
                       int rounds, MwpmMatches *matches = nullptr) const;

    const RotatedSurfaceCode &code_;
    CheckType detector_;
    int space_weight_;
    int time_weight_;
    Matcher matcher_;
    /**
     * Persistent per-instance working set (boundary distances, mates,
     * the subset-DP bridge and the pooled blossom matcher); every
     * decode entry point routes through it, so
     * single-shot `decode()` calls — the dominant `BtwcSystem`
     * per-cycle path — reuse grown capacity instead of reallocating.
     * Mutated under `const` decode; see the class comment for the
     * (non-)thread-safety contract.
     */
    mutable std::unique_ptr<Scratch> scratch_;
};

/**
 * Integer log-likelihood edge weight for an error channel of
 * probability p: round(scale * ln((1-p)/p)). Matching with these
 * weights maximizes the likelihood of the recovered error pattern
 * under independent channels (the standard weighted-MWPM recipe).
 */
int log_likelihood_weight(double p, double scale = 100.0);

} // namespace btwc
