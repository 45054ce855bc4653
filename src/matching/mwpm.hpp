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
 * Certified instances skip the blossom (Blossom matcher only; the
 * ExactDp oracle always runs its DP). With k <= 2 the instance has one
 * perfect matching, so the pairing is forced: one defect retires, two
 * pair iff w <= b_0 + b_1. A k >= 3 instance with
 * 2 k^2 <= rounds * num_checks tries a certificate: one pass over the
 * defect pairs reads each defect's check hop row once
 * (`CheckGraphDistances::row`) into a pooled k x k distance table and
 * finds every defect's nearest defect; the candidate pairs
 * mutual-nearest defects with w_ij < b_i + b_j and retires the rest,
 * and it is used only when the doubled duals Y_i = w_ij (paired) or
 * 2 b_i (retired) satisfy strict complementary slackness
 * (Y_i < 2 b_i for every paired i, Y_i + Y_j < 2 w_ij for every pair
 * not matched), which makes it the unique optimal boundary matching
 * and hence the pairing the blossom returns (src/decoders/README.md,
 * "Certified instances"). Every other instance goes to the blossom,
 * loaded in one pass (`MaxWeightMatching::load_rows`): each weight row
 * comes from the table after a failed attempt, else from one read of
 * the defect's check hop row. More crowded instances skip the
 * attempt because they seldom certify and a failed attempt adds
 * 10-20% to a decode. At AuditLevel::Deep every certified instance is
 * also solved by the blossom and the two pairings must agree.
 * `certified_decodes()` and `blossom_decodes()` count the two paths.
 *
 * Hot-path contract: each decoder instance owns one persistent
 * matcher scratch (grown once, reused by every decode call), and every
 * entry but the value forms writes into a caller-owned Result, so
 * steady-state decoding into a pooled Result is allocation-free.
 * The check-graph tables are looked up on the first decode and kept,
 * so a decoder that never decodes builds none. Instances are
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
     * measurement rounds (all event rounds must lie in [0, rounds))
     * into `out`. Single-round packed syndromes come in through the
     * base `decode_packed`.
     */
    void decode(const std::vector<DetectionEvent> &events, int rounds,
                Result &out) const override;
    using Decoder::decode;

    /**
     * As `decode`, and also report the solved pairing
     * into `matches` (overwritten; capacity reused): one entry per
     * matched pair or boundary retirement, each event index appearing
     * in exactly one entry, with the data-qubit path of that pair's
     * correction. `out` is bit-identical to `decode` on the same
     * input — the match record is filled inside the same
     * path-recovery walk the plain decode runs (see MwpmMatches).
     */
    void decode_matched(const std::vector<DetectionEvent> &events,
                        int rounds, MwpmMatches &matches,
                        Result &out) const;

    /** Decodes with at least one defect that skipped the blossom: the
     * k <= 2 closed form and certified k >= 3 instances (Blossom
     * matcher only; see the class comment). */
    uint64_t certified_decodes() const { return certified_; }

    /** Decodes the blossom solved (Blossom matcher; the certificate
     * failed). */
    uint64_t blossom_decodes() const { return blossom_; }

  private:
    struct Scratch;

    void decode_impl(const std::vector<DetectionEvent> &events, int rounds,
                     Result &out, MwpmMatches *matches) const;

    /** The check-graph tables, looked up on the first decode. */
    const CheckGraphDistances &oracle() const;

    const RotatedSurfaceCode &code_;
    CheckType detector_;
    int space_weight_;
    int time_weight_;
    Matcher matcher_;
    mutable const CheckGraphDistances *oracle_ = nullptr;
    mutable uint64_t certified_ = 0;
    mutable uint64_t blossom_ = 0;
    /**
     * Persistent per-instance working set (boundary distances, the
     * certificate's pair-distance table and nearest-defect keys,
     * mates, the subset-DP bridge and the pooled blossom matcher); every
     * decode entry point routes through it, so repeated decodes reuse
     * grown capacity instead of reallocating.
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
