#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "surface/lattice.hpp"
#include "surface/packed.hpp"

namespace btwc {

/**
 * Error state and noisy syndrome extraction for one error type.
 *
 * Tracks which data qubits currently carry an error of the configured
 * type (X or Z) and produces per-round syndrome measurements of the
 * detecting check type, optionally with measurement flips. This is the
 * "Pauli frame" of one half of the independently-decoded lattice.
 *
 * State, and the invariant every mutator keeps:
 *   - `error_`, one bit per data qubit (`error()`);
 *   - `syndrome_`, the noiseless syndrome of the current error, packed
 *     one bit per check: always equal to `code.syndrome_of(error_)`.
 * A flipped qubit toggles its error bit and its 1-2 owning checks in
 * `syndrome_`. `audit()` re-derives the syndrome from the error.
 *
 * Noise: `inject` walks `data_walk_` over the data qubits and the
 * noisy reads walk `meas_walk_` over the checks. Both are GapSamplers
 * kept by the frame and rebuilt only when the rate changes, so a walk
 * that flips nothing costs one generator step and a compare. They
 * draw exactly what gap skipping on `Rng::geometric` drew. The noisy
 * reads are const yet may rebuild `meas_walk_`, so a frame serves one
 * thread at a time, even through const references.
 *
 * Costs: `flip` O(1); `inject` O(d^2 p + 1), plus one exp/log1p pair
 * when p differs from the previous call's; `apply` O(list length);
 * `apply_mask` O(words + mask weight); `reset` O(words). Reads:
 * `measure_packed` is a word copy of `syndrome_` plus the
 * measurement-flip walk, O(checks/64 + checks * p_meas + 1);
 * `measure` and `measure_perfect` unpack `syndrome_`, O(checks); a
 * noisy read at a new p_meas adds one exp/log1p pair;
 * `syndrome_clear` and `weight` are whole-word scans. No read
 * allocates once its output has the check width, and none depends on
 * the error weight.
 */
class ErrorFrame
{
  public:
    /** Create an all-clear frame for errors of `error_type`. */
    ErrorFrame(const RotatedSurfaceCode &code, CheckType error_type);

    /** The tracked error type. */
    CheckType error_type() const { return error_type_; }

    /** The check type whose measurements detect the tracked errors. */
    CheckType detector() const { return detector_; }

    /** Clear all errors. */
    void reset();

    /** Toggle the error on one data qubit (and the checks it owns). */
    void flip(int data);

    /**
     * Inject i.i.d. errors: each data qubit flips with probability p.
     * Walks `data_walk_`, so cost is O(d^2 p + 1).
     */
    void inject(double p, Rng &rng);

    /** Apply a correction: toggle every listed data qubit. */
    void apply(const std::vector<int> &corrections);

    /**
     * Apply a correction mask, one bit per data qubit (checked: a mask
     * of any other width throws CheckFailure; `TierChain` leaves the
     * correction zero-width when nothing fired, so gate on
     * `decode.defects > 0`).
     */
    void apply_mask(const PackedBits &mask);

    /** Alias of `apply_mask`: the spelling benchmark/replica.cpp
     * calls (tools/lint.sh keeps it out of the rest of src/). */
    void apply_packed(const PackedBits &mask) { apply_mask(mask); }

    /**
     * One noisy measurement round: `out[c]` is the parity of the
     * current error over check c's support, flipped with probability
     * p_meas. `out` is resized to the check count.
     */
    void measure(double p_meas, Rng &rng, std::vector<uint8_t> &out) const;

    /**
     * Packed equivalent of `measure`: bit-exact with the byte form
     * (same syndrome, same RNG consumption). The noiseless part is a
     * word copy of the stored syndrome; allocation-free once `out` has
     * the check width (the per-`BtwcSystem::Half` scratch idiom).
     */
    void measure_packed(double p_meas, Rng &rng, PackedSyndrome &out) const;

    /** Noiseless measurement round. */
    void measure_perfect(std::vector<uint8_t> &out) const;

    /** True when the noiseless syndrome is all zero. */
    bool syndrome_clear() const { return syndrome_.none(); }

    /** Number of data qubits currently in error. */
    int weight() const;

    /**
     * True when the current error pattern anticommutes with the dual
     * logical operator. Meaningful as a *failure* indicator only when
     * the syndrome is clear.
     */
    bool logical_flipped() const;

    /** Per-qubit error indicators, one bit per data qubit. */
    const PackedBits &error() const { return error_; }

    /** The noiseless syndrome of the current error, one bit per check. */
    const PackedSyndrome &syndrome() const { return syndrome_; }

    /**
     * Verify the stored state against a recomputation: the stored
     * syndrome equals `code().syndrome_of(detector(), error())`, and
     * both bitsets keep their width and zero tail. O(d^2); runs at the
     * deep-audit points of the pipelines that own frames. Throws
     * CheckFailure.
     */
    void audit() const;

    /** The underlying code. */
    const RotatedSurfaceCode &code() const { return code_; }

  private:
    /** `cache`, rebuilt at rate p over its width when p changed. */
    static const GapSampler &walk(GapSampler &cache, double p);

    const RotatedSurfaceCode &code_;
    CheckType error_type_;
    CheckType detector_;
    PackedBits error_;
    PackedSyndrome syndrome_;
    GapSampler data_walk_;
    // A cache, not frame state: the const noisy reads rebuild it.
    mutable GapSampler meas_walk_;
};

} // namespace btwc
