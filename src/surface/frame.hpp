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
 *   - `err_`, one byte per data qubit (`error()`, what byte-path
 *     consumers read);
 *   - `packed_`, its bit-packed mirror (`error_packed()`);
 *   - `syndrome_`, the noiseless syndrome of the current error, packed
 *     one bit per check: always equal to `code.syndrome_of(err_)`.
 * A flipped qubit toggles its bit in both error copies and its 1-2
 * owning checks in `syndrome_`. `audit()` re-derives the other two
 * from `err_`.
 *
 * Costs: `flip` O(1); `inject` O(d^2 p + 1); `apply` O(list length);
 * `apply_mask` O(d^2); `apply_packed` O(words + mask weight); `reset`
 * O(d^2). Reads: `measure_packed` is a word copy of `syndrome_` plus
 * the measurement-flip walk, O(checks/64 + checks * p_meas + 1);
 * `measure` and `measure_perfect` unpack `syndrome_`, O(checks);
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
     * Uses geometric gap skipping, so cost is O(d^2 p + 1).
     */
    void inject(double p, Rng &rng);

    /** Apply a correction: toggle every listed data qubit. */
    void apply(const std::vector<int> &corrections);

    /** Apply a correction mask (one byte per data qubit). */
    void apply_mask(const std::vector<uint8_t> &mask);

    /** Apply a packed correction mask (one bit per data qubit). */
    void apply_packed(const PackedBits &mask);

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

    /** Raw per-qubit error indicators. */
    const std::vector<uint8_t> &error() const { return err_; }

    /** Bit-packed per-qubit error indicators (mirror of error()). */
    const PackedBits &error_packed() const { return packed_; }

    /** The noiseless syndrome of the current error, one bit per check. */
    const PackedSyndrome &syndrome() const { return syndrome_; }

    /**
     * Verify the stored state against a recomputation: the packed
     * mirror equals `error()` and the stored syndrome equals
     * `code().syndrome_of(detector(), error())`. O(d^2); runs at the
     * deep-audit points of the pipelines that own frames. Throws
     * CheckFailure.
     */
    void audit() const;

    /** The underlying code. */
    const RotatedSurfaceCode &code() const { return code_; }

  private:
    const RotatedSurfaceCode &code_;
    CheckType error_type_;
    CheckType detector_;
    std::vector<uint8_t> err_;
    PackedBits packed_;
    PackedSyndrome syndrome_;
};

} // namespace btwc
