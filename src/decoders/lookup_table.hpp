#pragma once

#include <cstdint>
#include <vector>

#include "decoders/decoder.hpp"
#include "surface/lattice.hpp"

namespace btwc {

/**
 * Lookup-table decoder tier for small distances (the `lut` tier).
 *
 * For codes whose per-type check count fits a table index (d = 3: 4
 * checks / 16 entries, d = 5: 12 checks / 4096 entries), every
 * possible single-round syndrome is decoded once at construction by
 * the brute-force exact matcher (`ExactDecoder`, unit weights) and the
 * resulting correction mask (packed, one bit per data qubit) +
 * matched weight are stored. A decode is then one table index —
 * O(1), allocation-free, and exact by construction, which makes `lut`
 * the cheapest possible final tier for tiny codes and an attractive
 * on-chip stage: the hardware analogue is a syndrome-addressed ROM.
 *
 * Applicability contract: the table covers single-round
 * (perfect-measurement) syndromes only. Multi-round event sets, and
 * any code whose check count exceeds `kMaxTableChecks`, make the tier
 * *decline* (`Result::resolved == false`, all-zero mask) so the chain
 * escalates — the same contract Clique uses for COMPLEX signatures
 * (see src/decoders/README.md). `BtwcSystem`'s per-cycle
 * classification decodes exactly one filtered round, so a `lut` tier
 * placed anywhere in the chain resolves every signature it is indexed
 * for.
 */
class LookupTableDecoder : public Decoder
{
  public:
    /**
     * Largest check count a table is built for: 12 checks (d = 5)
     * means 4096 entries x one 64-bit word — 32 KB. d = 7 would already
     * need 2^24 entries, so larger codes construct an always-declining
     * tier instead (`available() == false`).
     */
    static constexpr int kMaxTableChecks = 12;

    LookupTableDecoder(const RotatedSurfaceCode &code, CheckType detector);

    const char *name() const override { return "lut"; }

    CheckType detector() const override { return detector_; }

    /** Whether a table was built (the code is small enough). */
    bool available() const { return !corrections_.empty(); }

    void decode(const std::vector<DetectionEvent> &events, int rounds,
                Result &out) const override;
    using Decoder::decode;

    /**
     * Packed fast path: the packed syndrome's first word *is* the
     * table index (`kMaxTableChecks` <= 64 guarantees a single word),
     * so a decode is one word copy with no event materialization.
     * Declines exactly when the event path would (table unavailable).
     */
    void decode_packed(const PackedSyndrome &syndrome,
                       Result &out) const override;
    using Decoder::decode_packed;

  private:
    /** Reset `out` to a resolved all-zero num_data-bit mask. */
    void clear_result(Result &out, int defects) const;

    /** Copy entry `index` (correction words and weight) into `out`. */
    void load_entry(size_t index, Result &out) const;

    const RotatedSurfaceCode &code_;
    CheckType detector_;
    int num_checks_;
    int num_data_;
    int words_;  ///< packed_words(num_data_): words per table entry
    /** Entry s: correction mask for the syndrome with bit c == check
     * c, packed like `Result::correction`. */
    std::vector<uint64_t> corrections_;  ///< 2^num_checks x words_, flat
    std::vector<int64_t> weights_;       ///< matched weight per entry
};

} // namespace btwc
