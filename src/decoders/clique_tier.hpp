#pragma once

#include "core/clique.hpp"
#include "decoders/decoder.hpp"
#include "surface/lattice.hpp"

namespace btwc {

/**
 * Tier-0 adapter: the on-chip Clique decoder behind the abstract
 * `Decoder` interface.
 *
 * Clique is a single-round combinational circuit, so this tier only
 * accepts single-round inputs; multi-round event sets are declined
 * (`resolved == false`) and escalate. Within a round the adapter maps
 * Clique's verdicts onto the escalation contract:
 *
 *  - AllZeros / Trivial: resolved; the correction mask carries the
 *    per-clique local fixes (all-zero for AllZeros).
 *  - Complex: declined; the signature must escalate to the next tier.
 *
 * `effort` is always 0 -- Clique's decision is one pass of
 * combinational logic regardless of the signature (Fig. 6).
 */
class CliqueTierDecoder : public Decoder
{
  public:
    CliqueTierDecoder(const RotatedSurfaceCode &code, CheckType detector)
        : code_(code), clique_(code, detector)
    {
    }

    const char *name() const override { return "clique"; }

    CheckType detector() const override { return clique_.detector(); }

    void decode(const std::vector<DetectionEvent> &events, int rounds,
                Result &out) const override;
    using Decoder::decode;

    /**
     * Word-parallel single-round fast path: the packed syndrome feeds
     * `CliqueDecoder::decode_packed`, which writes its mask straight
     * into `out.correction` (no event materialization, no byte
     * rebuild), and the Result — verdict mapping included — is
     * bit-identical to `decode` on the equivalent single-round event
     * list.
     */
    void decode_packed(const PackedSyndrome &syndrome,
                       Result &out) const override;
    using Decoder::decode_packed;

    /** The wrapped combinational decoder. */
    const CliqueDecoder &clique() const { return clique_; }

  private:
    const RotatedSurfaceCode &code_;
    CliqueDecoder clique_;
    // Pooled per-instance scratch (instances are not concurrency-safe,
    // see Decoder::decode_packed).
    mutable std::vector<uint8_t> syndrome_scratch_;
    mutable CliqueOutcome outcome_scratch_;
};

} // namespace btwc
