#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "decoders/decoder.hpp"
#include "surface/lattice.hpp"

namespace btwc {

/** Which tier of the decode hierarchy resolved a signature. */
enum class DecoderTier : uint8_t
{
    Clique = 0,     ///< on-chip combinational logic (tier 0)
    UnionFind = 1,  ///< mid-tier cluster decoder (tier 1)
    Mwpm = 2,       ///< full matching decoder (final tier)
    Exact = 3,      ///< brute-force matching oracle (cross-validation)
    Lut = 4,        ///< syndrome-indexed lookup table (small d, O(1))
    /**
     * Sliding-window streaming MWPM (decoders/stream_window.hpp).
     * Stream-only: valid solely as the final tier of a `kind=stream`
     * scenario's chain (any Union-Find tiers before it screen whole
     * windows under the standard escalation contract). It is not a
     * batch `Decoder` backend, so `TierChain` refuses to construct a
     * chain containing it.
     */
    Stream = 5,
};

/** Number of DecoderTier enumerators (per-tier stats array size). */
constexpr int kNumDecoderTiers = 6;

/** Display name of a tier. */
const char *decoder_tier_name(DecoderTier tier);

/** One level of a decode hierarchy. */
struct TierSpec
{
    DecoderTier kind = DecoderTier::Clique;

    /**
     * Escalate past this tier when its decode reports
     * `Result::effort` above this value (even though it produced a
     * correction): the resolution was cheap but the signature was
     * non-local enough that a stronger decoder should confirm.
     * Negative = never escalate on effort. A tier that *declines*
     * (`Result::resolved == false`, e.g. Clique's COMPLEX verdict)
     * always escalates regardless of this threshold. The final tier
     * always has the last word.
     */
    int escalation_threshold = -1;

    /**
     * Whether the tier's decoder lives off-chip. Off-chip tiers are
     * what the bandwidth model provisions for; they are also the tiers
     * an `Oracle` off-chip policy may substitute (see
     * TierChain::Options::stop_before_offchip).
     */
    bool offchip = false;

    static TierSpec clique();
    static TierSpec union_find(int escalation_threshold = 2);
    static TierSpec mwpm();
    static TierSpec exact();
    static TierSpec lut();
    static TierSpec stream();
};

/** An ordered decode hierarchy configuration. */
struct TierChainConfig
{
    std::vector<TierSpec> tiers;

    /** The paper's baseline architecture: Clique -> MWPM. */
    static TierChainConfig legacy();

    /** The §8.1 deep hierarchy: Clique -> Union-Find -> MWPM. */
    static TierChainConfig deep(int uf_threshold = 2);

    /**
     * Parse a comma-separated tier spec, e.g. "clique,uf,mwpm" or
     * "clique,union-find:3,exact". Recognized tiers: clique | uf |
     * union-find | mwpm | exact | lut | stream; an optional ":<n>"
     * suffix sets the tier's escalation threshold (defaulting to
     * `uf_threshold` for Union-Find tiers). An empty spec yields the
     * legacy chain. The stream-only `stream` tier parses here so
     * kind=stream scenario specs can carry it, but a chain containing
     * it is rejected with a diagnostic at scenario validation
     * (non-stream kinds, api/scenario.cpp) and at TierChain
     * construction. Returns false on a malformed spec, leaving `out`
     * untouched and storing a diagnostic in `error` (when non-null).
     * Never terminates the process; the CLI exit-on-error behavior
     * lives in `tiers_from_flags` (common/flags.hpp).
     */
    static bool try_parse(const std::string &spec, int uf_threshold,
                          TierChainConfig *out, std::string *error);

    /**
     * As `try_parse`, but throws std::invalid_argument on a malformed
     * spec. Convenient for programmatic callers with exceptions.
     */
    static TierChainConfig parse(const std::string &spec,
                                 int uf_threshold = 2);

    /** Human-readable form, e.g. "clique>union-find(2)>mwpm". */
    std::string describe() const;

    /** True when any tier is the stream-only sliding-window tier. */
    bool contains_stream() const;
};

/**
 * A configurable decode hierarchy: ordered `Decoder` tiers with
 * per-tier escalation predicates (see TierSpec). This is the seam the
 * paper's §8.1 "deeper hierarchies" extension plugs into, and the one
 * `BtwcSystem` (core/system.hpp) and the Monte-Carlo harnesses
 * consume. File-level escalation contract: src/decoders/README.md.
 */
class TierChain
{
  public:
    /** Outcome of one hierarchical decode. */
    struct Result
    {
        int tier_index = 0;                     ///< chain position consulted last
        DecoderTier tier = DecoderTier::Clique; ///< its kind
        bool offchip = false;  ///< that tier lives off-chip
        /**
         * False only when the chain stopped before an off-chip tier
         * (Options::stop_before_offchip) or a trailing tier declined;
         * the caller owns the substitute resolution then.
         */
        bool resolved = true;
        /**
         * Largest `Decoder::Result::effort` observed across all
         * consulted tiers -- e.g. the Union-Find growth-iteration
         * count even when the chain escalated past it to MWPM.
         */
        int effort = 0;
        Decoder::Result decode;  ///< accepting tier's full result
    };

    struct Options
    {
        /**
         * Stop before *running* an off-chip tier: the caller will
         * substitute an oracle for it (OffchipPolicy::Oracle) or only
         * needs the on-chip classification. The returned Result names
         * the off-chip tier with `resolved == false`.
         */
        bool stop_before_offchip = false;
    };

    TierChain(const RotatedSurfaceCode &code, CheckType detector,
              TierChainConfig config);

    /** The check type this hierarchy decodes. */
    CheckType detector() const { return detector_; }

    /** Number of tiers. */
    size_t size() const { return tiers_.size(); }

    /** Spec of tier i. */
    const TierSpec &spec(size_t i) const { return config_.tiers[i]; }

    /** Decoder backend of tier i. */
    const Decoder &decoder(size_t i) const { return *tiers_[i]; }

    /** Active configuration. */
    const TierChainConfig &config() const { return config_; }

    /**
     * The tier walk, over one filtered single-round syndrome — the
     * only one. Tiers run through `Decoder::decode_packed` (no event
     * materialization; Clique and LUT stay word-parallel end-to-end),
     * and `out` is overwritten in place reusing its correction
     * capacity, so steady-state cycles allocate nothing. When no check
     * fired, no tier runs: tier 0 resolves with a *zero-width*
     * `out.decode.correction` in O(1), as does a walk stopped before
     * an off-chip tier (every consumer gates application on
     * `decode.defects > 0`).
     *
     * `first_tier > 0` resumes a walk that `stop_before_offchip`
     * halted in front of tier `first_tier` (the stop position is its
     * `Result::tier_index`): tiers [first_tier, last] run with the
     * normal escalation predicates, and `out.effort` on entry seeds
     * the max-effort accumulator with what the earlier tiers observed,
     * so resuming in the stopped walk's Result with default options
     * yields the uninterrupted walk's Result in every field. The
     * off-chip service (core/offchip_service.hpp) finishes each served
     * request this way. Not concurrency-safe on one instance (pooled
     * attempt scratch); concurrent shards own their chains.
     */
    void decode_syndrome(const PackedSyndrome &syndrome,
                         const Options &options, Result &out,
                         size_t first_tier = 0) const;
    Result decode_syndrome(const PackedSyndrome &syndrome,
                           const Options &options) const
    {
        Result out;
        decode_syndrome(syndrome, options, out);
        return out;
    }
    Result decode_syndrome(const PackedSyndrome &syndrome) const
    {
        return decode_syndrome(syndrome, Options());
    }

    /**
     * Verify the chain's structural invariants: a non-empty tier list
     * with one live decoder per spec, every decoder built for this
     * chain's detector, and escalation monotonicity — on-chip tiers
     * form a prefix, so once a signature leaves the chip it never
     * comes back (the assumption behind resuming a stopped walk at
     * its off-chip tier). Runs automatically from
     * the constructor at AuditLevel::Deep; throws CheckFailure.
     */
    void audit() const;

  private:
    /**
     * The walk behind `decode_syndrome`, seeded with `effort` as the
     * max-effort accumulator. `EventPath` runs every tier through
     * `Decoder::decode(events, 1, out)` instead of `decode_packed`:
     * the reference the deep audit re-runs each walk against, which
     * re-derives the word-parallel overrides (Clique, LUT) and checks
     * that the pooled scratch leaks no state between walks. A
     * compile-time flag keeps the per-cycle instance free of it.
     */
    template <bool EventPath>
    void walk(const PackedSyndrome &syndrome, const Options &options,
              size_t first_tier, int effort, Result &out) const;

    CheckType detector_;
    TierChainConfig config_;
    std::vector<std::unique_ptr<Decoder>> tiers_;
    // Pooled scratch of the walk (swapped with out.decode on accept
    // so correction capacity ping-pongs between the two).
    mutable Decoder::Result attempt_scratch_;
    mutable std::vector<DetectionEvent> events_scratch_;
    /** Single-owner guard over the pooled scratch above (the
     * "concurrent shards own their chains" rule, machine-checked at
     * AuditLevel::Basic and above). */
    SingleThreadOwner thread_owner_;
};

} // namespace btwc
