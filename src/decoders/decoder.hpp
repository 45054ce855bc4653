#pragma once

#include <cstdint>
#include <vector>

#include "common/check.hpp"
#include "surface/lattice.hpp"
#include "surface/packed.hpp"

namespace btwc {

/**
 * A detection event: check `check` of the decoder's type reported a
 * syndrome *change* in measurement round `round` (0-based).
 */
struct DetectionEvent
{
    int check;
    int round;
};

/**
 * Detection events of a single perfect-measurement round: one round-0
 * event per set syndrome bit, in ascending check order, into a
 * caller-owned vector whose capacity persists across calls.
 */
void events_from_packed(const PackedSyndrome &syndrome,
                        std::vector<DetectionEvent> &out);

/**
 * Abstract decoder-tier interface.
 *
 * Every backend of the decode hierarchy -- the on-chip Clique logic,
 * the Union-Find mid-tier, the blossom MWPM matcher, and the exact
 * brute-force matcher -- implements this interface so that
 * `TierChain` (tier_chain.hpp) can compose them into configurable
 * hierarchies and the Monte-Carlo harnesses can treat them uniformly.
 *
 * Escalation contract (see also src/decoders/README.md): a tier
 * communicates with the hierarchy exclusively through two fields of
 * its `Result`:
 *
 *  - `resolved == false` means the tier *declined*: it cannot produce
 *    a correction for this signature (e.g. Clique's COMPLEX verdict)
 *    and the next tier must run. The correction mask is all-zero.
 *  - `effort` is a cheap, hardware-friendly measure of how hard the
 *    tier had to work (union_find.hpp: Union-Find reports its
 *    half-edge growth iterations, combinational tiers report 0).
 *    The chain escalates past a *resolved* result when the effort
 *    exceeds the tier's configured threshold -- the resolution is
 *    cheap but possibly inaccurate, so a stronger decoder gets the
 *    final say.
 *
 * Every decode writes into a caller-owned `Result`: each field is
 * overwritten and the correction's word capacity is reused, so a
 * pooled Result makes steady-state decoding allocation-free. Like
 * every pooled-scratch path in this codebase, decoder instances are
 * not concurrency-safe; concurrent shards own their own instances.
 */
class Decoder
{
  public:
    /** Result of one decode call. */
    struct Result
    {
        /**
         * One bit per data qubit, set = flip. A backend always writes
         * the full num_data width; zero width means no tier ran (a
         * `TierChain` walk with nothing fired, or stopped before an
         * off-chip tier) or a shed nack.
         */
        PackedBits correction;
        int64_t weight = 0;               ///< total matched weight
        int defects = 0;                  ///< number of detection events
        int effort = 0;      ///< tier-specific escalation signal
        bool resolved = true;  ///< false: tier declined; escalate
    };

    virtual ~Decoder() = default;

    /** Short display name ("clique", "union-find", "mwpm", "exact"). */
    virtual const char *name() const = 0;

    /** The check type whose detection events are decoded. */
    virtual CheckType detector() const = 0;

    /**
     * Decode a set of detection events observed over `rounds`
     * measurement rounds (all event rounds must lie in [0, rounds))
     * into `out`. The one entry every backend implements.
     */
    virtual void decode(const std::vector<DetectionEvent> &events,
                        int rounds, Result &out) const = 0;

    /** Value form of the above (a fresh Result per call). */
    Result decode(const std::vector<DetectionEvent> &events,
                  int rounds) const
    {
        Result out;
        decode(events, rounds, out);
        return out;
    }

    /**
     * Packed single-round decode into `out`. The base implementation
     * unpacks into the pooled event scratch and runs
     * `decode(events, 1, out)`; the word-parallel tiers
     * (CliqueTierDecoder, LookupTableDecoder) override it to skip
     * event materialization entirely. Every override returns exactly
     * what `decode(events, 1)` returns for the set bits as round-0
     * events (re-checked on every chain walk at AuditLevel::Deep,
     * tier_chain.hpp).
     */
    virtual void decode_packed(const PackedSyndrome &syndrome,
                               Result &out) const;

    /** Value form of the above. */
    Result decode_packed(const PackedSyndrome &syndrome) const
    {
        Result out;
        decode_packed(syndrome, out);
        return out;
    }

  protected:
    /** Single-round event scratch of the base decode_packed (see the
     * concurrency note above). */
    mutable std::vector<DetectionEvent> events_scratch_;

    /**
     * Machine-checks the concurrency note above: the pooled scratch
     * (events_scratch_, and every backend's private scratch) belongs
     * to the thread that first decodes with this instance. Backends
     * call `thread_owner_.assert_single_thread_owner()` on their
     * pooled-scratch entry points; the guard is active at
     * AuditLevel::Basic and above (debug builds, --audit runs) and a
     * single relaxed load otherwise. Ownership binds at first use,
     * not construction — harnesses build decoder stacks on the main
     * thread and hand each stack to one worker shard.
     */
    SingleThreadOwner thread_owner_;
};

} // namespace btwc
