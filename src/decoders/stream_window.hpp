#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/stats.hpp"
#include "decoders/decoder.hpp"
#include "decoders/tier_chain.hpp"
#include "matching/mwpm.hpp"
#include "surface/lattice.hpp"
#include "surface/packed.hpp"

namespace btwc {

class UnionFindDecoder;

/** Sliding-window geometry and screening chain of a stream decoder. */
struct StreamWindowConfig
{
    int window = 8;   ///< W: rounds decoded per window (>= 1)
    int overlap = 2;  ///< V: trailing rounds re-decoded next window
                      ///< (0 <= V < W)

    /**
     * Leading screening tiers, evaluated under the standard
     * escalation contract (decoders/decoder.hpp) whenever a window
     * has no overlap-region defect — then any resolved full-window
     * mask is committable without pair attribution, so a cheap tier
     * can absorb the window before the matched MWPM runs. Union-Find
     * tiers only (the constructor checks); empty = every non-trivial
     * window goes straight to matched MWPM.
     */
    std::vector<TierSpec> screen;

    /** C = W - V: rounds committed (and retired) per window decode. */
    int commit_rounds() const { return window - overlap; }
};

/**
 * Counters and conservation ledger of one streaming decoder. Every
 * field is deterministic for a fixed syndrome stream (histograms count
 * rounds, not wall time), so stream metrics sit inside the `metrics`
 * Report subtree the btwc_diff gate compares.
 */
struct StreamWindowStats
{
    uint64_t rounds = 0;   ///< syndrome rounds pushed
    uint64_t windows = 0;  ///< window decodes (incl. the flush tail)
    uint64_t all_zero_windows = 0;  ///< windows with no defect at all
    uint64_t screened_windows = 0;  ///< absorbed by a screening tier
    uint64_t matched_windows = 0;   ///< decoded by matched MWPM
    uint64_t committed_rounds = 0;  ///< commit frontier (monotone)

    /**
     * Defect conservation ledger: every detection event entering the
     * stream (`defects_in`) is, at any instant, exactly one of
     * committed, still buffered, or carried forward — `audit()`
     * checks the equation, and after `flush()` it collapses to
     * defects_in == defects_committed (no defect dropped, none
     * double-committed).
     */
    uint64_t defects_in = 0;
    uint64_t defects_committed = 0;
    uint64_t defects_carried = 0;  ///< carry-forward events (cumulative)
    uint64_t max_carried = 0;      ///< peak carry list size
    int64_t committed_weight = 0;  ///< total matched weight committed

    CountHistogram commit_lag;      ///< rounds from detection to commit
    CountHistogram window_defects;  ///< presented defects per window

    /** Fold another stream's statistics in (sharded engine). */
    void merge(const StreamWindowStats &other);
};

/**
 * Sliding-window streaming MWPM decoder — the service-shaped front end
 * the ROADMAP's "streaming decode engine" item asks for. Consumes an
 * unbounded sequence of packed syndrome rounds (`push_round`) with
 * bounded, allocation-free steady-state memory, and maintains a
 * committed spatial correction mask that, after `flush()`, clears the
 * stream's syndrome exactly like a one-shot batch MWPM decode would.
 *
 * Window protocol (contract diagram: src/decoders/README.md):
 *
 *  - Rounds buffer until W are pending; the window [0, W) then
 *    decodes: the buffered detection events plus any carried defects
 *    (presented at relative round 0) go through the matched MWPM
 *    (`MwpmDecoder::decode_matched`), which exposes the solved
 *    pairing.
 *  - A pair whose endpoints all lie in the commit region [0, C),
 *    C = W - V, commits: its correction path is XORed into the
 *    committed mask and its defects retire. Since committed endpoints
 *    live only in rounds that are popped right after, no defect is
 *    ever re-presented once committed.
 *  - A commit-region endpoint matched across the commit/overlap seam
 *    carries forward: it re-enters the next window at relative round
 *    0 (sound under unit weights — the spatial correction path
 *    between two checks is independent of their rounds, so clamping
 *    the time coordinate preserves correction semantics; cf. the
 *    distance-oracle factorization, surface/distance.hpp).
 *  - Overlap-region events stay buffered and are re-decoded next
 *    window with C more rounds of lookahead.
 *  - The commit frontier then advances by C rounds. `flush()` decodes
 *    whatever remains with the commit region covering everything.
 *
 * Because the committed correction is the XOR of full pair paths over
 * a perfect matching of *all* stream events, applying it after flush
 * always clears the syndrome (each event's check is toggled exactly
 * once by its pair's path ends); the windowed pairing can differ from
 * the batch pairing only near window seams (the window<->batch
 * equivalence property tests in tests/test_stream.cpp pin both the
 * always-clear invariant and logical-outcome agreement).
 *
 * Escalation-contract reuse: when every presented defect lies in the
 * commit region, pair attribution is unnecessary (any full mask is
 * committable), so the configured Union-Find screening tiers run
 * first and absorb the window when they resolve within their
 * escalation thresholds — the same accept rule TierChain applies.
 *
 * Pooling: the round ring, carry lists, presented-event arrays, match
 * records, the screen and matched decodes' Results and packed masks
 * all hold their grown capacity, so after warmup a steady-state
 * stream allocates nothing in this class (`steady_state_bytes()`
 * exposes the pooled footprint for the bounded-memory fuzz tests).
 * Like every pooled-scratch decoder here, instances are single-owner
 * (Decoder's thread contract).
 */
class StreamWindowDecoder
{
  public:
    StreamWindowDecoder(const RotatedSurfaceCode &code, CheckType detector,
                        StreamWindowConfig config);
    ~StreamWindowDecoder();

    /** The check type whose syndrome stream this decoder consumes. */
    CheckType detector() const { return detector_; }

    /** Active window geometry / screening configuration. */
    const StreamWindowConfig &config() const { return config_; }

    /**
     * Feed one measurement round's packed raw syndrome (width =
     * num_checks of the detector type). Detection events are the XOR
     * against the previous round's raw syndrome (word-parallel), with
     * an implicit all-zero round before the first push. Triggers a
     * window decode whenever W rounds are pending.
     */
    void push_round(const PackedSyndrome &raw);

    /**
     * Decode and commit everything still pending (the partial tail
     * window plus carried defects). After flush,
     * stats().defects_in == stats().defects_committed and the
     * committed correction is a perfect matching of every stream
     * event — applying it clears the stream's syndrome whenever the
     * final pushed round was measured noiselessly.
     */
    void flush();

    /**
     * Restart for a new stream, keeping all pooled capacity. The
     * statistics restart too: pending (uncommitted) defects are
     * discarded, so carrying the ledger across streams would break
     * the conservation equation.
     */
    void reset();

    /**
     * The committed spatial correction mask (one bit per data qubit),
     * maintained incrementally as windows commit.
     */
    const PackedBits &committed_correction() const { return committed_; }

    /** Lifetime statistics (see StreamWindowStats). */
    const StreamWindowStats &stats() const { return stats_; }

    /** Rounds buffered but not yet committed. */
    int pending_rounds() const { return buffered_; }

    /** Defects currently buffered or carried (not yet committed). */
    uint64_t pending_defects() const;

    /**
     * Bytes of pooled capacity held by this instance's stream state
     * (ring buffer, carry lists, event/match scratch, packed masks).
     * Constant after warmup — the bounded-memory fuzz tests pin that
     * a 10k-round stream does not grow it past the first windows.
     */
    size_t steady_state_bytes() const;

    /**
     * Verify the window-state invariants: ring occupancy within
     * [0, W), packed masks well-formed, the commit frontier equal to
     * the buffer base, and the defect conservation equation
     * defects_in == defects_committed + buffered + carried. Runs
     * after every window decode at AuditLevel::Deep; throws
     * CheckFailure. Audits consume no randomness and alter no
     * metrics.
     */
    void audit() const;

  private:
    struct CarriedDefect
    {
        int check = 0;            ///< check whose defect carries over
        uint64_t origin_round = 0;  ///< absolute round it was detected in
    };

    int slot(int t) const { return (head_ + t) % config_.window; }

    /**
     * Decode the pending window: `avail` buffered rounds are
     * presented (plus carried defects at relative round 0) and the
     * first `commit` rounds' worth of matching commits; then `avail`
     * is reduced by min(commit, avail) rounds.
     */
    void decode_window(int avail, int commit);

    void pop_rounds(int n);

    const RotatedSurfaceCode &code_;
    CheckType detector_;
    StreamWindowConfig config_;
    int num_checks_;

    MwpmDecoder matcher_;
    /** One shared screening backend: every screen tier is Union-Find
     * over the same code half, so the tiers differ only in their
     * escalation thresholds and share one decode per window. */
    std::unique_ptr<UnionFindDecoder> screen_;

    // --- stream state (all pooled) ---
    std::vector<std::vector<int>> round_events_;  ///< ring of W slots
    int head_ = 0;      ///< ring index of relative round 0
    int buffered_ = 0;  ///< rounds currently pending
    uint64_t base_round_ = 0;  ///< absolute round of relative round 0
    PackedSyndrome prev_raw_;  ///< last pushed raw syndrome
    PackedBits committed_;     ///< committed correction mask
    std::vector<CarriedDefect> carried_;
    std::vector<CarriedDefect> carried_next_;
    std::vector<DetectionEvent> events_;  ///< presented window events
    std::vector<uint64_t> origin_;  ///< absolute origin round per event
    MwpmMatches matches_;
    Decoder::Result screened_;  ///< screen decode of the window
    Decoder::Result matched_;   ///< matched MWPM decode of the window
    PackedBits audit_mask_;  ///< deep-audit path-XOR scratch

    StreamWindowStats stats_;
    SingleThreadOwner thread_owner_;
};

} // namespace btwc
