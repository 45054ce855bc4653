#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace btwc {

/**
 * Deterministic fault-injection plan for the off-chip link machinery
 * (src/faults/): what can go wrong, when, and with which probability.
 *
 * A plan is a set of clauses over the link's own cycle counter and a
 * per-delivery hash stream, so every fault decision is a pure function
 * of (plan seed, link index, cycle / delivery index) — no draw ever
 * touches the simulation's main `Rng` stream. That independence is the
 * structural zero-fault contract: attaching a plan whose clauses never
 * fire (`faults=none`, or all rates zero) leaves frames, delivery
 * order, RNG stream, and histograms bit-exact with the unfaulted path
 * (pinned in tests/test_faults.cpp).
 *
 * Grammar (the `faults=` scenario key; clauses ';'-separated, fields
 * ':'-separated, see src/api/README.md):
 *
 *     outage:<period>:<duration>[:<link>]        link dead for
 *         `duration` cycles out of every `period` (starting at cycle
 *         `period`); link -1 (the default) hits every link
 *     spike:<period>:<duration>:<extra>[:<link>] +`extra` cycles of
 *         service latency during the window
 *     drop:<p>      each landing delivery is lost with probability p
 *     dup:<p>       each landing delivery is delivered twice
 *     corrupt:<p>   one bit of the landing correction is flipped
 *     surge:<period>:<duration>:<count>[:<tenant>]  `count` synthetic
 *         requests per cycle charged to `tenant`'s lane while active
 *     fseed:<n>     seed of the fault hash stream
 *     none          explicitly empty plan (the zero-fault arm)
 */
struct OutageSpec
{
    uint64_t period = 0;    ///< window recurrence (cycles; > duration)
    uint64_t duration = 0;  ///< down cycles per window (>= 1)
    int link = -1;          ///< affected link; -1 = every link
};

/** A latency-spike window (same clock as OutageSpec). */
struct SpikeSpec
{
    uint64_t period = 0;
    uint64_t duration = 0;
    uint64_t extra = 0;  ///< extra service latency while active
    int link = -1;
};

/** A per-tenant synthetic demand surge window. */
struct SurgeSpec
{
    uint64_t period = 0;
    uint64_t duration = 0;
    uint64_t count = 1;  ///< synthetic requests per active cycle
    int tenant = 0;      ///< charged tenant (clamped by the caller)
};

struct FaultPlan
{
    /** Default fault hash seed (overridden by `fseed:<n>`). */
    static constexpr uint64_t kDefaultSeed = 0xb7dcf011;

    std::vector<OutageSpec> outages;
    std::vector<SpikeSpec> spikes;
    double drop = 0.0;       ///< per-delivery loss probability
    double duplicate = 0.0;  ///< per-delivery duplication probability
    double corrupt = 0.0;    ///< per-delivery corruption probability
    std::vector<SurgeSpec> surges;
    uint64_t seed = kDefaultSeed;
    /**
     * True once a `faults=` clause was parsed (or a plan was attached
     * programmatically). An enabled plan installs the injector even
     * when no clause can ever fire — that is the no-op plan the
     * bit-exactness tests run through the full fault plumbing.
     */
    bool enabled = false;

    /** Whether any clause can ever fire. */
    bool any_faults() const;

    /**
     * Parse the clause grammar above. Returns false on a malformed
     * plan, leaving `out` untouched and storing a diagnostic in
     * `error` (when non-null). An accepted plan has `enabled` set.
     */
    static bool try_parse(const std::string &text, FaultPlan *out,
                          std::string *error);

    /**
     * Canonical clause string (outages, spikes, drop, dup, corrupt,
     * surges, fseed — defaults omitted; "none" when nothing can
     * fire). `try_parse(plan.to_string())` round-trips every valid
     * plan, which is what lets `ScenarioSpec::to_string` embed it.
     */
    std::string to_string() const;

    /**
     * Append every surge active at `cycle` as a (tenant, count) pair.
     * Plan-level (link-agnostic): the caller that owns the tenant →
     * link placement routes each surge to the right service, so a
     * multi-link fabric never double-applies a surge.
     */
    void surges_at(uint64_t cycle,
                   std::vector<std::pair<int, uint64_t>> *out) const;
};

/**
 * SplitMix64-style finalizer used for every per-delivery fault
 * decision. Deliberately not the simulation `Rng` (common/rng.hpp):
 * fault draws keyed by (seed, link, delivery index) consume nothing
 * from the main stream, which is what makes the zero-fault contract
 * structural rather than coincidental.
 */
inline uint64_t
fault_mix(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/**
 * Per-link view of a `FaultPlan`: pure deterministic predicates over
 * the link's cycle counter and its monotone landed-delivery index.
 * Stateless by design — two injectors built from the same (plan,
 * link) answer identically, and audits may query them freely without
 * perturbing anything.
 */
class FaultInjector
{
  public:
    FaultInjector(const FaultPlan &plan, int link);

    const FaultPlan &plan() const { return plan_; }
    int link() const { return link_; }

    /** Whether this link is inside an outage window at `cycle`. */
    bool link_down(uint64_t cycle) const;

    /** Extra service latency at `cycle` (max over active spikes). */
    uint64_t extra_latency(uint64_t cycle) const;

    /** Whether landing delivery `index` is lost on the down-link. */
    bool drop_delivery(uint64_t index) const;

    /** Whether landing delivery `index` is delivered twice. */
    bool duplicate_delivery(uint64_t index) const;

    /** Whether landing delivery `index` lands corrupted. */
    bool corrupt_delivery(uint64_t index) const;

    /** Which bit of a `size`-bit correction flips (size >= 1). */
    int corrupt_bit(uint64_t index, int size) const;

  private:
    /** Bernoulli(p) keyed by (seed, link, salt, index). */
    bool hash_bernoulli(uint64_t salt, uint64_t index, double p) const;

    FaultPlan plan_;
    int link_ = 0;
};

} // namespace btwc
