#pragma once

#include <cstdint>
#include <vector>

#include "common/stats.hpp"
#include "fabric/fabric.hpp"
#include "sim/fleet.hpp"

namespace btwc {

/**
 * Configuration of a fabric fleet run: an exact trace-driven fleet
 * (sim/fleet.hpp, including its per-tenant `(distance, p)` overrides)
 * whose escalations route through a decode `Fabric`. The fleet's link
 * parameters (`offchip_latency` / `offchip_bandwidth` /
 * `offchip_batch`) apply to *each* of the fabric's links. The exact
 * fleet is its FIFO corner without probes (`exact_fleet_fabric`).
 */
struct FabricFleetConfig
{
    ExactFleetConfig fleet;
    FabricTopology topology;
    /**
     * Probe every tenant's logical failure state each `probe_interval`
     * cycles (0 = never): a memory-experiment-style MWPM closure on a
     * *copy* of each frame (fabric/probe.hpp), so probing never
     * perturbs the run. Per-tenant failures / probes is the logical
     * error rate the SLO curves report next to the delay percentiles.
     */
    uint64_t probe_interval = 32;
    /**
     * Chaos mode (src/faults/): the fault plan injected into every
     * link (`faults.enabled` gates installation — a disabled plan is
     * the bit-exact fault-free run), the tenants' give-up budget and
     * retry count (SystemConfig::offchip_timeout / offchip_retries),
     * and link-side deadline load shedding. Failover lives in
     * `topology.migrate_threshold`.
     */
    FaultPlan faults;
    uint64_t timeout = 0;
    int retries = 0;
    bool shed = false;
};

/** Per-tenant observables of a fabric run (index = tenant). */
struct TenantFabricStats
{
    int link = 0;  ///< placed link (identical across shards)
    uint64_t enqueued = 0;    ///< escalations handed to the fabric
    uint64_t landed = 0;      ///< corrections routed back
    uint64_t suppressed = 0;  ///< reconciliation-contract deferrals
    uint64_t deadline_misses = 0;
    uint64_t probes = 0;    ///< logical-failure probe closures taken
    uint64_t failures = 0;  ///< probes where either half had flipped
    // Chaos-mode outcomes (all zero on a fault-free run).
    uint64_t retried = 0;   ///< timed-out requests re-escalated
    uint64_t degraded = 0;  ///< on-chip UF fallback decodes
    uint64_t dropped = 0;   ///< deliveries lost on the down-link
    uint64_t shed = 0;      ///< requests shed past deadline
    uint64_t canceled = 0;  ///< requests canceled by give-ups
    /** Enqueue-to-landing delay of this tenant's corrections. */
    CountHistogram delay;

    void merge(const TenantFabricStats &other);
};

/** Per-link observables of a fabric run (index = link). */
struct LinkFabricStats
{
    uint64_t enqueued = 0;
    uint64_t served = 0;
    uint64_t landed = 0;
    uint64_t stall_cycles = 0;
    uint64_t work_cycles = 0;
    uint64_t max_backlog = 0;
    uint64_t deadline_misses = 0;
    // Chaos-mode accounting (all zero on a fault-free run).
    uint64_t outage_cycles = 0;
    uint64_t dropped = 0;
    uint64_t duplicated = 0;
    uint64_t corrupted = 0;
    uint64_t shed = 0;
    uint64_t canceled = 0;
    uint64_t stale_discards = 0;
    uint64_t surge_enqueued = 0;
    uint64_t surge_landed = 0;
    /** Service-side per-request delay of this link. */
    CountHistogram delay;

    void merge(const LinkFabricStats &other);
};

/**
 * Fleet-wide chaos-mode aggregate: the fault plan's injections and
 * the degradation machinery's responses, summed across links and
 * tenants. All-zero on a fault-free run (and omitted from reports
 * then), so the fault-free metrics stay byte-identical.
 */
struct FabricFaultStats
{
    uint64_t outage_cycles = 0;   ///< link-down cycles across links
    uint64_t dropped = 0;         ///< deliveries lost
    uint64_t duplicated = 0;      ///< deliveries duplicated
    uint64_t corrupted = 0;       ///< corrections with a flipped bit
    uint64_t shed = 0;            ///< requests shed past deadline
    uint64_t canceled = 0;        ///< requests canceled by give-ups
    uint64_t stale_discards = 0;  ///< landings discarded after give-ups
    uint64_t surge_enqueued = 0;  ///< synthetic surge requests injected
    uint64_t surge_landed = 0;    ///< ... that consumed link service
    uint64_t retried = 0;         ///< tenant retries after timeouts
    uint64_t degraded = 0;        ///< on-chip UF fallback decodes
    uint64_t nacks = 0;           ///< shed nacks tenants received
    uint64_t duplicate_drops = 0; ///< duplicates tenants discarded
    uint64_t migrations = 0;      ///< tenants moved off failed links

    void merge(const FabricFaultStats &other);
};

/**
 * Aggregated observables of a fabric run. Counters are sums and
 * histograms bin-wise counts, so shard results `merge()` losslessly in
 * the sharded Monte-Carlo engine (deterministic for a fixed (cycles,
 * threads, seed) triple). The fleet-level fields are the exact-fleet
 * observables (pinned by tests/golden/exact_fleet_stats.txt).
 */
struct FabricStats
{
    /** Per-cycle fresh demand: tenants that *shipped* an escalation
        that cycle (the binomial model's event). Re-flags of work
        already in flight are counted in `suppressed`, not here -- so
        under latency or a narrow link this is throttled demand, held
        back by the one-outstanding-request-per-half contract. */
    CountHistogram demand;
    /** Enqueue-to-landing delay of every delivered correction, merged
        across links (service-side: per request even when a discipline
        re-orders service). Dropped, stale and surge landings reach no
        waiting tenant and are not samples. */
    CountHistogram queue_delay;
    /** Served link-batch sizes, merged across links. */
    CountHistogram batch_sizes;
    /** End-of-cycle backlog summed across links, one sample/cycle. */
    CountHistogram backlog;
    uint64_t stall_cycles = 0;  ///< summed across links
    uint64_t work_cycles = 0;   ///< summed across links
    uint64_t max_backlog = 0;   ///< max single-link backlog observed
    uint64_t enqueued = 0;
    uint64_t served = 0;
    uint64_t landed = 0;
    uint64_t suppressed = 0;
    uint64_t pending = 0;  ///< outstanding when the run ended
    uint64_t deadline_misses = 0;
    uint64_t probes = 0;
    uint64_t probe_failures = 0;
    /** Chaos-mode aggregate (all zero on a fault-free run). */
    FabricFaultStats faults;
    std::vector<LinkFabricStats> per_link;
    std::vector<TenantFabricStats> per_tenant;

    void merge(const FabricStats &other);

    /** Fig. 16 x-axis across the fabric (stalls / work cycles). */
    double exec_time_increase() const;
};

/**
 * Run the fabric fleet: `fleet.num_qubits` full `BtwcSystem`
 * pipelines stepped in lockstep against a K-link decode fabric, with
 * periodic logical-failure probes. Shards the cycle budget over
 * `fleet.threads` workers, each simulating an independent fleet
 * instance seeded in tenant order from the shard seed.
 */
FabricStats run_fabric(const FabricFleetConfig &config);

/**
 * The exact fleet as a fabric run (what `kind=exact-fleet` runs): FIFO,
 * no probes, and one link shared by the whole fleet (`shared_link`) or
 * one link per tenant (hash placement puts tenant q on link q).
 */
FabricFleetConfig exact_fleet_fabric(const ExactFleetConfig &fleet,
                                     bool shared_link);

} // namespace btwc
