#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/offchip_service.hpp"
#include "fabric/scheduler.hpp"
#include "faults/fault_plan.hpp"

namespace btwc {

/** Tenant-to-link placement policies of the decode fabric. */
enum class PlacementKind : uint8_t
{
    /** Link = tenant index mod K: oblivious, perfectly reproducible. */
    StaticHash = 0,
    /**
     * Assign tenants in index order to the link with the least
     * accumulated expected load (sum of placed tenants' p), ties to
     * the lowest link index. Static (decided at construction from the
     * noise profile), so placement stays deterministic and auditable.
     */
    LeastLoaded = 1,
    /**
     * Quarantine the hot tenants (p strictly above the fleet minimum)
     * on the last link and hash the cold rest over the others, so one
     * noisy patch cannot stall the whole machine's escalations. With
     * K = 1 everything shares the single link.
     */
    HotIsolate = 2,
};

/** Canonical name of a placement ("hash" | "least-loaded" | "isolate"). */
const char *placement_kind_name(PlacementKind kind);

/** Parse a placement name (accepts "static-hash"/"hot-isolate" too). */
bool parse_placement_kind(const std::string &value, PlacementKind *out);

/** Topology and policy of a decode fabric. */
struct FabricTopology
{
    int links = 1;  ///< number of off-chip links (K >= 1)
    SchedulerKind scheduler = SchedulerKind::Fifo;
    PlacementKind placement = PlacementKind::StaticHash;
    /**
     * Per-request deadline budget in cycles, applied to every tenant
     * lane (0 = no deadlines). Drives the EDF ordering and the
     * deadline-miss accounting of every discipline.
     */
    uint64_t deadline = 0;
    /**
     * Link-failover threshold (0 = static placement, the bit-exact
     * default): after `step()`, a link whose consecutive-outage streak
     * or end-of-cycle backlog reaches the threshold hands all its
     * tenants to the healthy link with the least backlog. Outstanding
     * requests stay on (and land from) the old link; only future
     * escalations move. The ROADMAP dynamic-placement residual.
     */
    uint64_t migrate_threshold = 0;
};

/**
 * A decode fabric: K `SharedOffchipService` links with a static
 * tenant-to-link placement and one scheduling discipline instance per
 * link. The exact fleet's one shared link is the K = 1 FIFO case, and
 * its private links the K = fleet size FIFO case.
 *
 * Tenant lanes are derived from the fleet's noise profile at
 * construction: cold tenants (p at the fleet minimum) ride a
 * higher-priority, heavier-weighted lane than hot ones, the deliberate
 * asymmetry that lets priority/weighted-fair disciplines shield
 * well-behaved tenants from a noisy patch's backlog (the SLO story of
 * the fig16-style provisioning curves). Every lane shares the
 * topology's deadline budget. The derivation is deterministic, so a
 * fabric run is reproducible for a fixed (cycles, threads, seed)
 * triple like every other harness.
 *
 * Tenants attach to their placed link via
 * `BtwcSystem::attach_shared_service(&fabric.link(fabric.link_of(q)), q)`
 * and keep their global tenant index as the owner tag, so deliveries
 * concatenated across links still route home unambiguously.
 */
class Fabric
{
  public:
    /**
     * Build the fabric for a fleet whose tenant q runs at
     * `tenant_probs[q]`. Every link gets `base_code` chains, the link
     * parameters, and its own discipline instance; heterogeneous
     * fleets additionally `register_code` their other distances.
     */
    Fabric(const FabricTopology &topology,
           const RotatedSurfaceCode &base_code,
           const TierChainConfig &tiers, OffchipQueueConfig link,
           const std::vector<double> &tenant_probs);

    const FabricTopology &topology() const { return topology_; }

    size_t num_links() const { return links_.size(); }

    /** Link serving tenant `owner` (static for the fabric's lifetime). */
    int link_of(int owner) const;

    SharedOffchipService &link(size_t k) { return *links_[k]; }
    const SharedOffchipService &link(size_t k) const { return *links_[k]; }

    /** Register an extra code distance on every link. */
    void register_code(const RotatedSurfaceCode &code);

    /** Lane assigned to tenant `owner` at construction. */
    TenantLane lane_of(int owner) const;

    /**
     * Install the chaos plan (src/faults/): one `FaultInjector` per
     * link (outages/spikes/drops keyed by link index) plus plan-level
     * surge routing through the placement. Must precede the first
     * enqueue. A plan with no firing clause leaves the fabric
     * bit-exact (the zero-fault contract).
     */
    void set_fault_plan(const FaultPlan &plan);

    /** Enable deadline load shedding on every link. */
    void enable_shedding(bool on);

    /** Tenants moved off a failed/overloaded link, cumulative. */
    uint64_t migrations() const { return migrations_; }

    /**
     * Tenants whose placement changed during the last `step()` — the
     * harness re-attaches each one to its new link before the next
     * cycle's escalations.
     */
    const std::vector<int> &migrated_now() const { return migrated_now_; }

    /**
     * Advance every link one machine cycle (in link order, after all
     * tenants stepped) and return the landings of all links
     * concatenated. The reference is valid until the next `step()`.
     */
    const std::vector<SharedOffchipService::Delivery> &step();

    /** Outstanding requests across every link. */
    size_t pending() const;

    /** End-of-cycle backlog summed across links. */
    uint64_t backlog() const;

    /**
     * Verify the fabric contracts: every per-link audit, placement
     * validity (each tenant's link in range, matching where its
     * requests actually went), and conservation across links -- the
     * links' enqueued totals sum to `expected_enqueued`, the
     * escalations the harness shipped, so no request is lost or
     * double-routed between links. Throws CheckFailure.
     */
    void audit(uint64_t expected_enqueued) const;

  private:
    /** Failover pass after a step (migrate_threshold > 0 only). */
    void maybe_migrate();

    FabricTopology topology_;
    // unique_ptr: SharedOffchipService is neither movable nor copyable
    // (TierChain holds lattice references), and links_ must not
    // invalidate the pointers tenants attach to.
    std::vector<std::unique_ptr<SharedOffchipService>> links_;
    std::vector<int> placement_;  ///< tenant -> link index
    std::vector<SharedOffchipService::Delivery> landed_now_;
    // Chaos mode (set_fault_plan / migrate_threshold).
    FaultPlan plan_;
    std::vector<TenantLane> lanes_;         ///< per tenant, for re-homing
    std::vector<uint64_t> down_streak_;     ///< per link, outage run length
    uint64_t migrations_ = 0;
    std::vector<int> migrated_now_;
    std::vector<std::pair<int, uint64_t>> surge_scratch_;
};

} // namespace btwc
