#include "fabric/fabric.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace btwc {

const char *
placement_kind_name(PlacementKind kind)
{
    switch (kind) {
      case PlacementKind::StaticHash:
        return "hash";
      case PlacementKind::LeastLoaded:
        return "least-loaded";
      case PlacementKind::HotIsolate:
        return "isolate";
    }
    return "?";
}

bool
parse_placement_kind(const std::string &value, PlacementKind *out)
{
    if (value == "hash" || value == "static-hash") {
        *out = PlacementKind::StaticHash;
    } else if (value == "least-loaded" || value == "least_loaded") {
        *out = PlacementKind::LeastLoaded;
    } else if (value == "isolate" || value == "hot-isolate" ||
               value == "hot_isolate") {
        *out = PlacementKind::HotIsolate;
    } else {
        return false;
    }
    return true;
}

namespace {

/** Cycles a waiting request needs to gain one priority level under the
 * `Priority` discipline (make_scheduler's `aging_cycles`). */
constexpr uint64_t kPriorityAgingCycles = 64;

std::vector<int>
place_tenants(const FabricTopology &topology,
              const std::vector<double> &tenant_probs)
{
    const int num_links = topology.links;
    const int tenants = static_cast<int>(tenant_probs.size());
    std::vector<int> placement(static_cast<size_t>(tenants), 0);
    if (num_links <= 1) {
        return placement;
    }
    switch (topology.placement) {
      case PlacementKind::StaticHash:
        for (int q = 0; q < tenants; ++q) {
            placement[static_cast<size_t>(q)] = q % num_links;
        }
        break;
      case PlacementKind::LeastLoaded: {
        // Greedy static balancing on expected load: tenants placed in
        // index order onto the currently lightest link (ties to the
        // lowest index), using each tenant's p as its expected
        // escalation rate proxy.
        std::vector<double> load(static_cast<size_t>(num_links), 0.0);
        for (int q = 0; q < tenants; ++q) {
            int best = 0;
            for (int k = 1; k < num_links; ++k) {
                if (load[static_cast<size_t>(k)] <
                    load[static_cast<size_t>(best)]) {
                    best = k;
                }
            }
            placement[static_cast<size_t>(q)] = best;
            load[static_cast<size_t>(best)] +=
                tenant_probs[static_cast<size_t>(q)];
        }
        break;
      }
      case PlacementKind::HotIsolate: {
        const double min_p =
            tenants > 0 ? *std::min_element(tenant_probs.begin(),
                                            tenant_probs.end())
                        : 0.0;
        const int cold_links = num_links - 1;
        int cold_seen = 0;
        for (int q = 0; q < tenants; ++q) {
            if (tenant_probs[static_cast<size_t>(q)] > min_p) {
                placement[static_cast<size_t>(q)] = num_links - 1;
            } else {
                placement[static_cast<size_t>(q)] =
                    cold_seen % cold_links;
                ++cold_seen;
            }
        }
        break;
      }
    }
    return placement;
}

} // namespace

Fabric::Fabric(const FabricTopology &topology,
               const RotatedSurfaceCode &base_code,
               const TierChainConfig &tiers, OffchipQueueConfig link,
               const std::vector<double> &tenant_probs)
    : topology_(topology),
      placement_(place_tenants(topology, tenant_probs))
{
    BTWC_CHECK_MSG(topology.links >= 1,
                   "a fabric has at least one off-chip link");
    links_.reserve(static_cast<size_t>(topology.links));
    for (int k = 0; k < topology.links; ++k) {
        auto service = std::make_unique<SharedOffchipService>(
            base_code, tiers, link);
        service->set_scheduler(
            make_scheduler(topology.scheduler, kPriorityAgingCycles));
        links_.push_back(std::move(service));
    }
    // Backlog alone can trigger failover, so the streaks exist with or
    // without a fault plan.
    down_streak_.assign(links_.size(), 0);
    // Lane derivation from the noise profile: cold tenants (at the
    // fleet-minimum p) get priority 1 / weight 2 / the full deadline
    // budget, hot ones priority 0 / weight 1 / a 2x budget -- so every
    // non-FIFO discipline (priority, EDF, weighted-fair) serves the
    // well-behaved majority ahead of the noisy patch flooding the
    // link. Uniform fleets have no hot tenants and every lane is
    // identical, keeping all disciplines order-equivalent to FIFO
    // there.
    const double min_p =
        tenant_probs.empty()
            ? 0.0
            : *std::min_element(tenant_probs.begin(),
                                tenant_probs.end());
    lanes_.reserve(tenant_probs.size());
    for (size_t q = 0; q < tenant_probs.size(); ++q) {
        TenantLane lane;
        const bool hot = tenant_probs[q] > min_p;
        lane.priority = hot ? 0 : 1;
        lane.weight = hot ? 1 : 2;
        lane.deadline = hot ? 2 * topology.deadline : topology.deadline;
        links_[static_cast<size_t>(placement_[q])]->set_tenant_lane(
            static_cast<int>(q), lane);
        lanes_.push_back(lane);  // kept for failover re-homing
    }
}

void
Fabric::set_fault_plan(const FaultPlan &plan)
{
    BTWC_CHECK_MSG(plan.enabled,
                   "set_fault_plan installs an enabled plan (possibly "
                   "the no-op 'none' plan)");
    plan_ = plan;
    for (size_t k = 0; k < links_.size(); ++k) {
        links_[k]->set_fault_injector(std::make_unique<FaultInjector>(
            plan, static_cast<int>(k)));
    }
    down_streak_.assign(links_.size(), 0);
}

void
Fabric::enable_shedding(bool on)
{
    for (const auto &service : links_) {
        service->enable_shedding(on);
    }
}

int
Fabric::link_of(int owner) const
{
    BTWC_CHECK_MSG(owner >= 0 &&
                       static_cast<size_t>(owner) < placement_.size(),
                   "placement covers every tenant of the fleet");
    return placement_[static_cast<size_t>(owner)];
}

void
Fabric::register_code(const RotatedSurfaceCode &code)
{
    for (const auto &service : links_) {
        service->register_code(code);
    }
}

TenantLane
Fabric::lane_of(int owner) const
{
    return links_[static_cast<size_t>(link_of(owner))]->lane_of(owner);
}

const std::vector<SharedOffchipService::Delivery> &
Fabric::step()
{
    // Hand last cycle's correction buffers back for reuse; any link's
    // pool takes any of them.
    for (SharedOffchipService::Delivery &landing : landed_now_) {
        links_[static_cast<size_t>(link_of(landing.owner))]->recycle(
            landing.correction);
    }
    landed_now_.clear();
    migrated_now_.clear();
    if (plan_.enabled && !plan_.surges.empty() && !placement_.empty()) {
        // Surge demand joins this cycle's fresh escalations, routed
        // through the live placement so each surge lands on exactly
        // one link (the one serving its tenant).
        surge_scratch_.clear();
        plan_.surges_at(links_[0]->queue().total_cycles(),
                        &surge_scratch_);
        for (const std::pair<int, uint64_t> &surge : surge_scratch_) {
            const int tenant =
                surge.first % static_cast<int>(placement_.size());
            links_[static_cast<size_t>(link_of(tenant))]
                ->enqueue_synthetic(tenant, surge.second);
        }
    }
    for (const auto &service : links_) {
        for (SharedOffchipService::Delivery &landing : service->step()) {
            landed_now_.push_back(std::move(landing));
        }
    }
    if (topology_.migrate_threshold > 0) {
        maybe_migrate();
    }
    return landed_now_;
}

void
Fabric::maybe_migrate()
{
    // Update the per-link outage streaks for the cycle just stepped.
    for (size_t k = 0; k < links_.size(); ++k) {
        const FaultInjector *injector = links_[k]->fault_injector();
        const uint64_t stepped = links_[k]->queue().total_cycles() - 1;
        if (injector != nullptr && injector->link_down(stepped)) {
            ++down_streak_[k];
        } else {
            down_streak_[k] = 0;
        }
    }
    for (size_t k = 0; k < links_.size(); ++k) {
        if (down_streak_[k] < topology_.migrate_threshold &&
            links_[k]->queue().backlog() < topology_.migrate_threshold) {
            continue;
        }
        // Failover: re-home all of link k's tenants to the healthy
        // link with the least backlog (ties to the lowest index).
        // Outstanding requests stay on k and land from there; the
        // harness re-attaches the moved tenants before their next
        // escalation. Deterministic: purely a function of link state.
        int dest = -1;
        for (size_t j = 0; j < links_.size(); ++j) {
            if (j == k || down_streak_[j] > 0) {
                continue;
            }
            if (dest < 0 ||
                links_[j]->queue().backlog() <
                    links_[static_cast<size_t>(dest)]->queue().backlog()) {
                dest = static_cast<int>(j);
            }
        }
        if (dest < 0) {
            continue;  // nowhere healthy to go
        }
        for (size_t q = 0; q < placement_.size(); ++q) {
            if (placement_[q] != static_cast<int>(k)) {
                continue;
            }
            placement_[q] = dest;
            links_[static_cast<size_t>(dest)]->set_tenant_lane(
                static_cast<int>(q), lanes_[q]);
            migrated_now_.push_back(static_cast<int>(q));
            ++migrations_;
        }
    }
}

size_t
Fabric::pending() const
{
    size_t total = 0;
    for (const auto &service : links_) {
        total += service->pending();
    }
    return total;
}

uint64_t
Fabric::backlog() const
{
    uint64_t total = 0;
    for (const auto &service : links_) {
        total += service->queue().backlog();
    }
    return total;
}

void
Fabric::audit(uint64_t expected_enqueued) const
{
    uint64_t routed = 0;
    for (const auto &service : links_) {
        service->audit();
        // queue().enqueued() counts requests the link has stepped in;
        // fresh demand enqueued after the last step() is still only in
        // the payload FIFO, so add it for end-of-cycle conservation.
        routed += service->queue().enqueued();
        routed += service->pending() - service->queue().backlog() -
                  service->queue().in_flight();
        // Synthetic surge ballast was injected by the fault plan, not
        // shipped by the fleet; take it back out of the ledger.
        routed -= service->surge_enqueued();
    }
    BTWC_CHECK_MSG(routed == expected_enqueued,
                   "conservation across links: every escalation the "
                   "fleet shipped landed on exactly one link");
    for (const int k : placement_) {
        BTWC_CHECK_MSG(k >= 0 && static_cast<size_t>(k) < links_.size(),
                       "placement maps every tenant to a real link");
    }
}

} // namespace btwc
