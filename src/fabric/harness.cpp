#include "fabric/harness.hpp"

#include <algorithm>
#include <array>
#include <map>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "core/offchip_queue.hpp"
#include "core/system.hpp"
#include "fabric/probe.hpp"
#include "sim/engine.hpp"
#include "surface/lattice.hpp"

namespace btwc {

void
TenantFabricStats::merge(const TenantFabricStats &other)
{
    link = other.link;  // placement is deterministic across shards
    enqueued += other.enqueued;
    landed += other.landed;
    suppressed += other.suppressed;
    deadline_misses += other.deadline_misses;
    probes += other.probes;
    failures += other.failures;
    retried += other.retried;
    degraded += other.degraded;
    dropped += other.dropped;
    shed += other.shed;
    canceled += other.canceled;
    delay.merge(other.delay);
}

void
LinkFabricStats::merge(const LinkFabricStats &other)
{
    enqueued += other.enqueued;
    served += other.served;
    landed += other.landed;
    stall_cycles += other.stall_cycles;
    work_cycles += other.work_cycles;
    max_backlog = std::max(max_backlog, other.max_backlog);
    deadline_misses += other.deadline_misses;
    outage_cycles += other.outage_cycles;
    dropped += other.dropped;
    duplicated += other.duplicated;
    corrupted += other.corrupted;
    shed += other.shed;
    canceled += other.canceled;
    stale_discards += other.stale_discards;
    surge_enqueued += other.surge_enqueued;
    surge_landed += other.surge_landed;
    delay.merge(other.delay);
}

void
FabricFaultStats::merge(const FabricFaultStats &other)
{
    outage_cycles += other.outage_cycles;
    dropped += other.dropped;
    duplicated += other.duplicated;
    corrupted += other.corrupted;
    shed += other.shed;
    canceled += other.canceled;
    stale_discards += other.stale_discards;
    surge_enqueued += other.surge_enqueued;
    surge_landed += other.surge_landed;
    retried += other.retried;
    degraded += other.degraded;
    nacks += other.nacks;
    duplicate_drops += other.duplicate_drops;
    migrations += other.migrations;
}

void
FabricStats::merge(const FabricStats &other)
{
    demand.merge(other.demand);
    queue_delay.merge(other.queue_delay);
    batch_sizes.merge(other.batch_sizes);
    backlog.merge(other.backlog);
    stall_cycles += other.stall_cycles;
    work_cycles += other.work_cycles;
    max_backlog = std::max(max_backlog, other.max_backlog);
    enqueued += other.enqueued;
    served += other.served;
    landed += other.landed;
    suppressed += other.suppressed;
    pending += other.pending;
    deadline_misses += other.deadline_misses;
    probes += other.probes;
    probe_failures += other.probe_failures;
    faults.merge(other.faults);
    if (per_link.size() < other.per_link.size()) {
        per_link.resize(other.per_link.size());
    }
    for (size_t k = 0; k < other.per_link.size(); ++k) {
        per_link[k].merge(other.per_link[k]);
    }
    if (per_tenant.size() < other.per_tenant.size()) {
        per_tenant.resize(other.per_tenant.size());
    }
    for (size_t q = 0; q < other.per_tenant.size(); ++q) {
        per_tenant[q].merge(other.per_tenant[q]);
    }
}

double
FabricStats::exec_time_increase() const
{
    return stall_execution_time_increase(stall_cycles, work_cycles);
}

FabricStats
run_fabric(const FabricFleetConfig &config)
{
    const ExactFleetConfig &fleet = config.fleet;
    validate_tenant_profile(fleet);
    // Codes are immutable and shared across shards: the base code plus
    // one per distinct per-tenant distance override.
    const RotatedSurfaceCode code(fleet.distance);
    std::map<int, RotatedSurfaceCode> extra_codes;
    for (const int d : fleet.tenant_distances) {
        if (d != fleet.distance) {
            extra_codes.try_emplace(d, d);
        }
    }
    const auto code_of = [&](int q) -> const RotatedSurfaceCode & {
        const int d = tenant_distance(fleet, q);
        return d == fleet.distance ? code : extra_codes.at(d);
    };
    // The placement policies read the per-tenant noise profile.
    std::vector<double> probs;
    probs.reserve(static_cast<size_t>(fleet.num_qubits));
    for (int q = 0; q < fleet.num_qubits; ++q) {
        probs.push_back(tenant_prob(fleet, q));
    }
    return run_sharded<FabricStats>(
        fleet.cycles, fleet.threads, fleet.seed,
        [&](const Shard &shard) {
            Rng seeder(shard.seed);
            SystemConfig sconfig;
            sconfig.offchip = fleet.offchip;
            sconfig.tiers = fleet.tiers;
            sconfig.offchip_timeout = config.timeout;
            sconfig.offchip_retries = config.retries;
            std::vector<BtwcSystem> qubits;
            qubits.reserve(static_cast<size_t>(fleet.num_qubits));
            for (int q = 0; q < fleet.num_qubits; ++q) {
                qubits.emplace_back(
                    code_of(q),
                    NoiseParams::uniform(tenant_prob(fleet, q)),
                    sconfig, seeder.next_u64());
            }
            Fabric fabric(config.topology, code, fleet.tiers,
                          OffchipQueueConfig{fleet.offchip_bandwidth,
                                             fleet.offchip_latency,
                                             fleet.offchip_batch},
                          probs);
            for (const auto &[d, extra] : extra_codes) {
                fabric.register_code(extra);
            }
            if (config.faults.enabled) {
                fabric.set_fault_plan(config.faults);
            }
            if (config.shed) {
                fabric.enable_shedding(true);
            }
            for (size_t q = 0; q < qubits.size(); ++q) {
                qubits[q].attach_shared_service(
                    &fabric.link(static_cast<size_t>(
                        fabric.link_of(static_cast<int>(q)))),
                    static_cast<int>(q));
            }
            // One probe per code distance; probing copies frames, so
            // the run is bit-identical with probing off (tested).
            std::map<int, LogicalFailureProbe> probes_by_distance;
            probes_by_distance.try_emplace(fleet.distance, code);
            for (const auto &[d, extra] : extra_codes) {
                probes_by_distance.try_emplace(d, extra);
            }
            // Logical parity is cumulative (a flip persists in the
            // frame), so the failure indicator is the *change* since
            // the last probe: "a logical error happened in this
            // window". Frames start clean, hence parity false.
            std::vector<std::array<bool, 2>> last_parity(
                qubits.size(), {false, false});
            FabricStats stats;
            stats.per_link.resize(fabric.num_links());
            stats.per_tenant.resize(qubits.size());
            for (size_t q = 0; q < qubits.size(); ++q) {
                stats.per_tenant[q].link =
                    fabric.link_of(static_cast<int>(q));
            }
            uint64_t shipped = 0;  ///< escalations handed to the fabric
            for (uint64_t cycle = 0; cycle < shard.cycles; ++cycle) {
                // Demand = qubits that *shipped* a fresh escalation
                // this cycle; re-flags of in-flight work (the escalated
                // errors stay on the lattice and keep classifying
                // off-chip) count as suppressed.
                uint64_t offchip = 0;
                for (size_t q = 0; q < qubits.size(); ++q) {
                    const CycleReport report = qubits[q].step();
                    offchip += report.queued > 0 ? 1 : 0;
                    shipped += static_cast<uint64_t>(report.queued);
                    TenantFabricStats &mine = stats.per_tenant[q];
                    mine.enqueued +=
                        static_cast<uint64_t>(report.queued);
                    mine.suppressed +=
                        static_cast<uint64_t>(report.suppressed);
                }
                // All tenants stepped: advance every link one machine
                // cycle and route the landings home. Zero-width
                // corrections are shed nacks — delivered (they unblock
                // the half) but not counted as landings.
                for (const SharedOffchipService::Delivery &landing :
                     fabric.step()) {
                    qubits[static_cast<size_t>(landing.owner)]
                        .deliver_offchip_correction(landing.half,
                                                    landing.correction);
                    if (!landing.correction.empty()) {
                        ++stats
                              .per_tenant[static_cast<size_t>(
                                  landing.owner)]
                              .landed;
                    }
                }
                // Failover: re-attach migrated tenants so their next
                // escalation lands on the new link.
                for (const int q : fabric.migrated_now()) {
                    qubits[static_cast<size_t>(q)].attach_shared_service(
                        &fabric.link(
                            static_cast<size_t>(fabric.link_of(q))),
                        q);
                }
                stats.backlog.add(fabric.backlog());
                stats.demand.add(offchip);
                if (audit_deep()) {
                    fabric.audit(shipped);
                }
                if (config.probe_interval > 0 &&
                    (cycle + 1) % config.probe_interval == 0) {
                    for (size_t q = 0; q < qubits.size(); ++q) {
                        LogicalFailureProbe &probe =
                            probes_by_distance.at(tenant_distance(
                                fleet, static_cast<int>(q)));
                        const bool parity_x = probe.logical_parity(
                            qubits[q].frame(CheckType::X));
                        const bool parity_z = probe.logical_parity(
                            qubits[q].frame(CheckType::Z));
                        const bool flipped =
                            parity_x != last_parity[q][0] ||
                            parity_z != last_parity[q][1];
                        last_parity[q] = {parity_x, parity_z};
                        TenantFabricStats &mine = stats.per_tenant[q];
                        ++mine.probes;
                        ++stats.probes;
                        if (flipped) {
                            ++mine.failures;
                            ++stats.probe_failures;
                        }
                    }
                }
            }
            // Harvest the links and the per-tenant service stats.
            for (size_t k = 0; k < fabric.num_links(); ++k) {
                const SharedOffchipService &service = fabric.link(k);
                const OffchipQueue &link = service.queue();
                LinkFabricStats &mine = stats.per_link[k];
                mine.enqueued = link.enqueued();
                mine.served = link.served();
                mine.landed = link.landed();
                mine.stall_cycles = link.stall_cycles();
                mine.work_cycles = link.work_cycles();
                mine.max_backlog = link.max_backlog();
                mine.deadline_misses = service.deadline_misses();
                mine.outage_cycles = link.outage_cycles();
                mine.dropped = service.dropped();
                mine.duplicated = service.duplicated();
                mine.corrupted = service.corrupted();
                mine.shed = service.shed_requests();
                mine.canceled = service.canceled();
                mine.stale_discards = service.stale_discards();
                mine.surge_enqueued = service.surge_enqueued();
                mine.surge_landed = service.surge_landed();
                mine.delay = service.delay_histogram();
                stats.queue_delay.merge(service.delay_histogram());
                stats.batch_sizes.merge(link.batch_histogram());
                stats.stall_cycles += link.stall_cycles();
                stats.work_cycles += link.work_cycles();
                stats.max_backlog =
                    std::max(stats.max_backlog, link.max_backlog());
                stats.enqueued += link.enqueued();
                stats.served += link.served();
                stats.landed += link.landed();
                stats.deadline_misses += service.deadline_misses();
                stats.faults.outage_cycles += link.outage_cycles();
                stats.faults.dropped += service.dropped();
                stats.faults.duplicated += service.duplicated();
                stats.faults.corrupted += service.corrupted();
                stats.faults.shed += service.shed_requests();
                stats.faults.canceled += service.canceled();
                stats.faults.stale_discards += service.stale_discards();
                stats.faults.surge_enqueued += service.surge_enqueued();
                stats.faults.surge_landed += service.surge_landed();
                const std::vector<SharedOffchipService::TenantLinkStats>
                    &tenants = service.tenant_stats();
                for (size_t q = 0; q < tenants.size(); ++q) {
                    TenantFabricStats &mine_t = stats.per_tenant[q];
                    mine_t.deadline_misses +=
                        tenants[q].deadline_misses;
                    mine_t.dropped += tenants[q].dropped;
                    mine_t.shed += tenants[q].shed;
                    mine_t.canceled += tenants[q].canceled;
                    mine_t.delay.merge(tenants[q].delay);
                }
            }
            for (size_t q = 0; q < qubits.size(); ++q) {
                TenantFabricStats &mine = stats.per_tenant[q];
                mine.link = fabric.link_of(static_cast<int>(q));
                mine.retried = qubits[q].retried_decodes();
                mine.degraded = qubits[q].degraded_decodes();
                stats.faults.retried += mine.retried;
                stats.faults.degraded += mine.degraded;
                stats.faults.nacks += qubits[q].shared_nacks();
                stats.faults.duplicate_drops +=
                    qubits[q].duplicate_drops();
            }
            stats.faults.migrations = fabric.migrations();
            stats.pending = fabric.pending();
            for (const TenantFabricStats &mine : stats.per_tenant) {
                stats.suppressed += mine.suppressed;
            }
            return stats;
        });
}

FabricFleetConfig
exact_fleet_fabric(const ExactFleetConfig &fleet, bool shared_link)
{
    FabricFleetConfig config;
    config.fleet = fleet;
    config.topology.links = shared_link ? 1 : fleet.num_qubits;
    config.probe_interval = 0;
    return config;
}

} // namespace btwc
