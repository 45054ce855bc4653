/**
 * @file
 * Tests for the decode fabric (src/fabric): scheduler pick semantics
 * and starvation bounds, tenant placement policies, the pinned
 * FIFO/K=1/uniform bit-exactness with a plain shared-link service
 * (lockstep frames AND merged harness statistics), deadline-miss
 * accounting, scheduler-induced per-tenant tail separation under
 * contention, probe purity, per-tenant heterogeneity plumbing, and
 * sharded-engine thread determinism of the merged FabricStats.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "core/offchip_service.hpp"
#include "core/system.hpp"
#include "fabric/fabric.hpp"
#include "fabric/harness.hpp"
#include "fabric/scheduler.hpp"
#include "sim/fleet.hpp"
#include "surface/lattice.hpp"
#include "surface/noise.hpp"

namespace btwc {
namespace {

// ---------------------------------------------------------- schedulers

SchedView
view(int owner, uint64_t seq, uint64_t arrival, uint64_t deadline = 0,
     int priority = 0, int weight = 1)
{
    SchedView v;
    v.owner = owner;
    v.seq = seq;
    v.arrival_cycle = arrival;
    v.deadline_cycle = deadline;
    v.priority = priority;
    v.weight = weight;
    return v;
}

TEST(Scheduler, NamesParseAndRoundTrip)
{
    for (const SchedulerKind kind :
         {SchedulerKind::Fifo, SchedulerKind::Priority,
          SchedulerKind::Deadline, SchedulerKind::WeightedFair}) {
        SchedulerKind parsed = SchedulerKind::Fifo;
        ASSERT_TRUE(
            parse_scheduler_kind(scheduler_kind_name(kind), &parsed));
        EXPECT_EQ(parsed, kind);
        EXPECT_EQ(make_scheduler(kind, 64)->kind(), kind);
    }
    SchedulerKind parsed = SchedulerKind::Fifo;
    EXPECT_TRUE(parse_scheduler_kind("edf", &parsed));
    EXPECT_EQ(parsed, SchedulerKind::Deadline);
    EXPECT_FALSE(parse_scheduler_kind("round-robin", &parsed));

    PlacementKind placement = PlacementKind::StaticHash;
    for (const PlacementKind kind :
         {PlacementKind::StaticHash, PlacementKind::LeastLoaded,
          PlacementKind::HotIsolate}) {
        ASSERT_TRUE(
            parse_placement_kind(placement_kind_name(kind), &placement));
        EXPECT_EQ(placement, kind);
    }
    EXPECT_FALSE(parse_placement_kind("anywhere", &placement));
}

TEST(Scheduler, FifoAlwaysPicksTheHead)
{
    const auto fifo = make_scheduler(SchedulerKind::Fifo, 64);
    const std::vector<SchedView> waiting = {
        view(2, 0, 0), view(0, 1, 1), view(1, 2, 2)};
    for (uint64_t cycle = 0; cycle < 100; cycle += 37) {
        EXPECT_EQ(fifo->pick(waiting, cycle), 0u);
    }
}

TEST(Scheduler, PriorityPrefersHighLanesButAgesOutStarvation)
{
    const uint64_t aging = 64;
    const auto sched = make_scheduler(SchedulerKind::Priority, aging);
    // A fresh high-priority request beats an equally fresh low one...
    const std::vector<SchedView> waiting = {
        view(0, 0, 0, 0, /*priority=*/0),
        view(1, 1, 0, 0, /*priority=*/1)};
    EXPECT_EQ(sched->pick(waiting, 10), 1u);
    // ...but a low-priority request left waiting gains one effective
    // priority level per `aging` cycles and eventually overtakes.
    const std::vector<SchedView> aged = {
        view(0, 0, 0, 0, /*priority=*/0),
        view(1, 1, 5 * aging, 0, /*priority=*/1)};
    EXPECT_EQ(sched->pick(aged, 5 * aging + 1), 0u);
    // The audit bound covers the full overtake horizon.
    LaneExtremes lanes;
    lanes.min_priority = 0;
    lanes.max_priority = 1;
    EXPECT_GE(sched->starvation_bound(2, 1, lanes), 2 * aging);
}

TEST(Scheduler, DeadlinePicksEarliestDeadlineFallingBackToArrival)
{
    const auto edf = make_scheduler(SchedulerKind::Deadline, 64);
    const std::vector<SchedView> waiting = {
        view(0, 0, 0, /*deadline=*/50), view(1, 1, 2, /*deadline=*/10),
        view(2, 2, 4, /*deadline=*/30)};
    EXPECT_EQ(edf->pick(waiting, 5), 1u);
    // deadline_cycle == 0 means "no deadline": the arrival cycle is
    // the key, so undeadlined traffic degrades to FIFO, not to last.
    const std::vector<SchedView> mixed = {
        view(0, 0, /*arrival=*/3, /*deadline=*/9),
        view(1, 1, /*arrival=*/4, /*deadline=*/0)};
    EXPECT_EQ(edf->pick(mixed, 5), 1u);  // key 4 < key 9
}

TEST(Scheduler, WeightedFairServesProportionallyToWeights)
{
    const auto wfq = make_scheduler(SchedulerKind::WeightedFair, 64);
    // Saturated backlog from two tenants, weights 1 vs 2: over any
    // window the weight-2 tenant gets ~2/3 of the service slots.
    std::vector<SchedView> waiting;
    for (uint64_t i = 0; i < 12; ++i) {
        waiting.push_back(view(static_cast<int>(i % 2), i, 0, 0, 0,
                               /*weight=*/i % 2 == 0 ? 1 : 2));
    }
    int served_heavy = 0;
    for (int slot = 0; slot < 9; ++slot) {
        const size_t pick = wfq->pick(waiting, 100);
        served_heavy += waiting[pick].owner == 1 ? 1 : 0;
        waiting.erase(waiting.begin() + static_cast<long>(pick));
    }
    EXPECT_EQ(served_heavy, 6);  // 2/3 of 9 slots
}

// ----------------------------------------------------------- placement

std::vector<double>
hot_head_profile(int tenants, int hot)
{
    std::vector<double> probs(static_cast<size_t>(tenants), 1e-3);
    for (int q = 0; q < hot; ++q) {
        probs[static_cast<size_t>(q)] = 8e-3;
    }
    return probs;
}

TEST(Placement, PoliciesMapTenantsAsDocumented)
{
    const RotatedSurfaceCode code(3);
    FabricTopology topology;
    topology.links = 3;

    topology.placement = PlacementKind::StaticHash;
    const Fabric hashed(topology, code, TierChainConfig::legacy(),
                        OffchipQueueConfig{1, 0, 0},
                        hot_head_profile(7, 2));
    for (int q = 0; q < 7; ++q) {
        EXPECT_EQ(hashed.link_of(q), q % 3);
    }

    topology.placement = PlacementKind::HotIsolate;
    const Fabric isolated(topology, code, TierChainConfig::legacy(),
                          OffchipQueueConfig{1, 0, 0},
                          hot_head_profile(7, 2));
    // Hot head pinned to the last link, cold tail round-robins the rest.
    EXPECT_EQ(isolated.link_of(0), 2);
    EXPECT_EQ(isolated.link_of(1), 2);
    for (int q = 2; q < 7; ++q) {
        EXPECT_EQ(isolated.link_of(q), (q - 2) % 2);
    }
    // Lanes derive from the profile: cold outranks hot.
    EXPECT_GT(isolated.lane_of(3).priority, isolated.lane_of(0).priority);
    EXPECT_GT(isolated.lane_of(3).weight, isolated.lane_of(0).weight);

    topology.placement = PlacementKind::LeastLoaded;
    const Fabric balanced(topology, code, TierChainConfig::legacy(),
                          OffchipQueueConfig{1, 0, 0},
                          hot_head_profile(7, 2));
    // Greedy on expected load: the two hot tenants land on distinct
    // links, and every link hosts someone.
    EXPECT_NE(balanced.link_of(0), balanced.link_of(1));
    std::vector<int> hosts(3, 0);
    for (int q = 0; q < 7; ++q) {
        ++hosts[static_cast<size_t>(balanced.link_of(q))];
    }
    for (const int count : hosts) {
        EXPECT_GT(count, 0);
    }
}

// ------------------------------------- FIFO/K=1/uniform bit-exactness

TEST(FabricFifo, LockstepFramesWithLegacySharedService)
{
    // The pinned corner at system granularity: a FIFO fabric of one
    // link must produce, cycle by cycle, exactly the frame trajectory
    // of a default-constructed (FIFO) shared service -- the fabric's
    // topology, placement and scheduler wiring perturb nothing. Deep
    // audits also arm the service-internal FIFO-head check.
    const ScopedAuditLevel deep(AuditLevel::Deep);
    const RotatedSurfaceCode code(3);
    SystemConfig config;
    config.offchip = OffchipPolicy::Mwpm;
    const int fleet_size = 5;
    const OffchipQueueConfig link{1, 2, 0};  // narrow: real queueing

    SharedOffchipService legacy(code, config.tiers, link);
    FabricTopology topology;  // links=1, Fifo, StaticHash
    Fabric fabric(topology, code, config.tiers, link,
                  std::vector<double>(fleet_size, 8e-3));

    std::vector<BtwcSystem> legacy_fleet;
    std::vector<BtwcSystem> fabric_fleet;
    legacy_fleet.reserve(fleet_size);
    fabric_fleet.reserve(fleet_size);
    for (int q = 0; q < fleet_size; ++q) {
        const uint64_t seed = 300 + static_cast<uint64_t>(q);
        legacy_fleet.emplace_back(code, NoiseParams::uniform(8e-3),
                                  config, seed);
        legacy_fleet.back().attach_shared_service(&legacy, q);
        fabric_fleet.emplace_back(code, NoiseParams::uniform(8e-3),
                                  config, seed);
        fabric_fleet.back().attach_shared_service(&fabric.link(0), q);
    }
    uint64_t shipped = 0;
    for (int cycle = 0; cycle < 1500; ++cycle) {
        for (size_t q = 0; q < legacy_fleet.size(); ++q) {
            const CycleReport ra = legacy_fleet[q].step();
            const CycleReport rb = fabric_fleet[q].step();
            ASSERT_EQ(ra.verdict, rb.verdict)
                << "qubit " << q << " cycle " << cycle;
            ASSERT_EQ(ra.queued, rb.queued)
                << "qubit " << q << " cycle " << cycle;
            shipped += static_cast<uint64_t>(rb.queued);
        }
        const std::vector<SharedOffchipService::Delivery> &legacy_landed =
            legacy.step();
        const std::vector<SharedOffchipService::Delivery> &fabric_landed =
            fabric.step();
        ASSERT_EQ(legacy_landed.size(), fabric_landed.size())
            << "cycle " << cycle;
        for (size_t i = 0; i < legacy_landed.size(); ++i) {
            ASSERT_EQ(legacy_landed[i].owner, fabric_landed[i].owner);
            ASSERT_EQ(legacy_landed[i].half, fabric_landed[i].half);
            ASSERT_EQ(legacy_landed[i].correction,
                      fabric_landed[i].correction);
            legacy_fleet[static_cast<size_t>(legacy_landed[i].owner)]
                .deliver_offchip_correction(legacy_landed[i].half,
                                            legacy_landed[i].correction);
            fabric_fleet[static_cast<size_t>(fabric_landed[i].owner)]
                .deliver_offchip_correction(fabric_landed[i].half,
                                            fabric_landed[i].correction);
        }
        fabric.audit(shipped);
        for (size_t q = 0; q < legacy_fleet.size(); ++q) {
            for (const CheckType err : {CheckType::X, CheckType::Z}) {
                ASSERT_EQ(legacy_fleet[q].frame(err).error(),
                          fabric_fleet[q].frame(err).error())
                    << "qubit " << q << " cycle " << cycle;
            }
        }
    }
    ASSERT_GT(shipped, 0u);
    // Under FIFO the service-side per-request delay accounting is
    // bin-for-bin the queue's own group-level histogram.
    EXPECT_EQ(fabric.link(0).delay_histogram().counts(),
              fabric.link(0).queue().delay_histogram().counts());
}

TEST(FabricFifo, UniformStatsBitExactWithLegacyHarness)
{
    // The same pin at harness granularity: run_fabric with the default
    // topology reproduces fleet_demand_exact_stats(shared) counter for
    // counter, histogram bin for histogram bin.
    ExactFleetConfig fleet;
    fleet.distance = 3;
    fleet.p = 8e-3;
    fleet.num_qubits = 6;
    fleet.cycles = 2500;
    fleet.seed = 11;
    fleet.shared_link = true;
    fleet.offchip_latency = 2;
    fleet.offchip_bandwidth = 1;
    fleet.offchip = OffchipPolicy::Mwpm;
    const ExactFleetStats legacy = fleet_demand_exact_stats(fleet);

    FabricFleetConfig config;
    config.fleet = fleet;
    const FabricStats stats = run_fabric(config);

    EXPECT_EQ(stats.demand.counts(), legacy.demand.counts());
    EXPECT_EQ(stats.queue_delay.counts(), legacy.queue_delay.counts());
    EXPECT_EQ(stats.batch_sizes.counts(), legacy.batch_sizes.counts());
    EXPECT_EQ(stats.backlog.counts(), legacy.backlog.counts());
    EXPECT_EQ(stats.enqueued, legacy.enqueued);
    EXPECT_EQ(stats.served, legacy.served);
    EXPECT_EQ(stats.landed, legacy.landed);
    EXPECT_EQ(stats.suppressed, legacy.suppressed);
    EXPECT_EQ(stats.pending, legacy.pending);
    EXPECT_EQ(stats.stall_cycles, legacy.stall_cycles);
    EXPECT_EQ(stats.work_cycles, legacy.work_cycles);
    EXPECT_EQ(stats.max_backlog, legacy.max_backlog);
    ASSERT_GT(stats.enqueued, 0u);
    // Per-tenant bookkeeping concurs with the legacy per-qubit view.
    ASSERT_EQ(stats.per_tenant.size(), legacy.per_qubit.size());
    for (size_t q = 0; q < stats.per_tenant.size(); ++q) {
        EXPECT_EQ(stats.per_tenant[q].enqueued,
                  legacy.per_qubit[q].enqueued)
            << "tenant " << q;
        EXPECT_EQ(stats.per_tenant[q].landed, legacy.per_qubit[q].landed)
            << "tenant " << q;
        EXPECT_EQ(stats.per_tenant[q].link, 0);
    }
}

// ------------------------------------------- deadlines and starvation

TEST(FabricService, DeadlineMissAccountingTracksTheBudget)
{
    // latency-3 link, deadline budget 1: every landed correction
    // misses. Budget 16: nothing can miss (bandwidth unlimited).
    const RotatedSurfaceCode code(3);
    for (const uint64_t budget : {uint64_t{1}, uint64_t{16}}) {
        SharedOffchipService service(code, TierChainConfig::legacy(),
                                     OffchipQueueConfig{0, 3, 0});
        service.set_scheduler(make_scheduler(SchedulerKind::Fifo, 64));
        TenantLane lane;
        lane.deadline = budget;
        service.set_tenant_lane(0, lane);
        for (int i = 0; i < 4; ++i) {
            SharedOffchipService::Request request;
            request.owner = 0;
            request.half = i % 2;
            request.oracle = true;
            request.payload = {0, 0, 0};
            service.enqueue(std::move(request));
            service.step();
        }
        while (service.pending() > 0) {
            service.step();
        }
        EXPECT_EQ(service.deadline_misses(),
                  budget == 1 ? service.queue().landed() : 0u)
            << "budget " << budget;
        EXPECT_EQ(service.tenant_stats()[0].deadline_misses,
                  service.deadline_misses());
    }
}

TEST(FabricService, StarvationBoundHoldsUnderOneTenantFlooding)
{
    // One hot tenant floods a priority-scheduled bandwidth-1 link
    // while a cold lane outranks it: the hot requests wait, but deep
    // audits assert every waiting age stays within the scheduler's
    // published starvation bound (aging promotes them eventually).
    // CheckFailure here is the test failure.
    const ScopedAuditLevel deep(AuditLevel::Deep);
    const RotatedSurfaceCode code(3);
    const int owners = 7;
    const int hot_owners = 4;  // owners 0..3 flood both halves
    SharedOffchipService service(code, TierChainConfig::legacy(),
                                 OffchipQueueConfig{1, 1, 0});
    service.set_scheduler(make_scheduler(SchedulerKind::Priority, 8));
    for (int q = 0; q < owners; ++q) {
        TenantLane lane;
        lane.priority = q < hot_owners ? 0 : 3;
        service.set_tenant_lane(q, lane);
    }
    // The one-outstanding contract throttles each (owner, half): every
    // flooder re-enqueues the moment its previous request lands.
    std::vector<std::array<bool, 2>> busy(
        static_cast<size_t>(owners), {false, false});
    uint64_t hot_enqueued = 0;
    for (int cycle = 0; cycle < 600; ++cycle) {
        for (int q = 0; q < owners; ++q) {
            const int halves = q < hot_owners ? 2 : 1;
            for (int half = 0; half < halves; ++half) {
                if (busy[static_cast<size_t>(q)][
                        static_cast<size_t>(half)]) {
                    continue;
                }
                SharedOffchipService::Request request;
                request.owner = q;
                request.half = half;
                request.oracle = true;
                request.payload = {0, 0, 0};
                service.enqueue(std::move(request));
                busy[static_cast<size_t>(q)]
                    [static_cast<size_t>(half)] = true;
                hot_enqueued += q < hot_owners ? 1 : 0;
            }
        }
        for (const SharedOffchipService::Delivery &landing :
             service.step()) {
            busy[static_cast<size_t>(landing.owner)]
                [static_cast<size_t>(landing.half)] = false;
        }
        service.audit();  // CheckFailure on a starved request = failure
    }
    ASSERT_GT(hot_enqueued, 0u);
    EXPECT_GT(service.queue().backlog(), 0u);
    // The low-priority flood was actually deferred, not starved: hot
    // requests waited longer than the cold class yet kept landing.
    ASSERT_GT(service.tenant_stats()[0].landed, 0u);
    EXPECT_GT(service.tenant_stats()[0].delay.mean(),
              service.tenant_stats()[owners - 1].delay.mean());
}

// ------------------------------- contention separates tenant classes

FabricFleetConfig
contention_config(SchedulerKind scheduler)
{
    FabricFleetConfig config;
    config.fleet.distance = 5;
    config.fleet.p = 8e-3;
    config.fleet.num_qubits = 8;
    config.fleet.cycles = 3000;
    config.fleet.seed = 29;
    config.fleet.shared_link = true;
    config.fleet.offchip_latency = 2;
    config.fleet.offchip_bandwidth = 1;
    config.fleet.offchip = OffchipPolicy::Mwpm;
    config.fleet.tenant_probs =
        hotspot_probs(config.fleet.num_qubits, config.fleet.p, 0.25, 6.0);
    config.topology.scheduler = scheduler;
    config.topology.deadline = 8;
    return config;
}

TEST(FabricContention, NonFifoSchedulerMovesPerTenantTailsAndLer)
{
    // The issue's acceptance experiment in miniature: with a hot
    // quartile flooding one narrow link, the priority discipline must
    // measurably shorten the cold tenants' delay tail -- and with it
    // their probed logical error rate -- relative to FIFO. Tenant 7 is
    // cold under the hotspot profile (hot head, cold tail).
    const FabricStats fifo =
        run_fabric(contention_config(SchedulerKind::Fifo));
    const FabricStats priority =
        run_fabric(contention_config(SchedulerKind::Priority));
    const TenantFabricStats &cold_fifo = fifo.per_tenant[7];
    const TenantFabricStats &cold_priority = priority.per_tenant[7];
    ASSERT_GT(cold_fifo.delay.total(), 0u);
    ASSERT_GT(cold_priority.delay.total(), 0u);
    EXPECT_LT(cold_priority.delay.percentile(0.99),
              cold_fifo.delay.percentile(0.99));
    EXPECT_LT(cold_priority.delay.mean(), cold_fifo.delay.mean());
    ASSERT_GT(cold_fifo.probes, 0u);
    EXPECT_LT(static_cast<double>(cold_priority.failures) /
                  static_cast<double>(cold_priority.probes),
              static_cast<double>(cold_fifo.failures) /
                  static_cast<double>(cold_fifo.probes));
    // Deadline misses move the same direction fleet-wide.
    EXPECT_LT(priority.deadline_misses, fifo.deadline_misses);
}

// -------------------------------------------- purity and determinism

TEST(FabricHarness, ProbingIsPureObservation)
{
    // Probing copies frames and consumes no RNG: every queueing
    // observable must be bit-identical with probing disabled.
    FabricFleetConfig probed = contention_config(SchedulerKind::Deadline);
    FabricFleetConfig blind = probed;
    blind.probe_interval = 0;
    const FabricStats a = run_fabric(probed);
    const FabricStats b = run_fabric(blind);
    EXPECT_GT(a.probes, 0u);
    EXPECT_EQ(b.probes, 0u);
    EXPECT_EQ(a.demand.counts(), b.demand.counts());
    EXPECT_EQ(a.queue_delay.counts(), b.queue_delay.counts());
    EXPECT_EQ(a.enqueued, b.enqueued);
    EXPECT_EQ(a.landed, b.landed);
    EXPECT_EQ(a.suppressed, b.suppressed);
    EXPECT_EQ(a.deadline_misses, b.deadline_misses);
}

TEST(FabricHarness, ThreadedFabricStatsAreDeterministic)
{
    // sim/engine.hpp determinism extended to FabricStats::merge: the
    // same (cycles, threads, seed) triple merges to identical stats,
    // per tenant and per link, across repeated runs.
    FabricFleetConfig config = contention_config(SchedulerKind::Priority);
    config.fleet.threads = 3;
    config.fleet.cycles = 3001;
    config.topology.links = 2;
    config.topology.placement = PlacementKind::HotIsolate;
    const FabricStats a = run_fabric(config);
    const FabricStats b = run_fabric(config);
    EXPECT_EQ(a.demand.counts(), b.demand.counts());
    EXPECT_EQ(a.queue_delay.counts(), b.queue_delay.counts());
    EXPECT_EQ(a.enqueued, b.enqueued);
    EXPECT_EQ(a.served, b.served);
    EXPECT_EQ(a.landed, b.landed);
    EXPECT_EQ(a.deadline_misses, b.deadline_misses);
    EXPECT_EQ(a.probes, b.probes);
    EXPECT_EQ(a.probe_failures, b.probe_failures);
    ASSERT_EQ(a.per_tenant.size(), b.per_tenant.size());
    for (size_t q = 0; q < a.per_tenant.size(); ++q) {
        EXPECT_EQ(a.per_tenant[q].link, b.per_tenant[q].link);
        EXPECT_EQ(a.per_tenant[q].enqueued, b.per_tenant[q].enqueued);
        EXPECT_EQ(a.per_tenant[q].failures, b.per_tenant[q].failures);
        EXPECT_EQ(a.per_tenant[q].delay.counts(),
                  b.per_tenant[q].delay.counts());
    }
    ASSERT_EQ(a.per_link.size(), 2u);
    for (size_t k = 0; k < a.per_link.size(); ++k) {
        EXPECT_EQ(a.per_link[k].enqueued, b.per_link[k].enqueued);
        EXPECT_EQ(a.per_link[k].delay.counts(),
                  b.per_link[k].delay.counts());
    }
}

// ------------------------------------------------------ heterogeneity

TEST(FleetHeterogeneity, UniformTenantProfileBitExactWithScalarP)
{
    // A tenant_probs vector of n equal entries (and matching
    // tenant_distances) is the uniform fleet: the legacy harness must
    // not see any difference, bit for bit.
    ExactFleetConfig config;
    config.distance = 3;
    config.p = 8e-3;
    config.num_qubits = 5;
    config.cycles = 1500;
    config.seed = 13;
    config.shared_link = true;
    config.offchip_latency = 1;
    config.offchip_bandwidth = 1;
    const ExactFleetStats scalar = fleet_demand_exact_stats(config);
    config.tenant_probs.assign(static_cast<size_t>(config.num_qubits),
                               config.p);
    config.tenant_distances.assign(
        static_cast<size_t>(config.num_qubits), config.distance);
    const ExactFleetStats vector = fleet_demand_exact_stats(config);
    EXPECT_EQ(scalar.demand.counts(), vector.demand.counts());
    EXPECT_EQ(scalar.queue_delay.counts(), vector.queue_delay.counts());
    EXPECT_EQ(scalar.enqueued, vector.enqueued);
    EXPECT_EQ(scalar.landed, vector.landed);
    EXPECT_EQ(scalar.suppressed, vector.suppressed);
    ASSERT_GT(scalar.enqueued, 0u);
}

TEST(FleetHeterogeneity, MismatchedTenantProfileThrows)
{
    ExactFleetConfig config;
    config.num_qubits = 4;
    config.cycles = 10;
    config.tenant_probs = {1e-3, 1e-3};  // sized for a different fleet
    EXPECT_THROW(fleet_demand_exact_stats(config), std::invalid_argument);
    config.tenant_probs.clear();
    config.tenant_distances = {3, 3, 3};
    EXPECT_THROW(fleet_demand_exact_stats(config), std::invalid_argument);
}

TEST(FleetHeterogeneity, MixedDistancesDecodeOnTheRightLattice)
{
    // Two code distances share one fabric link: every tenant's decode
    // must run on its own lattice (register_code), or corrections
    // would be sized for the wrong code and the closed loop would
    // unravel. Deep audits (conservation, FIFO lockstep) stay green.
    const ScopedAuditLevel deep(AuditLevel::Deep);
    FabricFleetConfig config;
    config.fleet.distance = 3;
    config.fleet.p = 8e-3;
    config.fleet.num_qubits = 4;
    config.fleet.cycles = 1200;
    config.fleet.seed = 31;
    config.fleet.shared_link = true;
    config.fleet.offchip_latency = 1;
    config.fleet.offchip_bandwidth = 1;
    config.fleet.offchip = OffchipPolicy::Mwpm;
    config.fleet.tenant_probs = {8e-3, 8e-3, 8e-3, 8e-3};
    config.fleet.tenant_distances = {3, 5, 3, 5};
    const FabricStats stats = run_fabric(config);
    ASSERT_GT(stats.enqueued, 0u);
    EXPECT_EQ(stats.landed + stats.pending, stats.enqueued);
    for (size_t q = 0; q < stats.per_tenant.size(); ++q) {
        EXPECT_GT(stats.per_tenant[q].probes, 0u) << "tenant " << q;
    }
}

} // namespace
} // namespace btwc
