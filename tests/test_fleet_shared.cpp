/**
 * @file
 * Tests for the shared multi-tenant off-chip decode service
 * (core/offchip_service.hpp) and its fleet harness
 * (sim/fleet.hpp::fleet_demand_exact_stats): FIFO fairness across
 * owners under a narrow link, bit-exactness of the shared link against
 * one link per qubit at the synchronous operating point, routing of served
 * batches that mix owners, `--threads` determinism of the merged fleet
 * statistics, and the heterogeneous (Poisson-binomial) demand model.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "core/offchip_service.hpp"
#include "core/system.hpp"
#include "sim/fleet.hpp"
#include "surface/lattice.hpp"
#include "surface/noise.hpp"

namespace btwc {
namespace {

TEST(SharedService, NarrowLinkServesOwnersInFifoOrder)
{
    // Three tenants escalate in the same cycle on a bandwidth-1 link:
    // corrections must come back one per cycle in enqueue order --
    // FIFO across owners is the round-robin fairness guarantee (no
    // tenant can starve another, since each is bounded at one
    // outstanding request per half).
    const RotatedSurfaceCode code(3);
    SharedOffchipService service(code, TierChainConfig::legacy(),
                                 OffchipQueueConfig{1, 0, 0});
    for (int owner : {2, 0, 1}) {
        SharedOffchipService::Request request;
        request.owner = owner;
        request.half = owner % 2;
        request.oracle = true;
        request.payload = {0, 0, 0};
        service.enqueue(std::move(request));
    }
    std::vector<int> landed_owners;
    for (int cycle = 0; cycle < 5; ++cycle) {
        for (const SharedOffchipService::Delivery &landing :
             service.step()) {
            landed_owners.push_back(landing.owner);
        }
    }
    EXPECT_EQ(landed_owners, (std::vector<int>{2, 0, 1}));
    EXPECT_EQ(service.pending(), 0u);
    // Two of the three cycles with waiting demand ended oversubscribed.
    EXPECT_EQ(service.queue().stall_cycles() +
                  service.queue().max_backlog(),
              4u);
}

/** Step two fleets in lockstep and require identical frames. */
void
expect_fleets_lockstep(std::vector<BtwcSystem> &a,
                       std::vector<BtwcSystem> &b,
                       SharedOffchipService &service, int cycles)
{
    for (int cycle = 0; cycle < cycles; ++cycle) {
        for (size_t q = 0; q < a.size(); ++q) {
            const CycleReport ra = a[q].step();
            const CycleReport rb = b[q].step();
            ASSERT_EQ(ra.verdict, rb.verdict)
                << "qubit " << q << " cycle " << cycle;
            ASSERT_EQ(ra.offchip, rb.offchip)
                << "qubit " << q << " cycle " << cycle;
            ASSERT_EQ(ra.queued, rb.queued)
                << "qubit " << q << " cycle " << cycle;
        }
        for (const SharedOffchipService::Delivery &landing :
             service.step()) {
            b[static_cast<size_t>(landing.owner)]
                .deliver_offchip_correction(landing.half,
                                            landing.correction);
        }
        for (size_t q = 0; q < a.size(); ++q) {
            for (const CheckType err : {CheckType::X, CheckType::Z}) {
                ASSERT_EQ(a[q].frame(err).error(), b[q].frame(err).error())
                    << "qubit " << q << " cycle " << cycle;
            }
        }
    }
}

TEST(SharedService, UnlimitedSharedLinkBitExactWithPrivateQueues)
{
    // The acceptance criterion at system granularity: zero latency +
    // unlimited bandwidth makes the shared link land every correction
    // within its own machine cycle, so each tenant's frame trajectory
    // must match the private-queue fleet bit-for-bit -- including the
    // real off-chip decodes of the Mwpm policy, which run on the
    // service-side chains instead of the owners' private chains.
    const RotatedSurfaceCode code(5);
    SystemConfig config;
    config.offchip = OffchipPolicy::Mwpm;
    const int fleet_size = 6;
    std::vector<BtwcSystem> private_fleet;
    std::vector<BtwcSystem> shared_fleet;
    private_fleet.reserve(fleet_size);
    shared_fleet.reserve(fleet_size);
    SharedOffchipService service(code, config.tiers,
                                 OffchipQueueConfig{0, 0, 0});
    for (int q = 0; q < fleet_size; ++q) {
        const uint64_t seed = 100 + static_cast<uint64_t>(q);
        private_fleet.emplace_back(code, NoiseParams::uniform(8e-3),
                                   config, seed);
        shared_fleet.emplace_back(code, NoiseParams::uniform(8e-3),
                                  config, seed);
        shared_fleet.back().attach_shared_service(&service, q);
    }
    expect_fleets_lockstep(private_fleet, shared_fleet, service, 1500);
}

TEST(SharedService, ExactFleetStatsSharedMatchesPrivateAtUnlimited)
{
    // Same criterion at harness granularity: the demand histogram and
    // the landed/enqueued bookkeeping of fleet_demand_exact_stats
    // must be bit-exact between the two ownership modes when the link
    // never throttles.
    ExactFleetConfig config;
    config.distance = 3;
    config.p = 6e-3;
    config.num_qubits = 8;
    config.cycles = 3000;
    config.seed = 17;
    const ExactFleetStats private_stats = fleet_demand_exact_stats(config);
    config.shared_link = true;
    const ExactFleetStats shared_stats = fleet_demand_exact_stats(config);

    EXPECT_EQ(private_stats.demand.counts(), shared_stats.demand.counts());
    EXPECT_EQ(private_stats.enqueued, shared_stats.enqueued);
    EXPECT_EQ(private_stats.landed, shared_stats.landed);
    EXPECT_EQ(private_stats.suppressed, shared_stats.suppressed);
    ASSERT_EQ(private_stats.per_qubit.size(),
              shared_stats.per_qubit.size());
    for (size_t q = 0; q < private_stats.per_qubit.size(); ++q) {
        EXPECT_EQ(private_stats.per_qubit[q].enqueued,
                  shared_stats.per_qubit[q].enqueued)
            << "qubit " << q;
        EXPECT_EQ(private_stats.per_qubit[q].landed,
                  shared_stats.per_qubit[q].landed)
            << "qubit " << q;
    }
    // Synchronous link: every delay is zero, nothing left pending.
    EXPECT_EQ(shared_stats.queue_delay.max_value(), 0u);
    EXPECT_EQ(shared_stats.pending, 0u);
    EXPECT_EQ(shared_stats.stall_cycles, 0u);
    ASSERT_GT(shared_stats.enqueued, 0u);
}

TEST(SharedService, MixedOwnerBatchesRouteBackToOwningHalf)
{
    // A wide shared link over a busy fleet: several qubits escalate in
    // the same machine cycle, so served batches mix owners (the
    // fleet-scale decode_batch amortization a one-tenant link can never
    // exhibit -- its batches are bounded at one request per half).
    // Every correction must land on the half that escalated it: a
    // mis-routed correction would XOR garbage onto another tenant's
    // frame and the closed loops would wander off.
    ExactFleetConfig config;
    config.distance = 5;
    config.p = 2e-2;  // busy: frequent same-cycle escalations
    config.num_qubits = 10;
    config.cycles = 2000;
    config.seed = 5;
    config.shared_link = true;
    config.offchip = OffchipPolicy::Mwpm;
    const ExactFleetStats stats = fleet_demand_exact_stats(config);

    // Mixed batches actually occurred ...
    ASSERT_GT(stats.batch_sizes.total(), 0u);
    EXPECT_GT(stats.batch_sizes.max_value(), 2u);
    // ... every request was accounted for per owner ...
    uint64_t per_qubit_enqueued = 0;
    uint64_t per_qubit_landed = 0;
    for (const QubitServiceStats &mine : stats.per_qubit) {
        EXPECT_GT(mine.enqueued, 0u);
        per_qubit_enqueued += mine.enqueued;
        per_qubit_landed += mine.landed;
    }
    EXPECT_EQ(per_qubit_enqueued, stats.enqueued);
    EXPECT_EQ(per_qubit_landed + stats.pending, stats.enqueued);
    // ... and the loops stayed closed (correct routing): demand stays
    // a small fraction of the fleet instead of saturating at one
    // escalation per qubit per cycle.
    EXPECT_LT(stats.demand.mean(),
              0.5 * static_cast<double>(config.num_qubits));
}

TEST(SharedService, NarrowSharedLinkThrottlesAndBacklogs)
{
    // A bandwidth-1 link under a fleet that wants more: backlog and
    // stall cycles appear, landed corrections wait behind the link
    // (delays above the bare latency), and the one-outstanding
    // contract turns the excess into suppressed escalations instead
    // of unbounded queue growth.
    ExactFleetConfig config;
    config.distance = 5;
    config.p = 2e-2;
    config.num_qubits = 12;
    config.cycles = 2500;
    config.seed = 7;
    config.shared_link = true;
    config.offchip_latency = 2;
    config.offchip_bandwidth = 1;
    const ExactFleetStats stats = fleet_demand_exact_stats(config);

    EXPECT_GT(stats.stall_cycles, 0u);
    EXPECT_GT(stats.max_backlog, 1u);
    ASSERT_GT(stats.queue_delay.total(), 0u);
    EXPECT_GT(stats.queue_delay.max_value(), config.offchip_latency);
    EXPECT_GT(stats.suppressed, 0u);
    // Backlog is bounded by the outstanding-request contract: at most
    // two requests (one per half) per tenant can ever occupy the link.
    EXPECT_LE(stats.max_backlog,
              2u * static_cast<uint64_t>(config.num_qubits));
    EXPECT_EQ(stats.backlog.total(), config.cycles);
}

TEST(SharedService, DemandCountsShippedEscalationsNotInflightReflags)
{
    // Under latency the escalated errors stay on the lattice and keep
    // classifying off-chip while their request is in flight; those
    // re-flags are `suppressed`, not demand. Counting them as demand
    // would inflate the binomial-vs-real comparison ~(latency+1)x.
    // Pin: the demand mass (qubits counted per cycle, summed) never
    // exceeds the requests actually enqueued, and each counted
    // qubit-cycle shipped at most two requests (one per half).
    ExactFleetConfig config;
    config.distance = 5;
    config.p = 1e-2;
    config.num_qubits = 8;
    config.cycles = 3000;
    config.seed = 9;
    config.shared_link = true;
    config.offchip_latency = 4;
    const ExactFleetStats stats = fleet_demand_exact_stats(config);

    ASSERT_GT(stats.suppressed, 0u);  // in-flight re-flags did occur
    uint64_t demand_mass = 0;
    const std::vector<uint64_t> &counts = stats.demand.counts();
    for (size_t v = 0; v < counts.size(); ++v) {
        demand_mass += static_cast<uint64_t>(v) * counts[v];
    }
    EXPECT_LE(demand_mass, stats.enqueued);
    EXPECT_GE(2 * demand_mass, stats.enqueued);
    ASSERT_GT(demand_mass, 0u);
}

TEST(SharedService, ThreadedSharedFleetStatsAreDeterministic)
{
    // The merged shared-link observables must be bit-identical across
    // repeated sharded runs of the same (cycles, threads, seed)
    // triple -- the sim/engine.hpp determinism contract extended to
    // the new ExactFleetStats::merge.
    ExactFleetConfig config;
    config.distance = 3;
    config.p = 8e-3;
    config.num_qubits = 6;
    config.cycles = 3001;
    config.seed = 23;
    config.threads = 3;
    config.shared_link = true;
    config.offchip_latency = 1;
    config.offchip_bandwidth = 2;
    const ExactFleetStats a = fleet_demand_exact_stats(config);
    const ExactFleetStats b = fleet_demand_exact_stats(config);

    EXPECT_EQ(a.demand.counts(), b.demand.counts());
    EXPECT_EQ(a.queue_delay.counts(), b.queue_delay.counts());
    EXPECT_EQ(a.batch_sizes.counts(), b.batch_sizes.counts());
    EXPECT_EQ(a.backlog.counts(), b.backlog.counts());
    EXPECT_EQ(a.stall_cycles, b.stall_cycles);
    EXPECT_EQ(a.enqueued, b.enqueued);
    EXPECT_EQ(a.landed, b.landed);
    EXPECT_EQ(a.suppressed, b.suppressed);
    EXPECT_EQ(a.pending, b.pending);
    EXPECT_EQ(a.demand.total(), config.cycles);
    ASSERT_EQ(a.per_qubit.size(), b.per_qubit.size());
    for (size_t q = 0; q < a.per_qubit.size(); ++q) {
        EXPECT_EQ(a.per_qubit[q].enqueued, b.per_qubit[q].enqueued);
        EXPECT_EQ(a.per_qubit[q].landed, b.per_qubit[q].landed);
    }
}

TEST(FleetHeterogeneity, UniformProfileBitExactWithHomogeneousModel)
{
    // A qubit_probs vector of n equal entries collapses to the same
    // single-binomial draw as the homogeneous model: the histograms
    // must be bit-identical, not just statistically close.
    FleetConfig config;
    config.num_qubits = 500;
    config.cycles = 20000;
    config.offchip_prob = 0.03;
    const CountHistogram homogeneous = fleet_demand_histogram(config);
    config.qubit_probs.assign(static_cast<size_t>(config.num_qubits),
                              config.offchip_prob);
    const CountHistogram uniform = fleet_demand_histogram(config);
    EXPECT_EQ(homogeneous.counts(), uniform.counts());
}

TEST(FleetHeterogeneity, HotspotsShiftTheProvisioningPercentiles)
{
    // 10% of the qubits running 10x hotter: the demand mean moves to
    // the profile average and the high provisioning percentiles shift
    // up vs the homogeneous base -- the ROADMAP's defective-patch
    // scenario.
    FleetConfig config;
    config.num_qubits = 1000;
    config.cycles = 50000;
    config.offchip_prob = 0.01;
    const CountHistogram base = fleet_demand_histogram(config);

    config.qubit_probs =
        hotspot_probs(config.num_qubits, config.offchip_prob, 0.10, 10.0);
    ASSERT_EQ(config.qubit_probs.size(),
              static_cast<size_t>(config.num_qubits));
    const CountHistogram hot = fleet_demand_histogram(config);

    // Profile mean: 0.9 * q + 0.1 * 10q = 1.9q.
    EXPECT_NEAR(hot.mean(), 1.9 * base.mean(), 0.1 * base.mean());
    EXPECT_GT(hot.percentile(0.99), base.percentile(0.99));
    EXPECT_EQ(hot.total(), config.cycles);
}

TEST(FleetHeterogeneity, MismatchedProfileSizeThrows)
{
    // A profile sized for a different fleet would silently model the
    // wrong machine (e.g. a copied config with only num_qubits
    // rescaled); the demand entry points must refuse it.
    FleetConfig config;
    config.num_qubits = 10;
    config.cycles = 100;
    config.qubit_probs = {0.1, 0.2};
    EXPECT_THROW(fleet_demand_histogram(config), std::invalid_argument);
}

TEST(FleetHeterogeneity, HotspotProfileClampsAndCounts)
{
    const std::vector<double> probs = hotspot_probs(10, 0.2, 0.25, 100.0);
    ASSERT_EQ(probs.size(), 10u);
    int hot = 0;
    for (const double q : probs) {
        ASSERT_GE(q, 0.0);
        ASSERT_LE(q, 1.0);
        hot += q == 1.0 ? 1 : 0;  // 0.2 * 100 clamps to 1.0
    }
    EXPECT_EQ(hot, 2);
    // A nonzero fraction always marks at least one qubit.
    EXPECT_EQ(hotspot_probs(10, 0.1, 0.01, 2.0).front(), 0.2);
}

} // namespace
} // namespace btwc
