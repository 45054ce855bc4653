/**
 * @file
 * Tests for the asynchronous off-chip decode service: the
 * latency/bandwidth OffchipQueue (core/offchip_queue.hpp), its
 * Lindley-recursion stall trajectory at zero latency, the
 * queued-correction semantics of BtwcSystem (a zero-latency link is
 * synchronous, corrections landing mid-filter-window, backlog growth
 * under a narrow link), the batched decode path, and `--threads`
 * determinism of the queue statistics. Bit-exactness of the
 * closed-loop pipeline itself is pinned by tests/test_golden.cpp.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "core/offchip_queue.hpp"
#include "core/system.hpp"
#include "sim/fleet.hpp"
#include "sim/lifetime.hpp"
#include "surface/lattice.hpp"
#include "surface/noise.hpp"

namespace btwc {
namespace {

TEST(OffchipQueue, SynchronousConfigurationLandsSameCycle)
{
    // latency 0 + unlimited bandwidth: every request is served and
    // lands in the cycle it arrives -- the synchronous model.
    OffchipQueue queue;
    for (uint64_t n : {0u, 1u, 3u, 0u, 7u}) {
        const auto out = queue.step(n);
        EXPECT_EQ(out.served, n);
        EXPECT_EQ(out.landed, n);
        EXPECT_EQ(queue.backlog(), 0u);
        EXPECT_EQ(queue.in_flight(), 0u);
    }
    EXPECT_EQ(queue.stall_cycles(), 0u);
    EXPECT_EQ(queue.delay_histogram().max_value(), 0u);
    EXPECT_EQ(queue.delay_histogram().total(), 11u);
}

TEST(OffchipQueue, LatencyDelaysLandingExactly)
{
    OffchipQueue queue(OffchipQueueConfig{0, 3, 0});
    auto out = queue.step(2);  // cycle 0: served, lands cycle 3
    EXPECT_EQ(out.served, 2u);
    EXPECT_EQ(out.landed, 0u);
    EXPECT_EQ(queue.in_flight(), 2u);
    for (int cycle = 1; cycle < 3; ++cycle) {
        out = queue.step(0);
        EXPECT_EQ(out.landed, 0u) << "cycle " << cycle;
    }
    out = queue.step(0);  // cycle 3
    EXPECT_EQ(out.landed, 2u);
    EXPECT_EQ(queue.in_flight(), 0u);
    // Unlimited bandwidth: the only delay is the service latency.
    EXPECT_EQ(queue.delay_histogram().percentile(0.0), 3u);
    EXPECT_EQ(queue.delay_histogram().max_value(), 3u);
    // Latency alone never stalls: the link kept up with demand.
    EXPECT_EQ(queue.stall_cycles(), 0u);
}

/** Zero-latency stall reference: the Lindley recursion of §5.2. */
struct LindleyStalls
{
    explicit LindleyStalls(uint64_t bandwidth) : bandwidth(bandwidth) {}

    void step(uint64_t demand)
    {
        const bool stall = backlog > 0;
        stall_cycles += stall ? 1 : 0;
        work_cycles += stall ? 0 : 1;
        const uint64_t inflow = backlog + demand;
        const uint64_t served_now = inflow < bandwidth ? inflow : bandwidth;
        served += served_now;
        backlog = inflow - served_now;
        max_backlog = backlog > max_backlog ? backlog : max_backlog;
    }

    uint64_t bandwidth;
    uint64_t backlog = 0;
    uint64_t max_backlog = 0;
    uint64_t served = 0;
    uint64_t work_cycles = 0;
    uint64_t stall_cycles = 0;
};

TEST(OffchipQueue, ZeroLatencyFollowsLindleyRecursionStepForStep)
{
    // With latency 0 the stall accounting, backlog, and served counts
    // must follow the textbook recursion every cycle.
    for (const uint64_t bandwidth : {1u, 2u, 5u}) {
        OffchipQueue queue(OffchipQueueConfig{bandwidth, 0, 0});
        LindleyStalls reference(bandwidth);
        Rng rng(99 + bandwidth);
        for (int cycle = 0; cycle < 2000; ++cycle) {
            const uint64_t demand = rng.next_below(2 * bandwidth + 2);
            queue.step(demand);
            reference.step(demand);
            ASSERT_EQ(queue.backlog(), reference.backlog);
            ASSERT_EQ(queue.stall_pending(), reference.backlog > 0);
        }
        EXPECT_EQ(queue.work_cycles(), reference.work_cycles);
        EXPECT_EQ(queue.stall_cycles(), reference.stall_cycles);
        EXPECT_EQ(queue.served(), reference.served);
        EXPECT_EQ(queue.max_backlog(), reference.max_backlog);
        EXPECT_DOUBLE_EQ(queue.execution_time_increase(),
                         stall_execution_time_increase(
                             reference.stall_cycles, reference.work_cycles));
    }
}

TEST(OffchipQueue, BacklogGrowsWhenBandwidthBelowDemand)
{
    // bandwidth 1, demand 3/cycle: the backlog must grow ~2 per cycle
    // and the queueing delay keep climbing (the decode backlog
    // problem the synchronous model cannot express).
    OffchipQueue queue(OffchipQueueConfig{1, 2, 0});
    uint64_t last_delay = 0;
    for (int cycle = 0; cycle < 500; ++cycle) {
        queue.step(3);
        const uint64_t delay = queue.delay_histogram().max_value();
        EXPECT_GE(delay, last_delay);
        last_delay = delay;
    }
    EXPECT_GE(queue.backlog(), 2u * 500u - 3u);
    EXPECT_GT(queue.stall_cycles(), 490u);
    // FIFO service of an ever-growing queue: the latest served
    // request waited for nearly the whole run.
    EXPECT_GT(last_delay, 300u);
}

TEST(OffchipQueue, BatchHistogramRespectsCap)
{
    OffchipQueue queue(OffchipQueueConfig{0, 0, 4});
    queue.step(10);  // batches of 4, 4, 2
    queue.step(3);   // one batch of 3
    const CountHistogram &batches = queue.batch_histogram();
    EXPECT_EQ(batches.total(), 4u);
    EXPECT_EQ(batches.max_value(), 4u);
    ASSERT_GT(batches.counts().size(), 4u);
    EXPECT_EQ(batches.counts()[4], 2u);
    EXPECT_EQ(batches.counts()[3], 1u);
    EXPECT_EQ(batches.counts()[2], 1u);
}

TEST(StallModel, AllStallRunReadsAsInfiniteSlowdown)
{
    // The Fig. 16 ratio must saturate to +inf when stalls occurred
    // but no work cycle ever completed -- not read as "no slowdown".
    EXPECT_TRUE(std::isinf(stall_execution_time_increase(5, 0)));
    EXPECT_GT(stall_execution_time_increase(5, 0), 0.0);
    EXPECT_DOUBLE_EQ(stall_execution_time_increase(0, 0), 0.0);
    EXPECT_DOUBLE_EQ(stall_execution_time_increase(1, 4), 0.25);
}

TEST(QueuedService, RunLifetimeZeroLatencyReproducesSynchronousStats)
{
    // --offchip-latency 0 with unlimited bandwidth is the synchronous
    // model: every escalation lands in its own cycle, so nothing is
    // ever suppressed or left pending and every delay is zero, for
    // both policies and with the deep chain's on-chip mid-tier. (The
    // exact statistics are pinned by tests/golden/lifetime_*.json.)
    for (const char *tiers : {"clique,mwpm", "clique,uf:2,mwpm"}) {
        for (const OffchipPolicy policy :
             {OffchipPolicy::Oracle, OffchipPolicy::Mwpm}) {
            LifetimeConfig config;
            config.distance = 5;
            config.p = 5e-3;
            config.cycles = 5000;
            config.mode = LifetimeMode::Pipeline;
            config.offchip = policy;
            config.tiers = TierChainConfig::parse(tiers);
            config.threads = 2;
            const LifetimeStats stats = run_lifetime(config);
            ASSERT_GT(stats.offchip_halves, 0u) << tiers;
            EXPECT_EQ(stats.offchip_queue_delay.total(),
                      stats.offchip_halves)
                << tiers;
            EXPECT_EQ(stats.suppressed_escalations, 0u) << tiers;
            EXPECT_EQ(stats.pending_offchip, 0u) << tiers;
            EXPECT_EQ(stats.offchip_queue_delay.max_value(), 0u) << tiers;
        }
    }
}

TEST(QueuedService, CorrectionsLandAfterExactlyTheConfiguredLatency)
{
    // Unlimited bandwidth: no queueing wait, so every landed
    // correction's enqueue-to-landing delay equals the latency -- and
    // with latency inside the filter window the loop must still
    // converge (late corrections reconcile against the intervening
    // syndromes instead of oscillating).
    const RotatedSurfaceCode code(5);
    SystemConfig config;
    config.offchip = OffchipPolicy::Mwpm;
    config.filter_rounds = 3;
    config.offchip_latency = 2;  // lands mid-filter-window
    BtwcSystem system(code, NoiseParams::uniform(8e-3), config, 21);
    uint64_t queued = 0;
    uint64_t landed = 0;
    for (int i = 0; i < 4000; ++i) {
        const CycleReport report = system.step();
        queued += static_cast<uint64_t>(report.queued);
        landed += static_cast<uint64_t>(report.landed);
    }
    ASSERT_GT(queued, 0u);
    EXPECT_EQ(landed + system.pending_offchip(), queued);
    EXPECT_EQ(system.offchip_queue().delay_histogram().percentile(0.0),
              2u);
    EXPECT_EQ(system.offchip_queue().delay_histogram().max_value(), 2u);
    // Latency makes escalated errors linger, so some cycles re-flag
    // them while the decode is in flight; those are absorbed, not
    // re-sent (the reconciliation contract).
    EXPECT_GT(system.suppressed_escalations(), 0u);
    // The loop stays closed: the syndrome does not wander off.
    for (const CheckType err : {CheckType::X, CheckType::Z}) {
        std::vector<uint8_t> syndrome;
        system.frame(err).measure_perfect(syndrome);
        int weight = 0;
        for (const uint8_t s : syndrome) {
            weight += s;
        }
        EXPECT_LT(weight, code.num_checks(detector_of_error(err)) / 3);
    }
}

TEST(QueuedService, OraclePolicySupportsLatentCorrections)
{
    // Under the Oracle policy the queued payload is the
    // escalation-time error snapshot; applied L cycles later it must
    // remove exactly that component and leave the loop stable.
    const RotatedSurfaceCode code(7);
    SystemConfig config;
    config.offchip_latency = 4;
    BtwcSystem system(code, NoiseParams::uniform(5e-3), config, 23);
    uint64_t landed = 0;
    for (int i = 0; i < 5000; ++i) {
        landed += static_cast<uint64_t>(system.step().landed);
    }
    ASSERT_GT(landed, 0u);
    EXPECT_EQ(system.offchip_queue().delay_histogram().max_value(), 4u);
    for (const CheckType err : {CheckType::X, CheckType::Z}) {
        std::vector<uint8_t> syndrome;
        system.frame(err).measure_perfect(syndrome);
        int weight = 0;
        for (const uint8_t s : syndrome) {
            weight += s;
        }
        EXPECT_LT(weight, code.num_checks(detector_of_error(err)) / 3);
    }
}

TEST(QueuedService, NarrowLinkDefersLandingsBehindCapacity)
{
    // bandwidth 1 with both halves escalating in one cycle: the
    // second request waits a cycle for the link, so its delay exceeds
    // the bare latency.
    const RotatedSurfaceCode code(9);
    SystemConfig config;
    config.offchip = OffchipPolicy::Mwpm;
    config.offchip_latency = 1;
    config.offchip_bandwidth = 1;
    BtwcSystem system(code, NoiseParams::uniform(2e-2), config, 31);
    for (int i = 0; i < 4000; ++i) {
        system.step();
    }
    const CountHistogram &delay =
        system.offchip_queue().delay_histogram();
    ASSERT_GT(delay.total(), 0u);
    EXPECT_EQ(delay.percentile(0.0), 1u);   // uncontended requests
    EXPECT_GT(delay.max_value(), 1u);       // contended ones waited
    EXPECT_GT(system.offchip_queue().max_backlog(), 0u);
}

TEST(QueuedService, ThreadedQueueStatsAreDeterministic)
{
    LifetimeConfig config;
    config.distance = 7;
    config.p = 8e-3;
    config.cycles = 10000;
    config.mode = LifetimeMode::Pipeline;
    config.offchip = OffchipPolicy::Mwpm;
    config.offchip_latency = 2;
    config.offchip_bandwidth = 1;
    config.threads = 4;
    const LifetimeStats a = run_lifetime(config);
    const LifetimeStats b = run_lifetime(config);
    ASSERT_GT(a.offchip_queue_delay.total(), 0u);
    EXPECT_EQ(a.offchip_queue_delay.counts(),
              b.offchip_queue_delay.counts());
    EXPECT_EQ(a.offchip_batch_sizes.counts(),
              b.offchip_batch_sizes.counts());
    EXPECT_EQ(a.suppressed_escalations, b.suppressed_escalations);
    EXPECT_EQ(a.pending_offchip, b.pending_offchip);
    EXPECT_EQ(a.complex_cycles, b.complex_cycles);
}

TEST(FleetLatency, ZeroLatencyFleetRunMatchesLegacyBitExact)
{
    // At latency 0 the fleet's stall/backlog trajectory must be the
    // historical Lindley one, and every served decode's delay 0.
    FleetConfig config;
    config.num_qubits = 1000;
    config.cycles = 20000;
    config.offchip_prob = 0.02;
    const FleetRunResult run = run_fleet_with_bandwidth(config, 40);
    EXPECT_EQ(run.work_cycles, config.cycles);
    EXPECT_EQ(run.max_queue_delay, 0u);
    EXPECT_DOUBLE_EQ(run.mean_queue_delay, 0.0);

    // Reference trajectory straight off the recursion with the
    // identical demand stream.
    Rng rng(config.seed);
    LindleyStalls reference(40);
    while (reference.work_cycles < config.cycles) {
        reference.step(rng.binomial(
            static_cast<uint64_t>(config.num_qubits),
            config.offchip_prob));
    }
    EXPECT_EQ(run.total_cycles,
              reference.work_cycles + reference.stall_cycles);
    EXPECT_EQ(run.stall_cycles, reference.stall_cycles);
    EXPECT_EQ(run.max_backlog, reference.max_backlog);
}

TEST(FleetLatency, LatencyShiftsDelayWithoutChangingStalls)
{
    FleetConfig config;
    config.num_qubits = 1000;
    config.cycles = 20000;
    config.offchip_prob = 0.02;
    const FleetRunResult base = run_fleet_with_bandwidth(config, 40);
    config.offchip_latency = 10;
    const FleetRunResult latent = run_fleet_with_bandwidth(config, 40);
    // Latency is pipelined: the stall curve is untouched ...
    EXPECT_EQ(latent.stall_cycles, base.stall_cycles);
    EXPECT_EQ(latent.max_backlog, base.max_backlog);
    // ... but every correction lands 10 cycles later.
    EXPECT_NEAR(latent.mean_queue_delay, base.mean_queue_delay + 10.0,
                1e-9);
}

TEST(FleetLatency, StallCurveDegradesMonotonicallyAsBandwidthShrinks)
{
    // The acceptance-criterion shape: narrowing the link can only
    // stall more and queue longer (nonzero latency configuration).
    FleetConfig config;
    config.num_qubits = 1000;
    config.cycles = 20000;
    config.offchip_prob = 0.02;
    config.offchip_latency = 5;
    uint64_t last_stalls = 0;
    double last_delay = 0.0;
    for (const uint64_t bandwidth : {60u, 45u, 35u, 30u, 27u}) {
        const FleetRunResult run =
            run_fleet_with_bandwidth(config, bandwidth);
        ASSERT_EQ(run.work_cycles, config.cycles)
            << "bandwidth " << bandwidth << " diverged";
        EXPECT_GE(run.stall_cycles, last_stalls)
            << "bandwidth " << bandwidth;
        EXPECT_GE(run.mean_queue_delay, last_delay)
            << "bandwidth " << bandwidth;
        last_stalls = run.stall_cycles;
        last_delay = run.mean_queue_delay;
    }
    EXPECT_GT(last_stalls, 0u);
}

} // namespace
} // namespace btwc
