/**
 * @file
 * Tests for the BTWC system plumbing: bandwidth allocation, the stall
 * control of a zero-latency off-chip link, and the full per-qubit
 * pipeline.
 */

#include <gtest/gtest.h>

#include "core/bandwidth.hpp"
#include "core/offchip_queue.hpp"
#include "core/system.hpp"
#include "surface/lattice.hpp"
#include "surface/noise.hpp"

namespace btwc {
namespace {

TEST(BandwidthAllocator, PercentileProvisioning)
{
    BandwidthAllocator alloc;
    for (int i = 0; i < 99; ++i) {
        alloc.record_cycle(2);
    }
    alloc.record_cycle(50);
    EXPECT_EQ(alloc.provision(0.5), 2u);
    EXPECT_EQ(alloc.provision(0.99), 2u);
    EXPECT_EQ(alloc.provision(1.0), 50u);
    EXPECT_NEAR(alloc.mean_demand(), (99 * 2 + 50) / 100.0, 1e-12);
}

TEST(BandwidthAllocator, NeverProvisionsZero)
{
    BandwidthAllocator alloc;
    for (int i = 0; i < 100; ++i) {
        alloc.record_cycle(0);
    }
    EXPECT_EQ(alloc.provision(0.99), 1u);
}

/** A zero-latency link of `bandwidth` decodes per cycle (§5.2). */
OffchipQueue
stall_controller(uint64_t bandwidth)
{
    return OffchipQueue(OffchipQueueConfig{bandwidth, 0, 0});
}

/** Step one cycle; true when it made program progress (no stall). */
bool
work_step(OffchipQueue &queue, uint64_t demand)
{
    const bool work = !queue.stall_pending();
    queue.step(demand);
    return work;
}

TEST(StallController, NoOverflowNoStalls)
{
    OffchipQueue queue = stall_controller(5);
    for (int i = 0; i < 100; ++i) {
        EXPECT_TRUE(work_step(queue, 3));
    }
    EXPECT_EQ(queue.stall_cycles(), 0u);
    EXPECT_EQ(queue.work_cycles(), 100u);
    EXPECT_EQ(queue.backlog(), 0u);
    EXPECT_DOUBLE_EQ(queue.execution_time_increase(), 0.0);
}

TEST(StallController, OverflowStallsNextCycle)
{
    OffchipQueue queue = stall_controller(2);
    EXPECT_TRUE(work_step(queue, 5));   // demand 5 > 2: 3 carry over
    EXPECT_EQ(queue.backlog(), 3u);
    EXPECT_TRUE(queue.stall_pending());
    EXPECT_FALSE(work_step(queue, 0));  // this cycle is the stall
    EXPECT_EQ(queue.backlog(), 1u);
    EXPECT_FALSE(work_step(queue, 0));  // backlog still draining
    EXPECT_EQ(queue.backlog(), 0u);
    EXPECT_TRUE(work_step(queue, 0));
    EXPECT_EQ(queue.stall_cycles(), 2u);
    EXPECT_EQ(queue.work_cycles(), 2u);
}

TEST(StallController, ConservationOfDecodes)
{
    OffchipQueue queue = stall_controller(3);
    const uint64_t demands[] = {1, 7, 0, 2, 9, 0, 0, 0, 4, 1};
    uint64_t total = 0;
    for (const uint64_t d : demands) {
        queue.step(d);
        total += d;
    }
    EXPECT_EQ(queue.served() + queue.backlog(), total);
}

TEST(StallController, PersistentOverloadAccumulates)
{
    // Demand mean above bandwidth: the backlog must grow without
    // bound (the paper's "decode backlog problem", Fig. 9 top).
    OffchipQueue queue = stall_controller(2);
    for (int i = 0; i < 1000; ++i) {
        queue.step(3);
    }
    EXPECT_GE(queue.backlog(), 900u);
    EXPECT_GT(queue.stall_cycles(), 990u);
}

TEST(StallController, ExecutionTimeIncreaseMath)
{
    OffchipQueue queue = stall_controller(1);
    queue.step(2);  // work, 1 carried
    queue.step(0);  // stall, drains
    queue.step(0);  // work
    queue.step(0);  // work
    EXPECT_EQ(queue.work_cycles(), 3u);
    EXPECT_EQ(queue.stall_cycles(), 1u);
    EXPECT_NEAR(queue.execution_time_increase(), 1.0 / 3.0, 1e-12);
}

TEST(BtwcSystem, NoNoiseMeansAllZeros)
{
    const RotatedSurfaceCode code(5);
    BtwcSystem system(code, NoiseParams::uniform(0.0), SystemConfig{}, 1);
    for (int i = 0; i < 50; ++i) {
        const CycleReport report = system.step();
        EXPECT_EQ(report.verdict, CliqueVerdict::AllZeros);
        EXPECT_FALSE(report.offchip);
        EXPECT_EQ(report.raw_weight, 0);
    }
}

TEST(BtwcSystem, HighNoiseGoesOffchip)
{
    const RotatedSurfaceCode code(9);
    BtwcSystem system(code, NoiseParams::uniform(0.2), SystemConfig{}, 2);
    int offchip = 0;
    for (int i = 0; i < 200; ++i) {
        offchip += system.step().offchip ? 1 : 0;
    }
    EXPECT_GT(offchip, 150);
}

TEST(BtwcSystem, FilterSuppressesMeasurementOnlyNoise)
{
    // Pure measurement noise: the two-round filter should keep almost
    // everything on-chip, while a pass-through (1-round) configuration
    // classifies many cycles as complex.
    const RotatedSurfaceCode code(7);
    const NoiseParams noise{0.0, 0.05};

    SystemConfig filtered_cfg;
    filtered_cfg.filter_rounds = 2;
    BtwcSystem filtered(code, noise, filtered_cfg, 3);

    SystemConfig raw_cfg;
    raw_cfg.filter_rounds = 1;
    BtwcSystem raw(code, noise, raw_cfg, 3);

    int filtered_offchip = 0;
    int raw_offchip = 0;
    const int cycles = 2000;
    for (int i = 0; i < cycles; ++i) {
        filtered_offchip += filtered.step().offchip ? 1 : 0;
        raw_offchip += raw.step().offchip ? 1 : 0;
    }
    EXPECT_LT(filtered_offchip * 10, raw_offchip);
}

TEST(BtwcSystem, MwpmPolicyKeepsSyndromeBounded)
{
    // With real off-chip decoding the *syndrome* must stay near the
    // all-clear point rather than accumulating. (The raw error weight
    // is allowed to drift: corrections are only ever exact modulo
    // stabilizers, and that invisible background is harmless.)
    const RotatedSurfaceCode code(5);
    SystemConfig config;
    config.offchip = OffchipPolicy::Mwpm;
    BtwcSystem system(code, NoiseParams::uniform(0.01), config, 4);
    for (int i = 0; i < 3000; ++i) {
        system.step();
    }
    for (const CheckType err : {CheckType::X, CheckType::Z}) {
        std::vector<uint8_t> syndrome;
        system.frame(err).measure_perfect(syndrome);
        int weight = 0;
        for (const uint8_t s : syndrome) {
            weight += s;
        }
        EXPECT_LT(weight, code.num_checks(detector_of_error(err)) / 3);
        // No logical drift either: decoding is deterministic, so the
        // oscillating residuals cancel instead of walking the logical.
        (void)err;
    }
}

TEST(BtwcSystem, OracleAndMwpmPoliciesAgreeStatistically)
{
    // The Oracle substitution must not shift the classification
    // distribution (it only matters on rare residual-interaction
    // cycles).
    const RotatedSurfaceCode code(5);
    const double p = 5e-3;
    const int cycles = 20000;

    int offchip[2] = {0, 0};
    int zeros[2] = {0, 0};
    const OffchipPolicy policies[2] = {OffchipPolicy::Oracle,
                                       OffchipPolicy::Mwpm};
    for (int which = 0; which < 2; ++which) {
        SystemConfig config;
        config.offchip = policies[which];
        BtwcSystem system(code, NoiseParams::uniform(p), config, 7);
        for (int i = 0; i < cycles; ++i) {
            const CycleReport report = system.step();
            offchip[which] += report.offchip ? 1 : 0;
            zeros[which] +=
                report.verdict == CliqueVerdict::AllZeros ? 1 : 0;
        }
    }
    EXPECT_NEAR(offchip[0] / double(cycles), offchip[1] / double(cycles),
                0.01);
    EXPECT_NEAR(zeros[0] / double(cycles), zeros[1] / double(cycles),
                0.02);
}

TEST(BtwcSystem, TrivialCyclesApplyCorrections)
{
    const RotatedSurfaceCode code(5);
    BtwcSystem system(code, NoiseParams::uniform(2e-3), SystemConfig{}, 9);
    uint64_t trivial = 0;
    uint64_t corrections = 0;
    for (int i = 0; i < 20000; ++i) {
        const CycleReport report = system.step();
        trivial += report.verdict == CliqueVerdict::Trivial ? 1 : 0;
        corrections += static_cast<uint64_t>(report.clique_corrections);
    }
    EXPECT_GT(trivial, 0u);
    EXPECT_GE(corrections, trivial);
}

} // namespace
} // namespace btwc
