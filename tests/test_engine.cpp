/**
 * @file
 * Tests for the sharded multi-threaded Monte-Carlo engine
 * (sim/engine.hpp): shard planning, statistics merging
 * (LifetimeStats / CountHistogram / RunningStats), exact cycle
 * accounting under sharding, determinism for a fixed thread count,
 * and statistical agreement between sharded and single-threaded runs.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "fabric/harness.hpp"
#include "sim/engine.hpp"
#include "sim/fleet.hpp"
#include "sim/lifetime.hpp"

namespace btwc {
namespace {

TEST(Shards, PlanPartitionsCyclesExactly)
{
    for (const int threads : {1, 2, 3, 7, 8, 16}) {
        for (const uint64_t cycles : {1ull, 5ull, 1000ull, 100001ull}) {
            const auto plan = plan_shards(cycles, threads, 42);
            uint64_t total = 0;
            for (const Shard &shard : plan) {
                EXPECT_GT(shard.cycles, 0u);
                total += shard.cycles;
            }
            EXPECT_EQ(total, cycles)
                << "threads=" << threads << " cycles=" << cycles;
            EXPECT_LE(plan.size(), static_cast<size_t>(threads));
        }
    }
}

TEST(Shards, SingleShardKeepsLegacySeed)
{
    const auto plan = plan_shards(1000, 1, 77);
    ASSERT_EQ(plan.size(), 1u);
    EXPECT_EQ(plan[0].seed, 77u);
    EXPECT_EQ(plan[0].cycles, 1000u);
}

TEST(Shards, MultiShardSeedsAreDistinct)
{
    const auto plan = plan_shards(1000, 8, 77);
    ASSERT_EQ(plan.size(), 8u);
    for (size_t i = 0; i < plan.size(); ++i) {
        for (size_t j = i + 1; j < plan.size(); ++j) {
            EXPECT_NE(plan[i].seed, plan[j].seed);
        }
    }
}

TEST(Shards, ResolveThreadsHandlesAutoRequest)
{
    EXPECT_EQ(resolve_threads(1), 1);
    EXPECT_EQ(resolve_threads(5), 5);
    EXPECT_GE(resolve_threads(0), 1);
    EXPECT_GE(resolve_threads(-3), 1);
}

TEST(Merge, CountHistogramIsExact)
{
    CountHistogram a;
    CountHistogram b;
    CountHistogram reference;
    Rng rng(3);
    for (int i = 0; i < 1000; ++i) {
        const uint64_t v = rng.next_below(20);
        (i % 2 ? a : b).add(v);
        reference.add(v);
    }
    a.merge(b);
    EXPECT_EQ(a.total(), reference.total());
    EXPECT_EQ(a.counts(), reference.counts());
    EXPECT_DOUBLE_EQ(a.mean(), reference.mean());
}

TEST(Merge, RunningStatsMatchesSequential)
{
    RunningStats a;
    RunningStats b;
    RunningStats reference;
    Rng rng(4);
    for (int i = 0; i < 2000; ++i) {
        const double x = rng.next_double() * 10.0 - 3.0;
        (i < 700 ? a : b).add(x);
        reference.add(x);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), reference.count());
    EXPECT_NEAR(a.mean(), reference.mean(), 1e-12);
    EXPECT_NEAR(a.variance(), reference.variance(), 1e-9);
}

TEST(Merge, LifetimeStatsSumsEveryCounter)
{
    LifetimeConfig config;
    config.distance = 5;
    config.p = 5e-3;
    config.cycles = 5000;
    LifetimeStats a = run_lifetime(config);
    config.seed = 2;
    const LifetimeStats b = run_lifetime(config);

    LifetimeStats merged = a;
    merged.merge(b);
    EXPECT_EQ(merged.cycles, a.cycles + b.cycles);
    EXPECT_EQ(merged.complex_cycles, a.complex_cycles + b.complex_cycles);
    EXPECT_EQ(merged.offchip_halves, a.offchip_halves + b.offchip_halves);
    EXPECT_EQ(merged.raw_weight.total(),
              a.raw_weight.total() + b.raw_weight.total());
    EXPECT_EQ(merged.total_halves(), a.total_halves() + b.total_halves());
}

TEST(ShardedLifetime, CycleCountsSumExactly)
{
    // The headline invariant: sharded runs account for every cycle.
    for (const int threads : {2, 4, 8}) {
        LifetimeConfig config;
        config.distance = 5;
        config.p = 5e-3;
        config.cycles = 20001;  // deliberately not divisible
        config.threads = threads;
        const LifetimeStats stats = run_lifetime(config);
        EXPECT_EQ(stats.cycles, config.cycles);
        EXPECT_EQ(stats.all_zero_cycles + stats.trivial_cycles +
                      stats.complex_cycles,
                  config.cycles);
        EXPECT_EQ(stats.total_halves(), 2 * config.cycles);
        EXPECT_EQ(stats.raw_weight.total(), config.cycles);
    }
}

TEST(ShardedLifetime, DeterministicForFixedThreadCount)
{
    LifetimeConfig config;
    config.distance = 7;
    config.p = 5e-3;
    config.cycles = 10000;
    config.threads = 4;
    const LifetimeStats a = run_lifetime(config);
    const LifetimeStats b = run_lifetime(config);
    EXPECT_EQ(a.all_zero_cycles, b.all_zero_cycles);
    EXPECT_EQ(a.trivial_cycles, b.trivial_cycles);
    EXPECT_EQ(a.complex_cycles, b.complex_cycles);
    EXPECT_EQ(a.clique_corrections, b.clique_corrections);
    EXPECT_EQ(a.raw_weight.counts(), b.raw_weight.counts());
}

TEST(ShardedLifetime, CoverageMatchesSingleThreadWithinTolerance)
{
    // Sharded and single-threaded runs sample the same distribution;
    // their coverage and off-chip fractions must agree statistically.
    LifetimeConfig config;
    config.distance = 9;
    config.p = 5e-3;
    config.cycles = 40000;
    const LifetimeStats single = run_lifetime(config);
    config.threads = 8;
    const LifetimeStats sharded = run_lifetime(config);
    EXPECT_NEAR(single.coverage(), sharded.coverage(), 0.01);
    EXPECT_NEAR(single.coverage_per_decode(),
                sharded.coverage_per_decode(), 0.01);
    EXPECT_NEAR(single.offchip_fraction(), sharded.offchip_fraction(),
                0.01);
    EXPECT_NEAR(single.raw_weight.mean(), sharded.raw_weight.mean(),
                0.1 * single.raw_weight.mean() + 0.05);
}

TEST(ShardedLifetime, SingleThreadReproducesLegacyRun)
{
    // threads == 1 must go through the legacy code path bit-for-bit:
    // two identical configs, one with the default and one explicit.
    LifetimeConfig config;
    config.distance = 5;
    config.p = 5e-3;
    config.cycles = 5000;
    config.mode = LifetimeMode::Pipeline;
    const LifetimeStats a = run_lifetime(config);
    config.threads = 1;
    const LifetimeStats b = run_lifetime(config);
    EXPECT_EQ(a.complex_cycles, b.complex_cycles);
    EXPECT_EQ(a.raw_weight.counts(), b.raw_weight.counts());
}

TEST(ShardedFleet, DemandHistogramTotalsExact)
{
    FleetConfig config;
    config.num_qubits = 1000;
    config.cycles = 30000;
    config.offchip_prob = 0.02;
    config.threads = 8;
    const CountHistogram demand = fleet_demand_histogram(config);
    EXPECT_EQ(demand.total(), config.cycles);
    EXPECT_NEAR(demand.mean(), 20.0, 1.0);
}

TEST(ShardedFleet, ExactFleetShardsSumCycles)
{
    ExactFleetConfig fleet;
    fleet.distance = 3;
    fleet.p = 5e-3;
    fleet.num_qubits = 10;
    fleet.cycles = 2001;
    fleet.seed = 11;
    fleet.threads = 4;
    for (const bool shared : {true, false}) {
        const FabricStats stats =
            run_fabric(exact_fleet_fabric(fleet, shared));
        EXPECT_EQ(stats.demand.total(), 2001u);
        EXPECT_EQ(stats.backlog.total(), 2001u);
    }
}

TEST(ShardedFleet, BandwidthRunAgreesAcrossThreadCounts)
{
    // The serial stall queue fed by block-parallel demand generation
    // must see the same demand *distribution* regardless of threads.
    FleetConfig config;
    config.num_qubits = 1000;
    config.cycles = 20000;
    config.offchip_prob = 0.02;
    const FleetRunResult single = run_fleet_with_bandwidth(config, 40);
    config.threads = 4;
    const FleetRunResult sharded = run_fleet_with_bandwidth(config, 40);
    EXPECT_EQ(single.work_cycles, config.cycles);
    EXPECT_EQ(sharded.work_cycles, config.cycles);
    EXPECT_LT(single.exec_time_increase, 0.05);
    EXPECT_LT(sharded.exec_time_increase, 0.05);
}

TEST(ShardedEngine, RunsArbitraryMergeableResults)
{
    // The engine is generic: any default-constructible result with a
    // merge() member works.
    struct Sum
    {
        uint64_t cycles = 0;
        uint64_t seeds = 0;
        void merge(const Sum &other)
        {
            cycles += other.cycles;
            seeds += other.seeds;
        }
    };
    const Sum total = run_sharded<Sum>(
        100001, 8, 9, [](const Shard &shard) {
            Sum s;
            s.cycles = shard.cycles;
            s.seeds = 1;
            return s;
        });
    EXPECT_EQ(total.cycles, 100001u);
    EXPECT_EQ(total.seeds, 8u);
}

} // namespace
} // namespace btwc
