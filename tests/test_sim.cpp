/**
 * @file
 * Integration tests for the Monte-Carlo harnesses: lifetime
 * classification, the memory experiment (logical error rates), and
 * the fleet/bandwidth simulation.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "sim/fleet.hpp"
#include "sim/lifetime.hpp"
#include "sim/memory.hpp"

namespace btwc {
namespace {

TEST(Lifetime, FractionsPartitionCycles)
{
    LifetimeConfig config;
    config.distance = 5;
    config.p = 5e-3;
    config.cycles = 20000;
    const LifetimeStats stats = run_lifetime(config);
    EXPECT_EQ(stats.all_zero_cycles + stats.trivial_cycles +
                  stats.complex_cycles,
              stats.cycles);
    EXPECT_GT(stats.coverage(), 0.5);
    EXPECT_LE(stats.coverage(), 1.0);
    EXPECT_EQ(stats.raw_weight.total(), stats.cycles);
}

TEST(Lifetime, CoverageDropsWithNoise)
{
    LifetimeConfig low;
    low.distance = 7;
    low.p = 1e-3;
    low.cycles = 20000;
    LifetimeConfig high = low;
    high.p = 1e-2;
    EXPECT_GT(run_lifetime(low).coverage(),
              run_lifetime(high).coverage());
}

TEST(Lifetime, CoverageDropsWithDistanceAtFixedNoise)
{
    LifetimeConfig small;
    small.distance = 5;
    small.p = 5e-3;
    small.cycles = 20000;
    LifetimeConfig large = small;
    large.distance = 13;
    EXPECT_GT(run_lifetime(small).coverage(),
              run_lifetime(large).coverage());
}

TEST(Lifetime, OffchipPoliciesAgree)
{
    // Pipeline mode: the Oracle substitution for the off-chip decoder
    // must not shift coverage.
    LifetimeConfig config;
    config.distance = 5;
    config.p = 5e-3;
    config.cycles = 20000;
    config.mode = LifetimeMode::Pipeline;
    const double oracle = run_lifetime(config).coverage();
    config.offchip = OffchipPolicy::Mwpm;
    config.seed = 2;
    const double mwpm = run_lifetime(config).coverage();
    EXPECT_NEAR(oracle, mwpm, 0.01);
}

TEST(Lifetime, SignatureAndPipelineModesAgreeAtLowNoise)
{
    // With sparse errors, cross-cycle interactions are negligible and
    // the two methodologies must converge.
    LifetimeConfig config;
    config.distance = 5;
    config.p = 1e-3;
    config.cycles = 30000;
    const double signature = run_lifetime(config).coverage();
    config.mode = LifetimeMode::Pipeline;
    const double pipeline = run_lifetime(config).coverage();
    EXPECT_NEAR(signature, pipeline, 0.005);
}

TEST(Lifetime, HalfCountsPartitionDecodes)
{
    LifetimeConfig config;
    config.distance = 7;
    config.p = 5e-3;
    config.cycles = 10000;
    const LifetimeStats stats = run_lifetime(config);
    EXPECT_EQ(stats.total_halves(), 2 * stats.cycles);
    EXPECT_GE(stats.coverage_per_decode(), stats.coverage());
    EXPECT_GT(stats.coverage_per_decode(), 0.0);
    EXPECT_LE(stats.coverage_per_decode(), 1.0);
}

TEST(RequiredDistance, MatchesPaperPairingsApproximately)
{
    // Fig. 4 pairs (p, target) -> d: exact values are model-dependent;
    // we require the right ordering and ballpark.
    const int d1 = required_distance(1e-3, 1e-5);
    const int d2 = required_distance(1e-3, 1e-12);
    const int d3 = required_distance(5e-4, 1e-5);
    const int d4 = required_distance(5e-4, 1e-12);
    EXPECT_GE(d1, 5);
    EXPECT_LE(d1, 9);
    EXPECT_GE(d2, 17);
    EXPECT_LE(d2, 25);
    EXPECT_LT(d3, d1 + 2);
    EXPECT_LT(d4, d2);
    EXPECT_GT(required_distance(5e-3, 1e-12),
              required_distance(5e-3, 1e-5));
}

TEST(Memory, LowerNoiseLowersLer)
{
    MemoryConfig low;
    low.distance = 5;
    low.p = 3e-3;
    low.max_trials = 4000;
    low.target_failures = 1000000;  // fixed-trial comparison
    MemoryConfig high = low;
    high.p = 2e-2;
    const auto low_result =
        run_memory_experiment(low, DecoderArm::MwpmOnly);
    const auto high_result =
        run_memory_experiment(high, DecoderArm::MwpmOnly);
    EXPECT_LT(low_result.ler(), high_result.ler());
}

TEST(Memory, DistanceSuppressesLer)
{
    MemoryConfig d3;
    d3.distance = 3;
    d3.p = 5e-3;
    d3.max_trials = 6000;
    d3.target_failures = 1000000;
    MemoryConfig d7 = d3;
    d7.distance = 7;
    const auto r3 = run_memory_experiment(d3, DecoderArm::MwpmOnly);
    const auto r7 = run_memory_experiment(d7, DecoderArm::MwpmOnly);
    EXPECT_GT(r3.failures, 0u);
    EXPECT_LT(r7.ler(), r3.ler());

    // Seeded MWPM-only sweeps over d = 3, 5, 7 on each side of the
    // ~3% phenomenological threshold: the logical error rate falls
    // with distance below it and rises above it.
    auto failures = [](int distance, double p, uint64_t trials) {
        MemoryConfig config;
        config.distance = distance;
        config.p = p;
        config.max_trials = trials;
        config.target_failures = 1000000;
        config.seed = 11;
        const MemoryResult r =
            run_memory_experiment(config, DecoderArm::MwpmOnly);
        EXPECT_EQ(r.trials, trials);
        EXPECT_EQ(r.unclear_syndromes, 0u);
        return r.failures;
    };
    const uint64_t below3 = failures(3, 1e-2, 10000);
    const uint64_t below5 = failures(5, 1e-2, 10000);
    const uint64_t below7 = failures(7, 1e-2, 10000);
    EXPECT_GT(below3, below5);
    EXPECT_GT(below5, below7);
    EXPECT_GT(below7, 0u);
    const uint64_t above3 = failures(3, 5e-2, 2000);
    const uint64_t above5 = failures(5, 5e-2, 2000);
    const uint64_t above7 = failures(7, 5e-2, 2000);
    EXPECT_LT(above3, above5);
    EXPECT_LT(above5, above7);
}

TEST(Memory, WeightedMatchingHelpsUnderAsymmetricNoise)
{
    // With measurement flips twice as likely as data flips, unit
    // weights overprice time edges; log-likelihood weights (Higgott et
    // al.) price each edge by its channel. Both arms see the same
    // seeded noise, so the comparison is paired: 440 vs 561 failures.
    MemoryConfig config;
    config.distance = 5;
    config.p = 2e-2;
    config.p_meas = 0.04;
    config.max_trials = 10000;
    config.target_failures = 1000000;
    config.seed = 3;
    const MemoryResult unit =
        run_memory_experiment(config, DecoderArm::MwpmOnly);
    config.weighted_matching = true;
    const MemoryResult weighted =
        run_memory_experiment(config, DecoderArm::MwpmOnly);
    EXPECT_EQ(unit.trials, 10000u);
    EXPECT_EQ(weighted.trials, 10000u);
    EXPECT_EQ(unit.unclear_syndromes, 0u);
    EXPECT_EQ(weighted.unclear_syndromes, 0u);
    EXPECT_LT(weighted.failures * 10, unit.failures * 9)
        << "weighted " << weighted.failures << " unit " << unit.failures;
}

TEST(Memory, CliqueArmTracksBaseline)
{
    // Fig. 14's headline: Clique+Baseline is nearly indistinguishable
    // from the baseline at small distances.
    MemoryConfig config;
    config.distance = 5;
    config.p = 8e-3;
    config.max_trials = 6000;
    config.target_failures = 1000000;
    const auto base = run_memory_experiment(config, DecoderArm::MwpmOnly);
    const auto hybrid =
        run_memory_experiment(config, DecoderArm::CliqueMwpm);
    ASSERT_GT(base.failures, 10u);
    const auto [base_lo, base_hi] = base.ler_interval();
    const auto [hyb_lo, hyb_hi] = hybrid.ler_interval();
    // Overlapping or near-overlapping confidence intervals.
    EXPECT_LT(hyb_lo, base_hi * 2.5);
    EXPECT_LT(base_lo, hyb_hi * 2.5);
    // And the hybrid really did keep most rounds on-chip.
    EXPECT_LT(hybrid.offchip_rounds * 2, hybrid.total_rounds);
}

TEST(Memory, UnionFindArmWorks)
{
    MemoryConfig config;
    config.distance = 5;
    config.p = 8e-3;
    config.max_trials = 3000;
    config.target_failures = 1000000;
    const auto uf =
        run_memory_experiment(config, DecoderArm::UnionFindOnly);
    const auto base = run_memory_experiment(config, DecoderArm::MwpmOnly);
    EXPECT_GT(uf.trials, 0u);
    // UF should be within a modest factor of MWPM.
    EXPECT_LT(uf.ler(), base.ler() * 5 + 0.02);
}

TEST(Memory, SyndromeClearInvariantIsCountedNotAsserted)
{
    // The final matching pass closes every detection-event chain, so
    // the perfect-round syndrome must always come back clear -- and
    // since PR 2 that invariant is a *counted runtime check* in
    // MemoryResult (visible in -DNDEBUG Release builds, which strip
    // the old assert), not a debug-only assert.
    MemoryConfig config;
    config.distance = 5;
    config.p = 8e-3;
    config.max_trials = 3000;
    config.target_failures = 1000000;
    for (const DecoderArm arm :
         {DecoderArm::MwpmOnly, DecoderArm::CliqueMwpm,
          DecoderArm::UnionFindOnly}) {
        const auto result = run_memory_experiment(config, arm);
        EXPECT_EQ(result.unclear_syndromes, 0u)
            << decoder_arm_name(arm);
        EXPECT_GT(result.trials, 0u);
    }
}

TEST(Memory, EarlyStopOnTargetFailures)
{
    MemoryConfig config;
    config.distance = 3;
    config.p = 3e-2;
    config.max_trials = 100000;
    config.target_failures = 20;
    const auto result = run_memory_experiment(config, DecoderArm::MwpmOnly);
    EXPECT_GE(result.failures, 20u);
    EXPECT_LT(result.trials, config.max_trials);
}

TEST(Memory, ShardedRunIsDeterministicAndMergesExactly)
{
    MemoryConfig config;
    config.distance = 3;
    config.p = 2e-2;
    config.max_trials = 2000;
    config.target_failures = 2000;  // fixed-trial comparison
    config.threads = 3;
    const MemoryResult a =
        run_memory_experiment(config, DecoderArm::CliqueMwpm);
    const MemoryResult b =
        run_memory_experiment(config, DecoderArm::CliqueMwpm);
    // Deterministic for a fixed (trials, threads, seed) triple.
    EXPECT_EQ(a.trials, b.trials);
    EXPECT_EQ(a.failures, b.failures);
    EXPECT_EQ(a.offchip_rounds, b.offchip_rounds);
    EXPECT_EQ(a.total_rounds, b.total_rounds);
    // Shard trial budgets sum to the cap exactly (no early stop here).
    EXPECT_EQ(a.trials, config.max_trials);
    EXPECT_EQ(a.total_rounds,
              config.max_trials * static_cast<uint64_t>(config.distance));
    EXPECT_EQ(a.unclear_syndromes, 0u);
    // A statistically equivalent (not bit-identical) sample vs serial.
    MemoryConfig serial = config;
    serial.threads = 1;
    const MemoryResult s =
        run_memory_experiment(serial, DecoderArm::CliqueMwpm);
    EXPECT_EQ(s.trials, config.max_trials);
    EXPECT_NEAR(static_cast<double>(a.failures),
                static_cast<double>(s.failures),
                5.0 * std::sqrt(static_cast<double>(s.failures) + 1.0));
}

TEST(Memory, CrossShardEarlyStopApproximatesTarget)
{
    MemoryConfig config;
    config.distance = 3;
    config.p = 3e-2;
    config.max_trials = 100000;
    config.target_failures = 20;
    config.threads = 4;
    const auto result = run_memory_experiment(config, DecoderArm::MwpmOnly);
    // Each shard stops at ceil(target / shards) failures, so the
    // merged run lands in [target, target + shards - 1] when no shard
    // exhausts its trial budget first.
    EXPECT_GE(result.failures, config.target_failures);
    EXPECT_LE(result.failures, config.target_failures + 3);
    EXPECT_LT(result.trials, config.max_trials);
}

TEST(Memory, SingleThreadMatchesDefaultThreadsField)
{
    // threads = 1 (the struct default) is the historical serial loop:
    // two configs differing only in an explicitly-spelled threads = 1
    // must agree bit-for-bit.
    MemoryConfig config;
    config.distance = 3;
    config.p = 2e-2;
    config.max_trials = 500;
    config.target_failures = 10;
    MemoryConfig spelled = config;
    spelled.threads = 1;
    const MemoryResult a =
        run_memory_experiment(config, DecoderArm::CliqueMwpm);
    const MemoryResult b =
        run_memory_experiment(spelled, DecoderArm::CliqueMwpm);
    EXPECT_EQ(a.trials, b.trials);
    EXPECT_EQ(a.failures, b.failures);
    EXPECT_EQ(a.offchip_rounds, b.offchip_rounds);
}

TEST(Fleet, BinomialDemandMatchesMean)
{
    FleetConfig config;
    config.num_qubits = 1000;
    config.cycles = 20000;
    config.offchip_prob = 0.05;
    const CountHistogram demand = fleet_demand_histogram(config);
    EXPECT_EQ(demand.total(), config.cycles);
    EXPECT_NEAR(demand.mean(), 50.0, 1.0);
    EXPECT_GT(demand.percentile(0.99), demand.percentile(0.50));
}

TEST(Fleet, ExactTraceAgreesWithBinomialModel)
{
    // Small exact fleet: per-qubit full pipelines. Its demand mean
    // must match Binomial(n, q) with q from a lifetime run.
    const int distance = 3;
    const double p = 5e-3;
    LifetimeConfig lconfig;
    lconfig.distance = distance;
    lconfig.p = p;
    lconfig.cycles = 40000;
    // Pipeline mode: apples-to-apples with the exact fleet, which runs
    // full closed-loop BtwcSystem instances per qubit.
    lconfig.mode = LifetimeMode::Pipeline;
    const double q = run_lifetime(lconfig).offchip_fraction();

    const int qubits = 20;
    const uint64_t cycles = 5000;
    const CountHistogram exact =
        fleet_demand_exact(distance, p, qubits, cycles, 11);

    const double expected_mean = qubits * q;
    EXPECT_NEAR(exact.mean(), expected_mean,
                0.35 * expected_mean + 0.05);
}

TEST(Fleet, FullBandwidthNeverStalls)
{
    FleetConfig config;
    config.num_qubits = 100;
    config.cycles = 5000;
    config.offchip_prob = 0.1;
    const auto result = run_fleet_with_bandwidth(config, 100);
    EXPECT_EQ(result.stall_cycles, 0u);
    EXPECT_DOUBLE_EQ(result.bandwidth_reduction, 1.0);
}

TEST(Fleet, StallsDecreaseWithBandwidth)
{
    FleetConfig config;
    config.num_qubits = 1000;
    config.cycles = 20000;
    config.offchip_prob = 0.02;  // mean demand 20
    const auto tight = run_fleet_with_bandwidth(config, 24);
    const auto loose = run_fleet_with_bandwidth(config, 40);
    EXPECT_GT(tight.stall_cycles, loose.stall_cycles);
    EXPECT_LT(loose.exec_time_increase, 0.05);
}

TEST(Fleet, MeanProvisioningIsHopeless)
{
    // §5.1: provisioning at the average leads to an accumulating
    // backlog (massive execution-time blowup).
    FleetConfig config;
    config.num_qubits = 1000;
    config.cycles = 20000;
    config.offchip_prob = 0.05;  // mean demand 50
    const auto result = run_fleet_with_bandwidth(config, 50);
    EXPECT_GT(result.exec_time_increase, 0.5);
}

TEST(Fleet, TraceMarksStallsAndCarryover)
{
    FleetConfig config;
    config.num_qubits = 1000;
    config.cycles = 100;
    config.offchip_prob = 0.05;
    const auto trace = fleet_trace(config, 55);
    ASSERT_EQ(trace.size(), 100u);
    bool saw_stall = false;
    bool saw_carryover = false;
    for (const TraceCycle &cycle : trace) {
        saw_stall |= cycle.stall;
        saw_carryover |= cycle.carryover > 0;
        EXPECT_LE(cycle.served, 55u);
    }
    EXPECT_TRUE(saw_stall);
    EXPECT_TRUE(saw_carryover);
}

} // namespace
} // namespace btwc
