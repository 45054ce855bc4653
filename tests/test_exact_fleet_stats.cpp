/**
 * @file
 * Golden pin of the exact fleet on the fabric harness.
 * `tests/golden/exact_fleet_stats.txt` holds one line per case of
 * `exact_fleet_corpus()` (tests/exact_fleet_corpus.hpp), generated by
 * the lockstep exact-fleet harness before `kind=exact-fleet` moved onto
 * `run_fabric`. Each case runs here exactly as `run_scenario` runs it
 * (`ScenarioSpec::to_fabric_config`: one FIFO link when `shared`, one
 * link per tenant otherwise, no probes), so any drift in demand,
 * delays, batches, backlog or per-tenant escalations fails here.
 *
 * The file also pins the two definitions the fabric changed: on
 * `fleet_shared_fifo_faults`, `queue_delay` counts only delivered
 * corrections, and on `fleet_private_links` the backlog is sampled
 * once per cycle (summed over the per-tenant links).
 */

#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <vector>

#include "api/run.hpp"
#include "exact_fleet_corpus.hpp"
#include "fabric/harness.hpp"

#ifndef BTWC_GOLDEN_DIR
#error "BTWC_GOLDEN_DIR must name the tests/golden directory"
#endif

namespace btwc {
namespace {

/** The fabric config `run_scenario` builds for a case. */
FabricFleetConfig
case_config(const ExactFleetCase &c)
{
    FabricFleetConfig config =
        ScenarioSpec::parse(c.spec).to_fabric_config();
    config.fleet.tenant_distances = c.tenant_distances;
    return config;
}

TEST(ExactFleetGolden, RunFabricMatchesCommittedStats)
{
    const std::string path =
        std::string(BTWC_GOLDEN_DIR) + "/exact_fleet_stats.txt";
    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << path;
    std::vector<std::string> golden;
    for (std::string line; std::getline(in, line);) {
        if (!line.empty() && line[0] != '#') {
            golden.push_back(line);
        }
    }
    const std::vector<ExactFleetCase> corpus = exact_fleet_corpus();
    ASSERT_EQ(golden.size(), corpus.size());
    for (size_t i = 0; i < corpus.size(); ++i) {
        const FabricFleetConfig config = case_config(corpus[i]);
        EXPECT_EQ(config.topology.links,
                  corpus[i].shared ? 1 : config.fleet.num_qubits);
        EXPECT_EQ(config.probe_interval, 0u);
        EXPECT_EQ(exact_fleet_line(corpus[i], run_fabric(config)),
                  golden[i]);
    }
}

TEST(ExactFleetGolden, QueueDelayCountsDeliveredCorrectionsOnly)
{
    // fleet_shared_fifo_faults.json's spec: 1,592 requests landed on
    // the link; 15 of them were dropped on delivery and 900 were surge
    // ballast that nobody waits on, so 677 corrections were delivered
    // and each carries one queue_delay sample.
    const ScenarioSpec spec = ScenarioSpec::parse(
        "kind=exact-fleet,p=0.006,latency=2,bandwidth=1,shared=true,"
        "faults=outage:400:40;drop:0.03;surge:300:50:2,fleet=12,"
        "cycles=3000");
    const FabricStats stats = run_fabric(spec.to_fabric_config());
    EXPECT_EQ(stats.landed, 1592u);
    EXPECT_EQ(stats.faults.dropped, 15u);
    EXPECT_EQ(stats.faults.surge_landed, 900u);
    EXPECT_EQ(stats.queue_delay.total(), 677u);
    EXPECT_EQ(stats.queue_delay.total(),
              stats.landed - stats.faults.dropped -
                  stats.faults.surge_landed);
    const Report report = run_scenario(spec);
    double mean = 0.0;
    uint64_t p99 = 0;
    uint64_t max = 0;
    ASSERT_TRUE(report.lookup_double("metrics.queue_delay.mean", &mean));
    ASSERT_TRUE(report.lookup_uint("metrics.queue_delay.p99", &p99));
    ASSERT_TRUE(report.lookup_uint("metrics.queue_delay.max", &max));
    EXPECT_EQ(mean, stats.queue_delay.mean());
    EXPECT_EQ(p99, stats.queue_delay.percentile(0.99));
    EXPECT_EQ(max, stats.queue_delay.max_value());
}

TEST(ExactFleetGolden, PrivateLinksSampleTheSummedBacklogEveryCycle)
{
    // fleet_private_links.json's spec: eight per-tenant links. The
    // backlog histogram gets one sample per cycle, the sum over the
    // links, and backlog_mean reports its mean (nonzero here: one link
    // ends a cycle oversubscribed now and then).
    const ScenarioSpec spec = ScenarioSpec::parse(
        "kind=exact-fleet,p=0.006,policy=mwpm,latency=1,bandwidth=1,"
        "fleet=8,cycles=3000");
    const FabricStats stats = run_fabric(spec.to_fabric_config());
    EXPECT_EQ(stats.backlog.total(), 3000u);
    EXPECT_GT(stats.backlog.mean(), 0.0);
    double backlog_mean = -1.0;
    ASSERT_TRUE(run_scenario(spec).lookup_double("metrics.backlog_mean",
                                                 &backlog_mean));
    EXPECT_EQ(backlog_mean, stats.backlog.mean());
}

} // namespace
} // namespace btwc
