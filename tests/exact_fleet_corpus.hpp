#pragma once

/**
 * @file
 * Seeded corpus of the exact-fleet golden pin
 * (tests/golden/exact_fleet_stats.txt, checked by
 * tests/test_exact_fleet_stats.cpp). Each case is a `kind=exact-fleet`
 * scenario plus an optional per-tenant distance profile (which the
 * grammar cannot express); each golden line records the fleet-level
 * counters, hashes of the demand, queue-delay and batch histograms, the
 * backlog histogram hash on shared-link lines, and every tenant's
 * enqueued count.
 *
 * The golden file was generated by the exact-fleet harness that
 * `run_fabric` replaced (one lockstep loop per link mode). Two of its definitions
 * differ from the fabric's on purpose and stay out of the pin: a
 * private-link run never sampled the backlog, and the shared link
 * counted dropped deliveries and surge requests in `queue_delay`, so
 * the corpus has no `drop:` or `surge:` clause.
 */

#include <cinttypes>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.hpp"
#include "fabric/harness.hpp"
#include "golden_corpus.hpp"

namespace btwc {

struct ExactFleetCase
{
    std::string label;
    std::string spec;  ///< a kind=exact-fleet scenario
    bool shared;       ///< the spec's `shared` token
    /** Per-tenant code distances (empty = the spec's d for all). */
    std::vector<int> tenant_distances;
};

/**
 * Shared and per-tenant links, both off-chip policies, L in {0, 2} x
 * B in {0, 1}, a batch cap, a hot quarter, mixed distances {3, 5},
 * three shards, and (shared only) one outage/spike/dup/corrupt plan.
 */
inline std::vector<ExactFleetCase>
exact_fleet_corpus()
{
    std::vector<ExactFleetCase> corpus;
    uint64_t seed = 1;
    const auto add = [&](const std::string &label, bool shared,
                         const std::string &keys,
                         std::vector<int> distances = {}) {
        corpus.push_back(ExactFleetCase{
            label,
            "kind=exact-fleet,d=5,p=0.008,fleet=8,cycles=600,seed=" +
                std::to_string(seed++) + (shared ? ",shared" : "") + keys,
            shared, std::move(distances)});
    };
    for (const bool shared : {true, false}) {
        const std::string mode = shared ? "shared" : "private";
        for (const char *policy : {"oracle", "mwpm"}) {
            for (const int latency : {0, 2}) {
                for (const int bandwidth : {0, 1}) {
                    add(mode + "-" + policy + "-L" +
                            std::to_string(latency) + "-B" +
                            std::to_string(bandwidth),
                        shared,
                        std::string(",policy=") + policy +
                            ",latency=" + std::to_string(latency) +
                            ",bandwidth=" + std::to_string(bandwidth));
                }
            }
        }
        add(mode + "-batch2", shared,
            ",policy=mwpm,latency=2,bandwidth=1,batch=2");
        add(mode + "-hot", shared,
            ",policy=mwpm,latency=2,bandwidth=1,hot_fraction=0.25,"
            "hot_mult=4");
        add(mode + "-d35", shared, ",policy=mwpm,latency=1,bandwidth=1",
            {3, 5, 3, 5, 5, 3, 5, 3});
        add(mode + "-threads3", shared,
            ",policy=mwpm,latency=1,bandwidth=2,threads=3");
    }
    add("shared-faults", true,
        ",policy=mwpm,latency=2,bandwidth=1,"
        "faults=outage:150:20;spike:100:10:3;dup:0.05;corrupt:0.05");
    return corpus;
}

/** FNV-1a-64 over the (value, count) pairs of the nonzero bins. */
inline uint64_t
histogram_hash(const CountHistogram &histogram)
{
    uint64_t h = kFnvOffset;
    const std::vector<uint64_t> &counts = histogram.counts();
    for (size_t v = 0; v < counts.size(); ++v) {
        if (counts[v] != 0) {
            h = fnv1a(h, static_cast<int64_t>(v));
            h = fnv1a(h, static_cast<int64_t>(counts[v]));
        }
    }
    return h;
}

/** The golden line of one case's run. */
inline std::string
exact_fleet_line(const ExactFleetCase &c, const FabricStats &stats)
{
    char buf[512];
    std::snprintf(
        buf, sizeof buf,
        "%s demand=%016" PRIx64 " delay=%016" PRIx64 " batch=%016" PRIx64
        " enqueued=%" PRIu64 " served=%" PRIu64 " landed=%" PRIu64
        " suppressed=%" PRIu64 " pending=%" PRIu64 " stall=%" PRIu64
        " work=%" PRIu64 " max_backlog=%" PRIu64,
        c.label.c_str(), histogram_hash(stats.demand),
        histogram_hash(stats.queue_delay), histogram_hash(stats.batch_sizes),
        stats.enqueued, stats.served, stats.landed, stats.suppressed,
        stats.pending, stats.stall_cycles, stats.work_cycles,
        stats.max_backlog);
    std::string line = buf;
    if (c.shared) {
        std::snprintf(buf, sizeof buf, " backlog=%016" PRIx64,
                      histogram_hash(stats.backlog));
        line += buf;
    }
    line += " tenants=";
    for (size_t q = 0; q < stats.per_tenant.size(); ++q) {
        line += (q == 0 ? "" : ",") +
                std::to_string(stats.per_tenant[q].enqueued);
    }
    return line;
}

} // namespace btwc
