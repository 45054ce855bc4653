/**
 * @file
 * Reproduces Fig. 9: a 1000-logical-qubit machine traced over 100
 * decode cycles under 50th- vs 99th-percentile off-chip bandwidth
 * provisioning.
 *
 * Paper shape: median provisioning stalls on the vast majority of
 * cycles (an accumulating decode backlog); 99th-percentile
 * provisioning stalls on at most a cycle or two.
 *
 * The binomial demand model is cross-checked against *real* demand: a
 * small fully simulated fleet whose escalations route through one
 * shared off-chip link (core/offchip_service.hpp, `--shared-link`
 * semantics), with the provisioning percentiles of both models on the
 * same axes. `--fleet-size` / `--exact_cycles` size that leg.
 */

#include <cstdio>
#include <string>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "sim/fleet.hpp"
#include "sim/lifetime.hpp"

int
main(int argc, char **argv)
{
    using namespace btwc;
    const Flags flags = flags_or_exit(argc, argv);
    JsonOutput json(flags, "fig09");
    const uint64_t seed =
        static_cast<uint64_t>(flags.get_int("seed", 1));
    const int distance = static_cast<int>(flags.get_int("distance", 11));
    const double p = flags.get_double("p", 1e-3);

    bench_header("Fig. 9: bandwidth provisioning trace",
                 "1000 logical qubits, 100 decode cycles, provisioned "
                 "at the 50th vs 99th percentile of per-cycle off-chip "
                 "demand.");

    // Measure the per-qubit off-chip probability, then the fleet
    // demand distribution.
    LifetimeConfig lconfig;
    lconfig.distance = distance;
    lconfig.p = p;
    lconfig.cycles = bench_cycles(flags, 20000, 1000000);
    lconfig.threads = threads_from_flags(flags);
    lconfig.seed = seed;
    const double q = run_lifetime(lconfig).offchip_fraction();
    std::printf("measured per-qubit off-chip probability q = %s "
                "(d=%d, p=%g)\n\n",
                Table::sci(q, 2).c_str(), distance, p);
    json.report().set("distance", distance);
    json.report().set("p", p);
    json.report().set("q", q);

    FleetConfig fleet;
    fleet.num_qubits = 1000;
    fleet.offchip_prob = q;
    fleet.seed = seed;
    fleet.cycles = 100000;
    const CountHistogram demand = fleet_demand_histogram(fleet);
    const uint64_t b50 = std::max<uint64_t>(1, demand.percentile(0.50));
    const uint64_t b99 = std::max<uint64_t>(1, demand.percentile(0.99));
    std::printf("bandwidth @50th percentile = %llu decodes/cycle\n"
                "bandwidth @99th percentile = %llu decodes/cycle\n\n",
                static_cast<unsigned long long>(b50),
                static_cast<unsigned long long>(b99));
    json.report().set("bandwidth_p50", b50);
    json.report().set("bandwidth_p99", b99);

    // Binomial vs real demand: the binomial model assumes per-qubit
    // independence with a single q; the exact fleet steps every
    // pipeline against one shared link and counts what actually
    // escalates. Both provisioned on the same percentile axis.
    const FabricStats real_demand = print_binomial_vs_real_demand(
        distance, p, q, fleet_link_from_flags(flags, 50),
        static_cast<uint64_t>(flags.get_int("exact_cycles", 4000)), seed,
        lconfig.threads);
    json.report().set("real_demand_mean", real_demand.demand.mean());
    json.report().set("real_demand_p99",
                      real_demand.demand.percentile(0.99));

    fleet.cycles = 100;
    struct TraceLeg
    {
        const char *label;
        const char *json_key;
        uint64_t bandwidth;
    };
    for (const TraceLeg &leg : {TraceLeg{"50th percentile", "trace_p50", b50},
                                TraceLeg{"99th percentile", "trace_p99", b99}}) {
        const uint64_t bandwidth = leg.bandwidth;
        const auto trace = fleet_trace(fleet, bandwidth);
        uint64_t stalls = 0;
        Table table({"cycle", "new", "carryover", "served", "stall"});
        for (size_t t = 0; t < trace.size(); ++t) {
            stalls += trace[t].stall ? 1 : 0;
            if (t % 10 == 0 || trace[t].stall) {
                table.add_row({std::to_string(t),
                               std::to_string(trace[t].fresh),
                               std::to_string(trace[t].carryover),
                               std::to_string(trace[t].served),
                               trace[t].stall ? "STALL" : ""});
            }
        }
        std::printf("-- provisioning at the %s (B = %llu) --\n",
                    leg.label,
                    static_cast<unsigned long long>(bandwidth));
        if (flags.get_bool("full_trace")) {
            table.print();
        }
        std::printf("stall cycles in the 100-cycle window: %llu\n\n",
                    static_cast<unsigned long long>(stalls));
        Report &trace_node = json.report().child(leg.json_key);
        trace_node.set("bandwidth", bandwidth);
        trace_node.set("stall_cycles", stalls);
        trace_node.add_table("trace", table);
    }
    std::printf("Paper check: ~90+ stalls at the 50th percentile, "
                "~0-2 at the 99th.\n");
    return json.finish();
}
