/**
 * @file
 * Reproduces Fig. 16: off-chip bandwidth reduction vs execution-time
 * increase for three (physical error rate, code distance) operating
 * points of a 1000-logical-qubit machine.
 *
 * Paper shape: provisioning at the mean demand (maximum reduction)
 * stalls forever; backing off modestly (e.g. accepting a 10% runtime
 * increase) still yields order-of-magnitude bandwidth reductions, with
 * the exact curve shape depending on (p, d).
 *
 * The off-chip link runs through the async decode service
 * (core/offchip_queue.hpp): `--offchip-latency N` adds N cycles of
 * decode round-trip latency (shifting the enqueue-to-landing delay
 * columns without changing the stall curve -- latency is pipelined,
 * only backlog stalls), and `--batch N` sets the slice size of the
 * link's batch accounting (the batch columns; no decode changes).
 *
 * Each operating point also cross-checks the binomial demand model
 * against *real* demand: a small fully simulated fleet contending for
 * one shared link (core/offchip_service.hpp), provisioned on the same
 * percentile axis, plus one narrow shared-link run at the real 99th
 * percentile reporting the backlog/delay/batch observables the
 * binomial model cannot express. `--fleet-size` / `--exact_cycles`
 * size that leg; `--real-demand=false` skips it.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "sim/fleet.hpp"
#include "sim/lifetime.hpp"

int
main(int argc, char **argv)
{
    using namespace btwc;
    const Flags flags = flags_or_exit(argc, argv);
    JsonOutput json(flags, "fig16");
    const uint64_t seed = static_cast<uint64_t>(flags.get_int("seed", 1));
    const int threads = threads_from_flags(flags);
    const uint64_t measure_cycles = bench_cycles(flags, 20000, 1000000);
    const uint64_t fleet_cycles = static_cast<uint64_t>(
        flags.get_int("fleet_cycles", 200000));
    const OffchipServiceFlags offchip = offchip_from_flags(flags);

    struct OperatingPoint
    {
        double p;
        int distance;
    };
    const std::vector<OperatingPoint> points = {
        {1e-3, 11}, {5e-4, 9}, {5e-3, 17}};

    bench_header("Fig. 16: bandwidth reduction vs execution stalling",
                 "1000 logical qubits; sweep the provisioned off-chip "
                 "bandwidth from the mean demand upward.");

    for (const OperatingPoint &point : points) {
        LifetimeConfig lconfig;
        lconfig.distance = point.distance;
        lconfig.p = point.p;
        lconfig.cycles = measure_cycles;
        lconfig.threads = threads;
        lconfig.seed = seed;
        const double q = run_lifetime(lconfig).offchip_fraction();

        FleetConfig fleet;
        fleet.num_qubits = 1000;
        fleet.offchip_prob = q;
        fleet.cycles = fleet_cycles;
        fleet.threads = threads;
        fleet.seed = seed;
        fleet.offchip_latency = offchip.latency;
        fleet.offchip_batch = offchip.batch;

        FleetConfig demand_config = fleet;
        demand_config.cycles = 100000;
        const CountHistogram demand = fleet_demand_histogram(demand_config);
        const uint64_t mean_b =
            std::max<uint64_t>(1, static_cast<uint64_t>(demand.mean()));

        std::printf("-- p=%g, d=%d: q=%s, mean demand=%.1f "
                    "decodes/cycle --\n",
                    point.p, point.distance, Table::sci(q, 2).c_str(),
                    demand.mean());
        Table table({"bandwidth", "reduction_x", "stall_cycles",
                     "exec_increase_%", "mean_qdelay", "p99_qdelay",
                     "mean_link_batch"});
        std::vector<uint64_t> sweep;
        for (const double percentile :
             {0.5, 0.9, 0.99, 0.999, 0.9999, 1.0}) {
            sweep.push_back(
                std::max<uint64_t>(1, demand.percentile(percentile)));
        }
        sweep.insert(sweep.begin(), mean_b);
        uint64_t last = 0;
        for (const uint64_t bandwidth : sweep) {
            if (bandwidth == last) {
                continue;
            }
            last = bandwidth;
            const FleetRunResult run =
                run_fleet_with_bandwidth(fleet, bandwidth);
            const bool diverged = run.work_cycles < fleet.cycles;
            table.add_row(
                {std::to_string(bandwidth),
                 Table::num(run.bandwidth_reduction, 1),
                 std::to_string(run.stall_cycles),
                 diverged ? "diverges (infinite stalling)"
                          : Table::num(100.0 * run.exec_time_increase, 2),
                 Table::num(run.mean_queue_delay, 2),
                 std::to_string(run.p99_queue_delay),
                 Table::num(run.mean_batch, 1)});
        }
        if (flags.get_bool("csv")) {
            std::fputs(table.to_csv().c_str(), stdout);
        } else {
            table.print();
        }
        std::printf("\n");
        Report &point_node = json.report().child(
            "p" + Table::sci(point.p, 0) + "_d" +
            std::to_string(point.distance));
        point_node.set("p", point.p);
        point_node.set("distance", point.distance);
        point_node.set("q", q);
        point_node.set("mean_demand", demand.mean());
        point_node.add_table("sweep", table);

        if (flags.get_bool("real-demand", true)) {
            const FleetLinkFlags link = fleet_link_from_flags(flags, 32);
            ExactFleetConfig exact;
            exact.distance = point.distance;
            exact.p = point.p;
            exact.num_qubits = link.fleet_size;
            exact.cycles = static_cast<uint64_t>(
                flags.get_int("exact_cycles", 3000));
            exact.seed = seed;
            exact.threads = threads;
            exact.offchip_latency = offchip.latency;
            exact.offchip_batch = offchip.batch;
            const FabricStats real = print_binomial_vs_real_demand(
                point.distance, point.p, q, link, exact.cycles, seed,
                threads, offchip.latency, offchip.batch);

            // One narrow shared-link run at the real 99th percentile:
            // the contention observables of the actual machine model.
            exact.offchip_bandwidth =
                std::max<uint64_t>(1, real.demand.percentile(0.99));
            const FabricStats narrow =
                run_fabric(exact_fleet_fabric(exact, true));
            std::printf("shared link @ real p99 (B = %llu): "
                        "stall_cycles %llu, exec_increase %.2f%%, "
                        "mean_backlog %.2f, p99_qdelay %llu, "
                        "mean_link_batch %.1f, suppressed %llu\n\n",
                        static_cast<unsigned long long>(
                            exact.offchip_bandwidth),
                        static_cast<unsigned long long>(
                            narrow.stall_cycles),
                        100.0 * narrow.exec_time_increase(),
                        narrow.backlog.mean(),
                        static_cast<unsigned long long>(
                            narrow.queue_delay.percentile(0.99)),
                        narrow.batch_sizes.mean(),
                        static_cast<unsigned long long>(
                            narrow.suppressed));
            Report &shared_node = point_node.child("shared_link_p99");
            shared_node.set("bandwidth", exact.offchip_bandwidth);
            shared_node.set("stall_cycles", narrow.stall_cycles);
            shared_node.set("exec_time_increase",
                            narrow.exec_time_increase());
            shared_node.set("mean_backlog", narrow.backlog.mean());
            shared_node.set("p99_queue_delay",
                            narrow.queue_delay.percentile(0.99));
            shared_node.set("mean_link_batch", narrow.batch_sizes.mean());
            shared_node.set("suppressed", narrow.suppressed);
            shared_node.set("real_demand_mean", real.demand.mean());
        }
    }
    std::printf("Paper check: mean provisioning diverges; high "
                "percentiles give large reductions at <=10%% runtime "
                "increase (paper quotes 8.5-150x depending on p/d).\n");
    return json.finish();
}
