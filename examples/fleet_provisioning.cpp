/**
 * @file
 * Machine-sizing scenario: provision the fridge-to-room-temperature
 * decode link of a 1000-logical-qubit machine.
 *
 * Measures the per-qubit off-chip decode probability with the Clique
 * predecoder in place, prints the demand distribution, and sweeps
 * provisioning percentiles to find the smallest link that keeps the
 * execution-time increase under a user-chosen budget (§5 / Fig. 16).
 *
 *     ./fleet_provisioning [--distance 11] [--p 0.001] [--qubits 1000]
 *                          [--budget 0.10]
 *
 * Scenario knobs:
 *   --hot-fraction F --hot-mult M   heterogeneous fleet: fraction F of
 *       the qubits escalate M times more often (hot spots / defective
 *       patches); the demand model turns Poisson-binomial and the
 *       provisioning sweep runs against it.
 *   --shared-link [--fleet-size N] [--exact_cycles C]   real-pipeline
 *       fleet: N fully simulated qubits route every escalation through
 *       one shared off-chip service (core/offchip_service.hpp),
 *       provisioned at the percentiles of the *measured* demand, with
 *       the backlog/delay/batch contention observables the binomial
 *       model cannot express.
 */

#include <cstdio>

#include "api/json_output.hpp"
#include "api/run.hpp"
#include "common/flags.hpp"
#include "common/table.hpp"
#include "fabric/harness.hpp"
#include "sim/fleet.hpp"
#include "sim/lifetime.hpp"

int
main(int argc, char **argv)
{
    using namespace btwc;
    const Flags flags = flags_or_exit(argc, argv);
    JsonOutput json(flags, "fleet_provisioning");
    const int distance = static_cast<int>(flags.get_int("distance", 11));
    const double p = flags.get_double("p", 1e-3);
    const int qubits = static_cast<int>(flags.get_int("qubits", 1000));
    const double budget = flags.get_double("budget", 0.10);

    LifetimeConfig lconfig;
    lconfig.distance = distance;
    lconfig.p = p;
    lconfig.threads = threads_from_flags(flags);
    lconfig.cycles =
        static_cast<uint64_t>(flags.get_int("cycles", 30000));
    const double q = run_lifetime(lconfig).offchip_fraction();
    std::printf("machine: %d logical qubits, d=%d, p=%g\n", qubits,
                distance, p);
    std::printf("Clique leaves q=%s of decodes per qubit-cycle for the "
                "off-chip decoder\n\n",
                Table::sci(q, 2).c_str());

    FleetConfig fleet;
    fleet.num_qubits = qubits;
    fleet.offchip_prob = q;
    fleet.threads = threads_from_flags(flags);
    fleet.cycles = 100000;
    const CountHistogram demand = fleet_demand_histogram(fleet);
    std::printf("off-chip demand distribution (decodes/cycle): mean "
                "%.2f, p50 %llu, p99 %llu, p99.99 %llu, max %llu\n\n",
                demand.mean(),
                static_cast<unsigned long long>(demand.percentile(0.5)),
                static_cast<unsigned long long>(demand.percentile(0.99)),
                static_cast<unsigned long long>(
                    demand.percentile(0.9999)),
                static_cast<unsigned long long>(demand.max_value()));

    // Heterogeneous fleet: hot spots escalate more often, the demand
    // turns Poisson-binomial, and the provisioning percentiles shift
    // -- the rest of the sweep runs against the hot profile.
    CountHistogram sweep_demand = demand;
    const double hot_fraction = flags.get_double("hot-fraction", 0.0);
    if (hot_fraction > 0.0) {
        const double hot_mult = flags.get_double("hot-mult", 10.0);
        fleet.qubit_probs = hotspot_probs(qubits, q, hot_fraction, hot_mult);
        sweep_demand = fleet_demand_histogram(fleet);
        std::printf("hot-spot profile (%.0f%% of qubits at %.0fx q): "
                    "mean %.2f, p50 %llu, p99 %llu, p99.99 %llu -- "
                    "provisioning sweep uses this profile\n\n",
                    100.0 * hot_fraction, hot_mult, sweep_demand.mean(),
                    static_cast<unsigned long long>(
                        sweep_demand.percentile(0.5)),
                    static_cast<unsigned long long>(
                        sweep_demand.percentile(0.99)),
                    static_cast<unsigned long long>(
                        sweep_demand.percentile(0.9999)));
    }

    fleet.cycles = 200000;
    Table table({"percentile", "bandwidth", "reduction_x",
                 "exec_increase_%", "within_budget"});
    uint64_t chosen = 0;
    double chosen_reduction = 0.0;
    for (const double percentile : {0.5, 0.9, 0.99, 0.999, 0.9999}) {
        const uint64_t bandwidth =
            std::max<uint64_t>(1, sweep_demand.percentile(percentile));
        const FleetRunResult run =
            run_fleet_with_bandwidth(fleet, bandwidth);
        const bool diverged = run.work_cycles < fleet.cycles;
        const bool ok = !diverged && run.exec_time_increase <= budget;
        if (ok && chosen == 0) {
            chosen = bandwidth;
            chosen_reduction = run.bandwidth_reduction;
        }
        table.add_row({Table::num(100.0 * percentile, 2),
                       std::to_string(bandwidth),
                       Table::num(run.bandwidth_reduction, 1),
                       diverged ? "diverges"
                                : Table::num(
                                      100.0 * run.exec_time_increase, 2),
                       ok ? "yes" : "no"});
    }
    table.print();
    json.report().set("distance", distance);
    json.report().set("p", p);
    json.report().set("qubits", qubits);
    json.report().set("q", q);
    json.report().set("budget", budget);
    json.report().set("chosen_bandwidth", chosen);
    json.report().set("chosen_reduction", chosen_reduction);
    json.add_table("provisioning", table);

    if (chosen) {
        std::printf("\n=> provision %llu decodes/cycle: %.0fx less "
                    "off-chip bandwidth than shipping every syndrome, "
                    "within the %.0f%% runtime budget.\n",
                    static_cast<unsigned long long>(chosen),
                    chosen_reduction, 100.0 * budget);
    } else {
        std::printf("\n=> no swept percentile met the %.0f%% budget; "
                    "raise the budget or the provisioning.\n",
                    100.0 * budget);
    }

    // Real-pipeline fleet on one shared link: every qubit is a full
    // BtwcSystem and every escalation contends for the same service.
    // Demand is measured (not binomial), and narrowing the link shows
    // the contention observables -- backlog, queueing delay, mixed-
    // owner served batches, reconciliation-suppressed escalations.
    const FleetLinkFlags link = fleet_link_from_flags(flags, 24);
    if (link.shared_link) {
        const OffchipServiceFlags offchip = offchip_from_flags(flags);
        ExactFleetConfig exact;
        exact.distance = distance;
        exact.p = p;
        exact.num_qubits = link.fleet_size;
        exact.cycles = static_cast<uint64_t>(
            flags.get_int("exact_cycles", 5000));
        exact.threads = threads_from_flags(flags);
        exact.offchip_latency = offchip.latency;
        exact.offchip_batch = offchip.batch;
        const FabricStats real = run_fabric(exact_fleet_fabric(exact, true));
        std::printf("\n-- shared off-chip link, %d fully simulated "
                    "qubits --\n",
                    link.fleet_size);
        std::printf("real demand (decodes/cycle): mean %.2f, p50 %llu, "
                    "p99 %llu (binomial would predict mean %.2f)\n",
                    real.demand.mean(),
                    static_cast<unsigned long long>(
                        real.demand.percentile(0.5)),
                    static_cast<unsigned long long>(
                        real.demand.percentile(0.99)),
                    q * link.fleet_size);

        Table shared({"percentile", "bandwidth", "stall_cycles",
                      "exec_increase_%", "mean_backlog", "p99_qdelay",
                      "mean_link_batch", "suppressed"});
        for (const double percentile : {0.5, 0.9, 0.99}) {
            exact.offchip_bandwidth = std::max<uint64_t>(
                1, real.demand.percentile(percentile));
            const FabricStats run =
                run_fabric(exact_fleet_fabric(exact, true));
            shared.add_row(
                {Table::num(100.0 * percentile, 1),
                 std::to_string(exact.offchip_bandwidth),
                 std::to_string(run.stall_cycles),
                 Table::num(100.0 * run.exec_time_increase(), 2),
                 Table::num(run.backlog.mean(), 2),
                 std::to_string(run.queue_delay.percentile(0.99)),
                 Table::num(run.batch_sizes.mean(), 1),
                 std::to_string(run.suppressed)});
        }
        shared.print();
        Report &shared_node = json.report().child("shared_link");
        shared_node.set("fleet_size", link.fleet_size);
        shared_node.child("real") = exact_fleet_metrics_report(real);
        shared_node.add_table("percentile_sweep", shared);
    }
    return json.finish();
}
