#pragma once

#include <algorithm>
#include <cstdio>
#include <string>

#include "api/json_output.hpp"
#include "common/flags.hpp"
#include "common/table.hpp"
#include "fabric/harness.hpp"
#include "sim/fleet.hpp"

namespace btwc {

/**
 * Shared bench-binary conventions.
 *
 * Every figure harness runs with no arguments at a laptop-scale trial
 * count and accepts:
 *   --cycles / --trials  override the Monte-Carlo volume
 *   --paper              restore the paper-scale volume (slow!)
 *   --seed               RNG seed
 *   --threads            Monte-Carlo worker shards (0 = all cores;
 *                        see threads_from_flags / sim/engine.hpp)
 *   --csv                emit CSV instead of the aligned table
 *   --json PATH          also write the run as a JSON Report
 *                        (api/json_output.hpp)
 */
inline uint64_t
bench_cycles(const Flags &flags, uint64_t dflt, uint64_t paper_scale)
{
    if (flags.has("cycles")) {
        return static_cast<uint64_t>(flags.get_int("cycles", dflt));
    }
    return flags.get_bool("paper") ? paper_scale : dflt;
}

inline uint64_t
bench_trials(const Flags &flags, uint64_t dflt, uint64_t paper_scale)
{
    if (flags.has("trials")) {
        return static_cast<uint64_t>(flags.get_int("trials", dflt));
    }
    return flags.get_bool("paper") ? paper_scale : dflt;
}

inline void
bench_header(const char *figure, const char *claim)
{
    std::printf("== %s ==\n%s\n\n", figure, claim);
}

/**
 * Shared binomial-vs-real-demand comparison leg of the provisioning
 * benches (fig09, fig16): run `link.fleet_size` fully simulated
 * pipelines against one shared unlimited off-chip link
 * (core/offchip_service.hpp), print their measured demand percentiles
 * next to Binomial(fleet_size, q) on the same axis, and return the
 * exact-fleet statistics for follow-up runs (e.g. a narrow-link
 * contention point). `q` is the measured per-qubit off-chip
 * probability the binomial model is built from.
 */
inline FabricStats
print_binomial_vs_real_demand(int distance, double p, double q,
                              const FleetLinkFlags &link,
                              uint64_t exact_cycles, uint64_t seed,
                              int threads, uint64_t offchip_latency = 0,
                              uint64_t offchip_batch = 0)
{
    ExactFleetConfig exact;
    exact.distance = distance;
    exact.p = p;
    exact.num_qubits = link.fleet_size;
    exact.cycles = exact_cycles;
    exact.seed = seed;
    exact.threads = threads;
    exact.offchip_latency = offchip_latency;
    exact.offchip_batch = offchip_batch;
    const FabricStats real = run_fabric(exact_fleet_fabric(exact, true));

    FleetConfig small;
    small.num_qubits = link.fleet_size;
    small.offchip_prob = q;
    small.cycles = 100000;
    small.seed = seed;
    small.threads = threads;
    const CountHistogram binomial = fleet_demand_histogram(small);

    std::printf("-- provisioning percentiles, binomial vs real demand "
                "(%d fully simulated qubits, shared link) --\n",
                link.fleet_size);
    Table compare({"percentile", "binomial_B", "real_B"});
    for (const double percentile : {0.5, 0.9, 0.99, 0.999}) {
        compare.add_row(
            {Table::num(100.0 * percentile, 1),
             std::to_string(
                 std::max<uint64_t>(1, binomial.percentile(percentile))),
             std::to_string(std::max<uint64_t>(
                 1, real.demand.percentile(percentile)))});
    }
    compare.print();
    std::printf("binomial demand mean %.2f vs real mean %.2f "
                "(decodes/cycle)\n\n",
                binomial.mean(), real.demand.mean());
    return real;
}

} // namespace btwc
