/**
 * @file
 * Unified experiment driver: run any of the library's experiment types
 * from the command line with full parameter control. Useful for
 * exploring operating points that the fixed-figure benches don't
 * sweep.
 *
 * The lifetime / memory / fleet / exact-fleet commands are thin
 * wrappers over the src/api layer: flags build a `ScenarioSpec`
 * (`ScenarioSpec::apply_flags`), `run_scenario` runs it, and the
 * uniform `Report` is rendered as a metric table (and as JSON with
 * `--json PATH`). `btwc_run` accepts the same grammar plus named
 * registry scenarios; this binary keeps the historical per-experiment
 * defaults and the hierarchy / hardware extras.
 *
 *     ./sweep_explorer lifetime  --distance 9 --p 0.005 --cycles 50000
 *     ./sweep_explorer lifetime  --distance 21 --p 0.001 --cycles 200000
 *                                --tiers clique,uf,mwpm --threads 8
 *     ./sweep_explorer lifetime  --pipeline --real_offchip
 *                                --offchip-latency 4 --offchip-bandwidth 1
 *     ./sweep_explorer memory    --distance 7 --p 0.008 --p_meas 0.016
 *                                --weighted --trials 20000
 *     ./sweep_explorer fleet     --qubits 2000 --q 0.004 --bandwidth 12
 *     ./sweep_explorer exact-fleet --fleet-size 12 --shared-link
 *                                --offchip-bandwidth 1 --cycles 3000
 *     ./sweep_explorer hierarchy --distance 11 --p 0.01 --threshold 2
 *     ./sweep_explorer hardware  --distance 13 --filter_rounds 3
 */

#include <cstdio>
#include <string>

#include "api/json_output.hpp"
#include "api/run.hpp"
#include "api/scenario.hpp"
#include "common/flags.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "decoders/tier_chain.hpp"
#include "sfq/clique_circuit.hpp"
#include "sfq/cost.hpp"
#include "sfq/synth.hpp"
#include "sim/memory.hpp"
#include "surface/frame.hpp"

namespace {

using namespace btwc;

/**
 * Build the command's spec: per-command historical defaults, then
 * every recognized flag layered on top. Exits(2) on a malformed
 * value — the CLI counterpart of the library's status contract.
 */
ScenarioSpec
spec_or_exit(const Flags &flags, const ScenarioSpec &defaults)
{
    ScenarioSpec spec = defaults;
    std::string error;
    if (!spec.apply_flags(flags, &error)) {
        std::fprintf(stderr, "%s\n", error.c_str());
        std::exit(2);
    }
    return spec;
}

/** Run a spec, print the uniform metric table, honor --json. */
int
run_and_render(const Flags &flags, const ScenarioSpec &spec)
{
    JsonOutput json(flags, "sweep_explorer");
    Report report = run_scenario(spec);
    if (flags.get_bool("csv")) {
        std::fputs(report.csv().c_str(), stdout);
    } else {
        std::printf("== %s ==\n\n", spec.to_string().c_str());
        report.to_table().print();
    }
    json.report().child("result") = std::move(report);
    return json.finish();
}

int
run_lifetime_cmd(const Flags &flags)
{
    ScenarioSpec defaults;
    defaults.kind = ScenarioKind::Lifetime;
    defaults.code.distance = 9;
    defaults.code.p = 5e-3;
    defaults.engine.cycles = 50000;
    return run_and_render(flags, spec_or_exit(flags, defaults));
}

int
run_memory_cmd(const Flags &flags)
{
    ScenarioSpec defaults;
    defaults.kind = ScenarioKind::Memory;
    defaults.code.distance = 7;
    defaults.code.p = 8e-3;
    defaults.engine.trials = 20000;
    defaults.engine.target_failures = 200;
    ScenarioSpec spec = spec_or_exit(flags, defaults);
    if (flags.has("arm")) {
        // A single named arm: the uniform single-scenario rendering.
        return run_and_render(flags, spec);
    }

    // Historical behavior: compare all three decoder arms on the same
    // configuration (the adapter keeps them bit-identical with a
    // direct legacy-config call).
    JsonOutput json(flags, "sweep_explorer");
    const MemoryConfig config = spec.to_memory_config();
    Table table({"decoder", "trials", "failures", "LER", "95%_CI"});
    for (const DecoderArm arm :
         {DecoderArm::MwpmOnly, DecoderArm::CliqueMwpm,
          DecoderArm::UnionFindOnly}) {
        const MemoryResult result = run_memory_experiment(config, arm);
        const auto [lo, hi] = result.ler_interval();
        std::string ci = "[";
        ci += Table::sci(lo, 1);
        ci += ",";
        ci += Table::sci(hi, 1);
        ci += "]";
        table.add_row({decoder_arm_name(arm),
                       std::to_string(result.trials),
                       std::to_string(result.failures),
                       Table::sci(result.ler(), 2), std::move(ci)});
        json.report().child(decoder_arm_name(arm)) =
            memory_metrics_report(result);
    }
    if (flags.get_bool("csv")) {
        std::fputs(table.to_csv().c_str(), stdout);
    } else {
        table.print();
    }
    json.add_table("arms", table);
    return json.finish();
}

int
run_fleet_cmd(const Flags &flags)
{
    ScenarioSpec defaults;
    defaults.kind = ScenarioKind::Fleet;
    defaults.service.offchip_prob = 4e-3;
    defaults.service.bandwidth = 10;  // historical provisioned default
    defaults.engine.cycles = 200000;
    ScenarioSpec spec = spec_or_exit(flags, defaults);
    // Historical contract of this command: "0 = unlimited" has no
    // counterpart in the provisioned-link stall model, so an explicit
    // --bandwidth 0 falls back to the default like an absent flag
    // (use `btwc_run "kind=fleet,..."` for a demand-only histogram).
    if (spec.service.bandwidth == 0) {
        spec.service.bandwidth = defaults.service.bandwidth;
    }
    return run_and_render(flags, spec);
}

int
run_exact_fleet_cmd(const Flags &flags)
{
    ScenarioSpec defaults;
    defaults.kind = ScenarioKind::ExactFleet;
    defaults.service.fleet_size = 10;
    defaults.engine.cycles = 5000;
    return run_and_render(flags, spec_or_exit(flags, defaults));
}

int
run_hierarchy_cmd(const Flags &flags)
{
    JsonOutput json(flags, "sweep_explorer");
    const int distance = static_cast<int>(flags.get_int("distance", 11));
    const double p = flags.get_double("p", 1e-2);
    const uint64_t cycles =
        static_cast<uint64_t>(flags.get_int("cycles", 20000));
    const int uf_threshold =
        static_cast<int>(flags.get_int("threshold", 2));
    const TierChainConfig chain_config =
        tiers_from_flags(flags, "clique,uf,mwpm", uf_threshold);

    const RotatedSurfaceCode code(distance);
    const TierChain chain(code, CheckType::Z, chain_config);
    Rng rng(static_cast<uint64_t>(flags.get_int("seed", 1)));
    ErrorFrame frame(code, CheckType::X);
    std::vector<uint64_t> tiers(chain.size(), 0);
    for (uint64_t i = 0; i < cycles; ++i) {
        frame.reset();
        frame.inject(p, rng);
        ++tiers[static_cast<size_t>(
            chain.decode_syndrome(frame.syndrome()).tier_index)];
    }
    std::printf("chain: %s\n\n", chain_config.describe().c_str());
    Table table({"tier", "decodes", "%"});
    for (size_t t = 0; t < chain.size(); ++t) {
        table.add_row({decoder_tier_name(chain.spec(t).kind),
                       std::to_string(tiers[t]),
                       Table::num(100.0 * tiers[t] / cycles, 3)});
    }
    table.print();
    json.report().set("chain", chain_config.describe());
    json.report().set("cycles", cycles);
    json.add_table("tiers", table);
    return json.finish();
}

int
run_hardware_cmd(const Flags &flags)
{
    JsonOutput json(flags, "sweep_explorer");
    const int distance = static_cast<int>(flags.get_int("distance", 9));
    const int rounds = static_cast<int>(flags.get_int("filter_rounds", 2));
    const RotatedSurfaceCode code(distance);
    const SynthesisResult synth =
        synthesize(build_clique_netlist(code, rounds));
    const ErsfqOperatingPoint op;

    Table table({"metric", "value"});
    table.add_row({"cells", std::to_string(synth.total_cells)});
    table.add_row({"splitters", std::to_string(synth.splitters)});
    table.add_row({"balancing_dffs", std::to_string(synth.balancing_dffs)});
    table.add_row({"jj_count", std::to_string(synth.jj_count)});
    table.add_row({"power_uW", Table::num(op.power_uw(synth), 2)});
    table.add_row({"area_mm2", Table::num(synth.area_mm2(), 3)});
    table.add_row({"latency_ns",
                   Table::num(synth.critical_path_ps / 1000.0, 4)});
    table.add_row({"logic_depth", std::to_string(synth.logic_depth)});
    table.print();
    json.add_table("hardware", table);
    return json.finish();
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace btwc;
    const Flags flags = flags_or_exit(argc, argv);
    const std::string experiment =
        flags.positional().empty() ? "lifetime" : flags.positional()[0];
    if (experiment == "lifetime") {
        return run_lifetime_cmd(flags);
    }
    if (experiment == "memory") {
        return run_memory_cmd(flags);
    }
    if (experiment == "fleet") {
        return run_fleet_cmd(flags);
    }
    if (experiment == "exact-fleet") {
        return run_exact_fleet_cmd(flags);
    }
    if (experiment == "hierarchy") {
        return run_hierarchy_cmd(flags);
    }
    if (experiment == "hardware") {
        return run_hardware_cmd(flags);
    }
    std::fprintf(stderr,
                 "unknown experiment '%s'; one of: lifetime, memory, "
                 "fleet, exact-fleet, hierarchy, hardware\n",
                 experiment.c_str());
    return 1;
}
