#pragma once

#include "api/report.hpp"
#include "api/scenario.hpp"

namespace btwc {

/**
 * Run one scenario through its harness and return the uniform Report:
 *
 *   {
 *     "scenario": { "kind", "spec", "tiers" },
 *     "config":   { resolved harness configuration },
 *     "metrics":  { harness observables (schema per kind, see
 *                   src/api/README.md) }
 *   }
 *
 * The dispatch is a thin, lossless wrapper: the spec is adapted to
 * its harness's config struct (ScenarioSpec::to_*_config) and handed
 * to the harness (`run_lifetime`, `run_memory_experiment`,
 * `fleet_demand_histogram` / `run_fleet_with_bandwidth`, `run_stream`,
 * and `run_fabric` for both fabric and exact-fleet scenarios), so
 * every metric is bit-exact with a direct harness call — enforced by
 * tests/test_api.cpp for every registry scenario.
 */
Report run_scenario(const ScenarioSpec &spec);

/**
 * Run the scenario `repeat` times and return the run with the median
 * wall-clock (the lower median for even `repeat`), its `walltime`
 * subtree annotated with the repeat count under "repeat". The metrics
 * subtrees of all runs are identical (the RNG stream is a function of
 * the spec alone), so taking the median walltime changes nothing the
 * btwc_diff gate compares while de-noising the BENCH trajectory's
 * timing sidecar. `repeat <= 1` degrades to a single annotated run.
 */
Report run_scenario_repeated(const ScenarioSpec &spec, int repeat);

/**
 * Metric subtrees of `run_scenario`, exposed so bench binaries can
 * embed the same stable schema in their own `--json` reports next to
 * their figure tables.
 */
Report lifetime_metrics_report(const LifetimeStats &stats);
Report memory_metrics_report(const MemoryResult &result);
Report fleet_run_report(const FleetRunResult &run, uint64_t total_cycles);
/**
 * The fleet-level block of a fabric run: the whole exact-fleet
 * `metrics` subtree, and the start of `fabric_metrics_report`'s.
 * `with_faults` adds the six link-side fault counters.
 */
Report exact_fleet_metrics_report(const FabricStats &stats,
                                  bool with_faults = false);
Report stream_metrics_report(const StreamStats &stats);
/**
 * `with_faults` adds the chaos-mode `faults` subtree
 * (src/api/README.md). Kept opt-in (the scenario runner sets it only
 * when the spec configures chaos) so fault-free reports — and the
 * committed BENCH baselines diffed against them — stay byte-identical
 * with the pre-chaos schema.
 */
Report fabric_metrics_report(const FabricStats &stats,
                             bool with_faults = false);

} // namespace btwc
