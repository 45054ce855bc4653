#pragma once

#include <cstdint>
#include <string>

#include "api/report.hpp"
#include "api/scenario.hpp"
#include "trace.hpp"

namespace btwc_bench {

/**
 * Replicas of the library's harness loops (sim/lifetime.cpp
 * signature mode, sim/stream.cpp, fabric/harness.cpp,
 * sim/memory.cpp), built only from public layer calls so that every
 * call into a layer can be wrapped in a span. Each replica consumes
 * the RNG streams in the harness's order and rebuilds the harness's
 * stats struct, so its `metrics` must equal `run_scenario`'s for the
 * same spec; the benchmark checks that on every replica run, which is
 * what ties the per-layer numbers to the end-to-end program.
 */

/**
 * Why `spec` cannot be replayed ("" when it can): the replicas cover
 * the single-shard, fault-free paths of the four workload kinds.
 */
std::string replica_unsupported(const btwc::ScenarioSpec &spec);

/**
 * The spans whose durations form a kind's decode latency (bit i =
 * Span i): the call that turns a round's syndrome into a decision.
 */
uint32_t latency_spans(btwc::ScenarioKind kind);

struct ReplicaRun
{
    btwc::Report metrics;  ///< same schema as run_scenario's `metrics`
    /** kind=memory: detection events per trial (0 for other kinds). */
    double trial_defects_mean = 0.0;
};

/** Replay `spec` (see replica_unsupported), recording into `tracer`. */
ReplicaRun replicate(const btwc::ScenarioSpec &spec, Tracer &tracer);

} // namespace btwc_bench
