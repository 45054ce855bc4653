#pragma once

#include <cstdint>
#include <vector>

#include "common/stats.hpp"
#include "core/system.hpp"
#include "surface/noise.hpp"

namespace btwc {

/**
 * Configuration of a multi-logical-qubit machine simulation (§5).
 *
 * Under the paper's i.i.d. phenomenological noise, per-qubit per-cycle
 * off-chip events are independent Bernoulli(q) draws, so the fleet's
 * per-cycle demand is Binomial(num_qubits, q); `offchip_prob` is the q
 * measured by the single-qubit lifetime simulation. The exact
 * trace-driven fleet (`ExactFleetConfig`, run by `run_fabric` in
 * fabric/harness.hpp) simulates every qubit's full pipeline and
 * validates the binomial shortcut.
 */
struct FleetConfig
{
    int num_qubits = 1000;
    uint64_t cycles = 1000000;
    double offchip_prob = 0.01;  ///< per-qubit per-cycle P(complex)
    /**
     * Per-qubit off-chip probability overrides (hot spots, defective
     * patches). Empty = the homogeneous `offchip_prob` model whose
     * per-cycle demand is a single Binomial(num_qubits, q) draw
     * (bit-exact with the historical sampler). Non-empty (size must
     * equal `num_qubits`; a mismatch throws std::invalid_argument
     * from the demand entry points) makes the demand
     * Poisson-binomial: draws
     * group qubits by probability and sum one binomial per group, so
     * a vector of `num_qubits` equal entries reproduces the
     * homogeneous stream bit-for-bit. Build hot-spot profiles with
     * `hotspot_probs`.
     */
    std::vector<double> qubit_probs;
    /**
     * Monte-Carlo engine shards (sim/engine.hpp): 1 = historical
     * single-threaded sampling (bit-exact), 0 = all hardware threads.
     * Demand histograms shard over cycles; the bandwidth/stall run
     * keeps its (inherently serial) queue but generates demand blocks
     * in parallel.
     */
    int threads = 1;
    uint64_t seed = 1;
    /**
     * Off-chip service latency in cycles (see
     * core/offchip_queue.hpp): corrections land this many cycles
     * after their decode is served. Nonzero shifts the queue-delay
     * distribution without changing the stall behavior
     * (latency is pipelined, only backlog stalls).
     */
    uint64_t offchip_latency = 0;
    /** Slice size of the link's batch accounting (`batch_histogram`;
     * 0 = per cycle); it shapes no decode call. */
    uint64_t offchip_batch = 0;
};

/** One cycle of a provisioned fleet trace (Fig. 9). */
struct TraceCycle
{
    uint64_t fresh = 0;      ///< new off-chip decodes this cycle
    uint64_t carryover = 0;  ///< decodes carried from previous cycles
    uint64_t served = 0;     ///< decodes shipped off-chip this cycle
    bool stall = false;      ///< this cycle was a stall cycle
};

/** Outcome of a provisioned fleet run (one Fig. 16 sweep point). */
struct FleetRunResult
{
    uint64_t bandwidth = 0;      ///< provisioned decodes per cycle
    uint64_t total_cycles = 0;
    uint64_t work_cycles = 0;
    uint64_t stall_cycles = 0;
    uint64_t max_backlog = 0;
    double exec_time_increase = 0.0;   ///< stalls / work cycles (+inf all-stall)
    double bandwidth_reduction = 0.0;  ///< num_qubits / bandwidth
    /**
     * Enqueue-to-landing delay of the served decode stream in cycles
     * (= FleetConfig::offchip_latency plus queueing wait; all-latency
     * when the link never backs up).
     */
    double mean_queue_delay = 0.0;
    uint64_t p99_queue_delay = 0;
    uint64_t max_queue_delay = 0;
    double mean_batch = 0.0;  ///< mean served link-batch size (see OffchipQueue::batch_histogram)
};

/**
 * Heterogeneous fleet profile: `hot_fraction` of the qubits (rounded
 * down, at least one when the fraction is nonzero) run at
 * `hot_multiplier * q` -- a hot spot or defective patch -- and the
 * rest at the base q. Probabilities clamp to [0, 1]. Feed the result
 * to `FleetConfig::qubit_probs`.
 */
std::vector<double> hotspot_probs(int num_qubits, double q,
                                  double hot_fraction,
                                  double hot_multiplier);

/** Demand histogram from the binomial fleet model. */
CountHistogram fleet_demand_histogram(const FleetConfig &config);

/**
 * Configuration of the exact (trace-driven) fleet: `num_qubits` full
 * `BtwcSystem` pipelines stepped in lockstep against the off-chip
 * links of a decode fabric (`FabricFleetConfig::fleet`,
 * fabric/harness.hpp). One link shared by every qubit is the paper's
 * actual machine, where real (non-binomial) demand contends for one
 * latency/bandwidth-limited link; one link per qubit gives each its
 * own (at zero latency and unlimited bandwidth the two are bit-exact,
 * tested).
 */
struct ExactFleetConfig
{
    int distance = 5;
    double p = 1e-3;
    int num_qubits = 10;
    uint64_t cycles = 10000;
    uint64_t seed = 1;
    /** Monte-Carlo shards (sim/engine.hpp); each shard simulates an
        independent fleet instance. threads <= 1 is bit-exact legacy. */
    int threads = 1;
    OffchipPolicy offchip = OffchipPolicy::Oracle;
    TierChainConfig tiers = TierChainConfig::legacy();
    /** Parameters of every link (cf. OffchipQueueConfig). */
    uint64_t offchip_latency = 0;
    uint64_t offchip_bandwidth = 0;
    uint64_t offchip_batch = 0;
    /**
     * Per-qubit physical error rate overrides: tenant q runs at
     * `tenant_probs[q]` instead of the uniform `p`, so hot tenants do
     * real extra decode work rather than just extra demand draws
     * (contrast `FleetConfig::qubit_probs`, which only reshapes the
     * binomial model). Empty = the homogeneous fleet, bit-exact with
     * the historical path; non-empty size must equal `num_qubits`
     * (mismatch throws std::invalid_argument) and every entry must be
     * a probability. Build hot-spot profiles with `hotspot_probs`.
     */
    std::vector<double> tenant_probs;
    /**
     * Per-qubit code distance overrides (same contract as
     * `tenant_probs`; entries must be valid `RotatedSurfaceCode`
     * distances). Every link gets decode chains for each distinct
     * distance via `SharedOffchipService::register_code`.
     */
    std::vector<int> tenant_distances;
};

/** Tenant q's physical error rate (`tenant_probs` override or `p`). */
double tenant_prob(const ExactFleetConfig &config, int q);

/** Tenant q's code distance (`tenant_distances` override or `distance`). */
int tenant_distance(const ExactFleetConfig &config, int q);

/**
 * Throw std::invalid_argument when the per-tenant override vectors are
 * malformed (size != num_qubits, probabilities outside [0, 1]).
 * `run_fabric` calls it before any simulation work.
 */
void validate_tenant_profile(const ExactFleetConfig &config);

/** Run the fleet against a fixed provisioned bandwidth. */
FleetRunResult run_fleet_with_bandwidth(const FleetConfig &config,
                                        uint64_t bandwidth);

/** Short per-cycle trace for the Fig. 9 illustration. */
std::vector<TraceCycle> fleet_trace(const FleetConfig &config,
                                    uint64_t bandwidth);

} // namespace btwc
