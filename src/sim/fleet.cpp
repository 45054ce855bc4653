#include "sim/fleet.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>
#include <thread>

#include "common/rng.hpp"
#include "core/offchip_queue.hpp"
#include "sim/engine.hpp"

namespace btwc {

namespace {

/**
 * The fleet's per-cycle demand distribution: Binomial(n, q) for the
 * homogeneous model, Poisson-binomial for a heterogeneous
 * `FleetConfig::qubit_probs` profile. Draws group qubits by
 * probability (one binomial per distinct probability, summed), so the
 * homogeneous case -- and a vector of all-equal entries -- stays a
 * single `Rng::binomial` call, bit-exact with the historical stream.
 */
class DemandModel
{
  public:
    explicit DemandModel(const FleetConfig &config)
    {
        if (config.qubit_probs.empty()) {
            groups_.emplace_back(
                static_cast<uint64_t>(config.num_qubits),
                config.offchip_prob);
            return;
        }
        if (config.qubit_probs.size() !=
            static_cast<size_t>(config.num_qubits)) {
            // A silently mismatched profile would model the wrong
            // fleet (e.g. a copied config with only num_qubits
            // rescaled); refuse loudly instead.
            throw std::invalid_argument(
                "FleetConfig::qubit_probs size (" +
                std::to_string(config.qubit_probs.size()) +
                ") != num_qubits (" +
                std::to_string(config.num_qubits) + ")");
        }
        std::map<double, uint64_t> counts;
        for (const double q : config.qubit_probs) {
            ++counts[q];
        }
        groups_.reserve(counts.size());
        for (const auto &[q, count] : counts) {
            groups_.emplace_back(count, q);
        }
    }

    uint64_t draw(Rng &rng) const
    {
        uint64_t total = 0;
        for (const auto &[count, q] : groups_) {
            total += rng.binomial(count, q);
        }
        return total;
    }

  private:
    std::vector<std::pair<uint64_t, double>> groups_;  ///< (qubits, prob)
};

/**
 * Block-parallel demand stream for the serial bandwidth/stall queue:
 * the queue must consume demand cycle by cycle (its backlog couples
 * adjacent cycles), but the draws themselves are independent, so
 * worker threads prefill fixed-size blocks, one contiguous chunk per
 * persistent worker stream. Deterministic for a fixed (seed, threads)
 * pair; `threads <= 1` degenerates to drawing straight off one
 * stream, reproducing the historical sequence bit-for-bit.
 */
class DemandSource
{
  public:
    DemandSource(DemandModel model, uint64_t seed, int threads)
        : model_(std::move(model)), workers_(resolve_threads(threads))
    {
        Rng seeder(seed);
        if (workers_ <= 1) {
            streams_.push_back(seeder);
        } else {
            streams_.reserve(static_cast<size_t>(workers_));
            for (int w = 0; w < workers_; ++w) {
                streams_.emplace_back(seeder.next_u64());
            }
        }
    }

    uint64_t next()
    {
        if (workers_ <= 1) {
            return model_.draw(streams_[0]);
        }
        if (pos_ == buffer_.size()) {
            refill();
        }
        return buffer_[pos_++];
    }

  private:
    static constexpr size_t kChunk = 4096;  ///< draws per worker per refill

    void refill()
    {
        buffer_.resize(kChunk * static_cast<size_t>(workers_));
        std::vector<std::thread> pool;
        pool.reserve(static_cast<size_t>(workers_));
        for (int w = 0; w < workers_; ++w) {
            pool.emplace_back([this, w]() {
                uint64_t *out = buffer_.data() + kChunk * w;
                Rng &rng = streams_[w];
                for (size_t i = 0; i < kChunk; ++i) {
                    out[i] = model_.draw(rng);
                }
            });
        }
        for (std::thread &t : pool) {
            t.join();
        }
        pos_ = 0;
    }

    DemandModel model_;
    int workers_;
    std::vector<Rng> streams_;
    std::vector<uint64_t> buffer_;
    size_t pos_ = 0;
};

} // namespace

std::vector<double>
hotspot_probs(int num_qubits, double q, double hot_fraction,
              double hot_multiplier)
{
    std::vector<double> probs(static_cast<size_t>(num_qubits < 0
                                                      ? 0
                                                      : num_qubits),
                              std::clamp(q, 0.0, 1.0));
    if (hot_fraction <= 0.0 || probs.empty()) {
        return probs;
    }
    const double hot_q = std::clamp(q * hot_multiplier, 0.0, 1.0);
    size_t hot = static_cast<size_t>(hot_fraction *
                                     static_cast<double>(probs.size()));
    hot = std::clamp<size_t>(hot, 1, probs.size());
    for (size_t i = 0; i < hot; ++i) {
        probs[i] = hot_q;
    }
    return probs;
}

CountHistogram
fleet_demand_histogram(const FleetConfig &config)
{
    const DemandModel model(config);
    return run_sharded<CountHistogram>(
        config.cycles, config.threads, config.seed,
        [&model](const Shard &shard) {
            Rng rng(shard.seed);
            CountHistogram demand;
            for (uint64_t cycle = 0; cycle < shard.cycles; ++cycle) {
                demand.add(model.draw(rng));
            }
            return demand;
        });
}

double
tenant_prob(const ExactFleetConfig &config, int q)
{
    if (config.tenant_probs.empty()) {
        return config.p;
    }
    return config.tenant_probs[static_cast<size_t>(q)];
}

int
tenant_distance(const ExactFleetConfig &config, int q)
{
    if (config.tenant_distances.empty()) {
        return config.distance;
    }
    return config.tenant_distances[static_cast<size_t>(q)];
}

void
validate_tenant_profile(const ExactFleetConfig &config)
{
    // Same rationale as DemandModel's qubit_probs check: a silently
    // mismatched profile would model the wrong fleet; refuse loudly.
    if (!config.tenant_probs.empty() &&
        config.tenant_probs.size() !=
            static_cast<size_t>(config.num_qubits)) {
        throw std::invalid_argument(
            "ExactFleetConfig::tenant_probs size (" +
            std::to_string(config.tenant_probs.size()) +
            ") != num_qubits (" + std::to_string(config.num_qubits) +
            ")");
    }
    for (const double q : config.tenant_probs) {
        if (!(q >= 0.0 && q <= 1.0)) {
            throw std::invalid_argument(
                "ExactFleetConfig::tenant_probs entries must be "
                "probabilities");
        }
    }
    if (!config.tenant_distances.empty() &&
        config.tenant_distances.size() !=
            static_cast<size_t>(config.num_qubits)) {
        throw std::invalid_argument(
            "ExactFleetConfig::tenant_distances size (" +
            std::to_string(config.tenant_distances.size()) +
            ") != num_qubits (" + std::to_string(config.num_qubits) +
            ")");
    }
}

FleetRunResult
run_fleet_with_bandwidth(const FleetConfig &config, uint64_t bandwidth)
{
    DemandSource demand(DemandModel(config), config.seed, config.threads);
    // The off-chip link as an async service (core/offchip_queue.hpp):
    // bandwidth-limited FIFO with `offchip_latency` cycles between a
    // decode entering service and its correction landing.
    const uint64_t effective = bandwidth ? bandwidth : 1;
    OffchipQueue queue(OffchipQueueConfig{effective, config.offchip_latency,
                                          config.offchip_batch});
    // The program needs `config.cycles` cycles of real progress; stall
    // cycles extend the wall clock and keep generating fresh errors.
    // Provisioning at (or below) the demand mean never converges --
    // the paper's "infinite stalling" regime -- so the run aborts once
    // the wall clock blows past a generous multiple of the program or
    // the backlog exceeds what the link could ever drain; callers
    // detect divergence via work_cycles < cycles.
    const uint64_t wall_clock_cap = 25 * config.cycles + 1000;
    while (queue.work_cycles() < config.cycles) {
        queue.step(demand.next());
        if (queue.total_cycles() >= wall_clock_cap ||
            queue.backlog() >
                effective * (config.cycles + queue.total_cycles())) {
            break;
        }
    }
    FleetRunResult result;
    result.bandwidth = effective;
    result.total_cycles = queue.total_cycles();
    result.work_cycles = queue.work_cycles();
    result.stall_cycles = queue.stall_cycles();
    result.max_backlog = queue.max_backlog();
    result.exec_time_increase = queue.execution_time_increase();
    result.bandwidth_reduction =
        static_cast<double>(config.num_qubits) /
        static_cast<double>(effective);
    result.mean_queue_delay = queue.delay_histogram().mean();
    result.p99_queue_delay = queue.delay_histogram().percentile(0.99);
    result.max_queue_delay = queue.delay_histogram().max_value();
    result.mean_batch = queue.batch_histogram().mean();
    return result;
}

std::vector<TraceCycle>
fleet_trace(const FleetConfig &config, uint64_t bandwidth)
{
    const DemandModel model(config);
    Rng rng(config.seed);
    // A zero-latency link stalls exactly like Fig. 10's controller; a
    // zero bandwidth still serves one decode per cycle.
    OffchipQueue queue(OffchipQueueConfig{bandwidth ? bandwidth : 1, 0, 0});
    std::vector<TraceCycle> trace;
    trace.reserve(config.cycles);
    for (uint64_t cycle = 0; cycle < config.cycles; ++cycle) {
        TraceCycle entry;
        entry.carryover = queue.backlog();
        entry.stall = queue.stall_pending();
        entry.fresh = model.draw(rng);
        const uint64_t before = queue.served();
        queue.step(entry.fresh);
        entry.served = queue.served() - before;
        trace.push_back(entry);
    }
    return trace;
}

} // namespace btwc
