#include "sim/fleet.hpp"

#include <algorithm>
#include <map>
#include <optional>
#include <stdexcept>
#include <thread>

#include "common/rng.hpp"
#include "core/offchip_queue.hpp"
#include "core/offchip_service.hpp"
#include "sim/engine.hpp"
#include "surface/lattice.hpp"

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

void
ExactFleetStats::merge(const ExactFleetStats &other)
{
    demand.merge(other.demand);
    queue_delay.merge(other.queue_delay);
    batch_sizes.merge(other.batch_sizes);
    backlog.merge(other.backlog);
    stall_cycles += other.stall_cycles;
    work_cycles += other.work_cycles;
    max_backlog = std::max(max_backlog, other.max_backlog);
    enqueued += other.enqueued;
    served += other.served;
    landed += other.landed;
    suppressed += other.suppressed;
    pending += other.pending;
    outage_cycles += other.outage_cycles;
    dropped += other.dropped;
    duplicated += other.duplicated;
    corrupted += other.corrupted;
    surge_enqueued += other.surge_enqueued;
    surge_landed += other.surge_landed;
    if (per_qubit.size() < other.per_qubit.size()) {
        per_qubit.resize(other.per_qubit.size());
    }
    for (size_t i = 0; i < other.per_qubit.size(); ++i) {
        per_qubit[i].merge(other.per_qubit[i]);
    }
}

double
ExactFleetStats::exec_time_increase() const
{
    return stall_execution_time_increase(stall_cycles, work_cycles);
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

ExactFleetStats
fleet_demand_exact_stats(const ExactFleetConfig &config)
{
    validate_tenant_profile(config);
    // Codes are immutable and shared across shards: the base code plus
    // one per distinct per-tenant distance override.
    const RotatedSurfaceCode code(config.distance);
    std::map<int, RotatedSurfaceCode> extra_codes;
    for (const int d : config.tenant_distances) {
        if (d != config.distance) {
            extra_codes.try_emplace(d, d);
        }
    }
    const auto code_of = [&](int q) -> const RotatedSurfaceCode & {
        const int d = tenant_distance(config, q);
        return d == config.distance ? code : extra_codes.at(d);
    };
    return run_sharded<ExactFleetStats>(
        config.cycles, config.threads, config.seed,
        [&](const Shard &shard) {
            Rng seeder(shard.seed);
            SystemConfig sconfig;
            sconfig.offchip = config.offchip;
            sconfig.tiers = config.tiers;
            if (!config.shared_link) {
                // Each qubit builds its own one-tenant link from these
                // parameters; under the shared link they live on the
                // one service instead.
                sconfig.offchip_latency = config.offchip_latency;
                sconfig.offchip_bandwidth = config.offchip_bandwidth;
                sconfig.offchip_batch = config.offchip_batch;
            }
            std::vector<BtwcSystem> qubits;
            qubits.reserve(static_cast<size_t>(config.num_qubits));
            for (int q = 0; q < config.num_qubits; ++q) {
                qubits.emplace_back(
                    code_of(q),
                    NoiseParams::uniform(tenant_prob(config, q)),
                    sconfig, seeder.next_u64());
            }
            std::optional<SharedOffchipService> service;
            if (config.shared_link) {
                service.emplace(
                    code, config.tiers,
                    OffchipQueueConfig{config.offchip_bandwidth,
                                       config.offchip_latency,
                                       config.offchip_batch});
                for (const auto &[d, extra] : extra_codes) {
                    service->register_code(extra);
                }
                if (config.faults.enabled) {
                    service->set_fault_injector(
                        std::make_unique<FaultInjector>(config.faults,
                                                        0));
                }
                for (size_t q = 0; q < qubits.size(); ++q) {
                    qubits[q].attach_shared_service(&*service,
                                                    static_cast<int>(q));
                }
            }
            ExactFleetStats stats;
            stats.per_qubit.resize(qubits.size());
            std::vector<std::pair<int, uint64_t>> surge_scratch;
            for (uint64_t cycle = 0; cycle < shard.cycles; ++cycle) {
                // Demand = qubits that shipped a fresh escalation this
                // cycle. Counting `report.offchip` instead would
                // re-count a half on every cycle its request is in
                // flight (the escalated errors stay on the lattice
                // and keep classifying off-chip), inflating demand
                // ~(latency+1)x against the per-escalation binomial
                // model; those re-flags are `suppressed`, not demand.
                // At the synchronous L=0 point the two counts agree
                // (a half is never busy when it classifies), which
                // keeps the legacy histogram bit-exact.
                uint64_t offchip = 0;
                for (size_t q = 0; q < qubits.size(); ++q) {
                    const CycleReport report = qubits[q].step();
                    offchip += report.queued > 0 ? 1 : 0;
                    QubitServiceStats &mine = stats.per_qubit[q];
                    mine.enqueued += static_cast<uint64_t>(report.queued);
                    mine.suppressed +=
                        static_cast<uint64_t>(report.suppressed);
                    if (!config.shared_link) {
                        mine.landed +=
                            static_cast<uint64_t>(report.landed);
                    }
                }
                if (service) {
                    // Fault-plan surges join this cycle's demand.
                    if (config.faults.enabled &&
                        !config.faults.surges.empty()) {
                        surge_scratch.clear();
                        config.faults.surges_at(
                            service->queue().total_cycles(),
                            &surge_scratch);
                        for (const auto &surge : surge_scratch) {
                            service->enqueue_synthetic(
                                surge.first % config.num_qubits,
                                surge.second);
                        }
                    }
                    // All tenants stepped: advance the shared link one
                    // machine cycle and route the landings home.
                    for (const SharedOffchipService::Delivery &landing :
                         service->step()) {
                        qubits[static_cast<size_t>(landing.owner)]
                            .deliver_offchip_correction(
                                landing.half, landing.correction);
                        ++stats.per_qubit[static_cast<size_t>(
                                              landing.owner)]
                              .landed;
                    }
                    stats.backlog.add(service->queue().backlog());
                }
                stats.demand.add(offchip);
            }
            if (service) {
                const OffchipQueue &link = service->queue();
                stats.queue_delay = link.delay_histogram();
                stats.batch_sizes = link.batch_histogram();
                stats.stall_cycles = link.stall_cycles();
                stats.work_cycles = link.work_cycles();
                stats.max_backlog = link.max_backlog();
                stats.enqueued = link.enqueued();
                stats.served = link.served();
                stats.landed = link.landed();
                stats.pending = service->pending();
                stats.outage_cycles = link.outage_cycles();
                stats.dropped = service->dropped();
                stats.duplicated = service->duplicated();
                stats.corrupted = service->corrupted();
                stats.surge_enqueued = service->surge_enqueued();
                stats.surge_landed = service->surge_landed();
            } else {
                for (const BtwcSystem &qubit : qubits) {
                    const OffchipQueue &link = qubit.offchip_queue();
                    stats.queue_delay.merge(link.delay_histogram());
                    stats.batch_sizes.merge(link.batch_histogram());
                    stats.stall_cycles += link.stall_cycles();
                    stats.work_cycles += link.work_cycles();
                    stats.max_backlog =
                        std::max(stats.max_backlog, link.max_backlog());
                    stats.enqueued += link.enqueued();
                    stats.served += link.served();
                    stats.landed += link.landed();
                    stats.pending += qubit.pending_offchip();
                }
            }
            for (const QubitServiceStats &mine : stats.per_qubit) {
                stats.suppressed += mine.suppressed;
            }
            return stats;
        });
}

CountHistogram
fleet_demand_exact(int distance, double p, int num_qubits, uint64_t cycles,
                   uint64_t seed, int threads)
{
    ExactFleetConfig config;
    config.distance = distance;
    config.p = p;
    config.num_qubits = num_qubits;
    config.cycles = cycles;
    config.seed = seed;
    config.threads = threads;
    return fleet_demand_exact_stats(config).demand;
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
