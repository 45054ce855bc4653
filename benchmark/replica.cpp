#include "replica.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <vector>

#include "api/run.hpp"
#include "common/rng.hpp"
#include "core/clique.hpp"
#include "core/filter.hpp"
#include "core/system.hpp"
#include "fabric/fabric.hpp"
#include "fabric/harness.hpp"
#include "fabric/probe.hpp"
#include "matching/mwpm.hpp"
#include "matching/union_find.hpp"
#include "sim/lifetime.hpp"
#include "sim/memory.hpp"
#include "sim/stream.hpp"
#include "surface/frame.hpp"
#include "surface/lattice.hpp"
#include "surface/packed.hpp"

namespace btwc_bench {

using namespace btwc;

namespace {

constexpr uint32_t
bit(Span span)
{
    return 1u << static_cast<int>(span);
}

/** A span outside any request (construction, end-of-run harvest). */
void
add_free(Tracer &tracer, Span span, uint64_t start)
{
    tracer.add(span, 0, start, tracer.now(), tracer.next_id(), 0);
}

/** sim/lifetime.cpp count_half. */
void
count_half(LifetimeStats &stats, CliqueVerdict verdict, DecoderTier tier,
           bool offchip)
{
    switch (verdict) {
      case CliqueVerdict::AllZeros:
        ++stats.all_zero_halves;
        break;
      case CliqueVerdict::Trivial:
        ++stats.trivial_halves;
        break;
      case CliqueVerdict::Complex:
        ++stats.complex_halves;
        ++stats.tier_halves[static_cast<int>(tier)];
        stats.offchip_halves += offchip ? 1 : 0;
        break;
    }
}

/** sim/lifetime.cpp run_signature. */
ReplicaRun
replicate_lifetime(const LifetimeConfig &config, Tracer &tracer)
{
    const uint64_t t0 = tracer.now();
    const RotatedSurfaceCode code(config.distance);
    Rng rng(config.seed);
    LifetimeStats stats;
    stats.cycles = config.cycles;

    struct Half
    {
        Half(const RotatedSurfaceCode &c, CheckType error_type,
             const TierChainConfig &tiers)
            : frame(c, error_type),
              chain(c, detector_of_error(error_type), tiers)
        {
        }
        ErrorFrame frame;
        TierChain chain;
        PackedSyndrome round;
        PackedSyndrome filtered;
        TierChain::Result out;
    };
    Half halves[2] = {Half(code, CheckType::X, config.tiers),
                      Half(code, CheckType::Z, config.tiers)};
    TierChain::Options chain_options;
    chain_options.stop_before_offchip = true;
    add_free(tracer, Span::Setup, t0);

    for (uint64_t cycle = 0; cycle < config.cycles; ++cycle) {
        Lap lap(tracer, cycle);
        CliqueVerdict verdict = CliqueVerdict::AllZeros;
        bool cycle_offchip = false;
        uint64_t raw_weight = 0;
        for (Half &half : halves) {
            half.frame.reset();
            half.frame.inject(config.p, rng);
            lap.mark(Span::SurfaceInject);
            for (int r = 0; r < config.filter_rounds; ++r) {
                half.frame.measure_packed(config.meas_probability(), rng,
                                          half.round);
                if (r == 0) {
                    half.filtered = half.round;
                } else {
                    half.filtered &= half.round;
                }
            }
            lap.mark(Span::SurfaceExtract);
            half.chain.decode_syndrome(half.filtered, chain_options,
                                       half.out);
            lap.mark(half.out.offchip ? Span::ChainEscalated
                                      : Span::ChainOnchip);
            raw_weight += static_cast<uint64_t>(half.round.popcount());
            const TierChain::Result &out = half.out;
            const CliqueVerdict half_verdict = classify_decode(out);
            count_half(stats, half_verdict, out.tier, out.offchip);
            if (half_verdict == CliqueVerdict::Complex) {
                verdict = CliqueVerdict::Complex;
            } else if (half_verdict == CliqueVerdict::Trivial &&
                       verdict == CliqueVerdict::AllZeros) {
                verdict = CliqueVerdict::Trivial;
            }
            cycle_offchip |= out.offchip;
            if (half_verdict == CliqueVerdict::Trivial) {
                stats.clique_corrections +=
                    static_cast<uint64_t>(out.decode.weight);
            }
            lap.mark(Span::Harness);
        }
        switch (verdict) {
          case CliqueVerdict::AllZeros:
            ++stats.all_zero_cycles;
            break;
          case CliqueVerdict::Trivial:
            ++stats.trivial_cycles;
            break;
          case CliqueVerdict::Complex:
            ++stats.complex_cycles;
            break;
        }
        stats.offchip_cycles += cycle_offchip ? 1 : 0;
        stats.raw_weight.add(raw_weight);
        lap.mark(Span::Harness);
        lap.close();
    }
    return ReplicaRun{lifetime_metrics_report(stats), 0.0};
}

/** sim/stream.cpp run_stream_shard. */
ReplicaRun
replicate_stream(const StreamConfig &config, Tracer &tracer)
{
    const uint64_t t0 = tracer.now();
    const RotatedSurfaceCode code(config.distance);
    const CheckType detector = detector_of_error(config.error_type);
    StreamWindowConfig window_config;
    window_config.window = config.window;
    window_config.overlap = config.overlap;
    window_config.screen = stream_screen_tiers(config.tiers);
    StreamWindowDecoder decoder(code, detector, window_config);
    ErrorFrame frame(code, config.error_type);
    Rng rng(config.seed);
    PackedSyndrome raw(code.num_checks(detector));
    std::vector<uint8_t> perfect;
    add_free(tracer, Span::Setup, t0);

    for (uint64_t t = 0; t < config.rounds; ++t) {
        Lap lap(tracer, t);
        frame.inject(config.p, rng);
        frame.measure_packed(config.meas_probability(), rng, raw);
        lap.mark(Span::SurfaceNoise);
        const StreamWindowStats &seen = decoder.stats();
        const uint64_t windows = seen.windows;
        const uint64_t matched = seen.matched_windows;
        const uint64_t screened = seen.screened_windows;
        decoder.push_round(raw);
        lap.stop();
        if (seen.windows == windows) {
            lap.attribute(Span::StreamBuffer);
        } else if (seen.matched_windows != matched) {
            lap.attribute(Span::WindowMatched);
        } else if (seen.screened_windows != screened) {
            lap.attribute(Span::WindowScreened);
        } else {
            lap.attribute(Span::WindowEmpty);
        }
        lap.close();
    }
    Lap lap(tracer, config.rounds);
    frame.measure_perfect(perfect);
    raw.from_bytes(perfect);
    decoder.push_round(raw);
    decoder.flush();
    frame.apply_packed(decoder.committed_correction());
    StreamStats stats;
    stats.window = decoder.stats();
    stats.streams = 1;
    if (!frame.syndrome_clear()) {
        ++stats.unclear_syndromes;
    }
    if (frame.logical_flipped()) {
        ++stats.logical_failures;
    }
    lap.mark(Span::StreamFlush);
    lap.close();
    return ReplicaRun{stream_metrics_report(stats), 0.0};
}

/** fabric/harness.cpp run_fabric, fault-free single-distance fleet. */
ReplicaRun
replicate_fabric(const FabricFleetConfig &config, Tracer &tracer)
{
    const uint64_t t0 = tracer.now();
    const ExactFleetConfig &fleet = config.fleet;
    validate_tenant_profile(fleet);
    const RotatedSurfaceCode code(fleet.distance);
    std::vector<double> probs;
    probs.reserve(static_cast<size_t>(fleet.num_qubits));
    for (int q = 0; q < fleet.num_qubits; ++q) {
        probs.push_back(tenant_prob(fleet, q));
    }
    Rng seeder(fleet.seed);
    SystemConfig sconfig;
    sconfig.offchip = fleet.offchip;
    sconfig.tiers = fleet.tiers;
    std::vector<BtwcSystem> qubits;
    qubits.reserve(static_cast<size_t>(fleet.num_qubits));
    for (int q = 0; q < fleet.num_qubits; ++q) {
        qubits.emplace_back(code, NoiseParams::uniform(tenant_prob(fleet, q)),
                            sconfig, seeder.next_u64());
    }
    Fabric fabric(config.topology, code, fleet.tiers,
                  OffchipQueueConfig{fleet.offchip_bandwidth,
                                     fleet.offchip_latency,
                                     fleet.offchip_batch},
                  probs);
    for (size_t q = 0; q < qubits.size(); ++q) {
        qubits[q].attach_shared_service(
            &fabric.link(static_cast<size_t>(
                fabric.link_of(static_cast<int>(q)))),
            static_cast<int>(q));
    }
    LogicalFailureProbe probe(code);
    std::vector<std::array<bool, 2>> last_parity(qubits.size(),
                                                 {false, false});
    FabricStats stats;
    stats.per_link.resize(fabric.num_links());
    stats.per_tenant.resize(qubits.size());
    for (size_t q = 0; q < qubits.size(); ++q) {
        stats.per_tenant[q].link = fabric.link_of(static_cast<int>(q));
    }
    add_free(tracer, Span::Setup, t0);

    for (uint64_t cycle = 0; cycle < fleet.cycles; ++cycle) {
        Lap lap(tracer, cycle);
        uint64_t offchip = 0;
        for (size_t q = 0; q < qubits.size(); ++q) {
            const CycleReport report = qubits[q].step();
            lap.mark(Span::TenantStep);
            offchip += report.queued > 0 ? 1 : 0;
            TenantFabricStats &mine = stats.per_tenant[q];
            mine.enqueued += static_cast<uint64_t>(report.queued);
            mine.suppressed += static_cast<uint64_t>(report.suppressed);
        }
        lap.mark(Span::Harness);
        const std::vector<SharedOffchipService::Delivery> &landings =
            fabric.step();
        lap.mark(Span::LinkStep);
        for (const SharedOffchipService::Delivery &landing : landings) {
            qubits[static_cast<size_t>(landing.owner)]
                .deliver_offchip_correction(landing.half,
                                            landing.correction);
            lap.mark(Span::Deliver);
            if (!landing.correction.empty()) {
                ++stats.per_tenant[static_cast<size_t>(landing.owner)]
                      .landed;
            }
        }
        stats.backlog.add(fabric.backlog());
        stats.demand.add(offchip);
        lap.mark(Span::Harness);
        if (config.probe_interval > 0 &&
            (cycle + 1) % config.probe_interval == 0) {
            for (size_t q = 0; q < qubits.size(); ++q) {
                const bool parity_x =
                    probe.logical_parity(qubits[q].frame(CheckType::X));
                lap.mark(Span::Probe);
                const bool parity_z =
                    probe.logical_parity(qubits[q].frame(CheckType::Z));
                lap.mark(Span::Probe);
                const bool flipped = parity_x != last_parity[q][0] ||
                                     parity_z != last_parity[q][1];
                last_parity[q] = {parity_x, parity_z};
                TenantFabricStats &mine = stats.per_tenant[q];
                ++mine.probes;
                ++stats.probes;
                if (flipped) {
                    ++mine.failures;
                    ++stats.probe_failures;
                }
            }
            lap.mark(Span::Harness);
        }
        lap.close();
    }

    for (size_t k = 0; k < fabric.num_links(); ++k) {
        const SharedOffchipService &service = fabric.link(k);
        const OffchipQueue &link = service.queue();
        LinkFabricStats &mine = stats.per_link[k];
        mine.enqueued = link.enqueued();
        mine.served = link.served();
        mine.landed = link.landed();
        mine.stall_cycles = link.stall_cycles();
        mine.work_cycles = link.work_cycles();
        mine.max_backlog = link.max_backlog();
        mine.deadline_misses = service.deadline_misses();
        mine.delay = service.delay_histogram();
        stats.queue_delay.merge(service.delay_histogram());
        stats.batch_sizes.merge(link.batch_histogram());
        stats.stall_cycles += link.stall_cycles();
        stats.work_cycles += link.work_cycles();
        stats.max_backlog = std::max(stats.max_backlog, link.max_backlog());
        stats.enqueued += link.enqueued();
        stats.served += link.served();
        stats.landed += link.landed();
        stats.deadline_misses += service.deadline_misses();
        const std::vector<SharedOffchipService::TenantLinkStats> &tenants =
            service.tenant_stats();
        for (size_t q = 0; q < tenants.size(); ++q) {
            TenantFabricStats &mine_t = stats.per_tenant[q];
            mine_t.deadline_misses += tenants[q].deadline_misses;
            mine_t.delay.merge(tenants[q].delay);
        }
    }
    stats.pending = fabric.pending();
    for (const TenantFabricStats &mine : stats.per_tenant) {
        stats.suppressed += mine.suppressed;
    }
    return ReplicaRun{fabric_metrics_report(stats), 0.0};
}

/** sim/memory.cpp run_memory_shard + run_trial. */
ReplicaRun
replicate_memory(const MemoryConfig &config, DecoderArm arm, Tracer &tracer)
{
    const uint64_t t0 = tracer.now();
    const RotatedSurfaceCode code(config.distance);
    const CheckType detector = detector_of_error(config.error_type);
    int space_weight = 1;
    int time_weight = 1;
    if (config.weighted_matching) {
        space_weight = log_likelihood_weight(config.p);
        time_weight = log_likelihood_weight(config.meas_probability());
    }
    const MwpmDecoder mwpm(code, detector, space_weight, time_weight);
    const UnionFindDecoder uf(code, detector);
    const CliqueDecoder clique(code, detector);
    Rng rng(config.seed);
    const int rounds = config.rounds > 0 ? config.rounds : config.distance;
    const int num_checks = code.num_checks(detector);
    add_free(tracer, Span::Setup, t0);

    MemoryResult result;
    uint64_t events_total = 0;
    while (result.trials < config.max_trials &&
           result.failures < config.target_failures) {
        Lap lap(tracer, result.trials);
        ++result.trials;
        result.total_rounds += static_cast<uint64_t>(rounds);

        ErrorFrame frame(code, config.error_type);
        MeasurementFilter filter(num_checks, config.filter_rounds);
        std::vector<std::vector<uint8_t>> raw(static_cast<size_t>(rounds) +
                                              1);
        lap.mark(Span::TrialSetup);
        for (int t = 0; t < rounds; ++t) {
            frame.inject(config.p, rng);
            frame.measure(config.meas_probability(), rng, raw[t]);
            lap.mark(Span::NoiseByte);
            if (arm == DecoderArm::CliqueMwpm) {
                const std::vector<uint8_t> &filtered = filter.push(raw[t]);
                const CliqueOutcome outcome = clique.decode(filtered);
                if (outcome.verdict == CliqueVerdict::Trivial) {
                    frame.apply(outcome.corrections);
                } else if (outcome.verdict == CliqueVerdict::Complex) {
                    ++result.offchip_rounds;
                }
                lap.mark(Span::CliqueByte);
            }
        }
        frame.measure_perfect(raw[rounds]);
        lap.mark(Span::SurfaceCheck);

        std::vector<DetectionEvent> events;
        for (int t = 0; t <= rounds; ++t) {
            for (int c = 0; c < num_checks; ++c) {
                const uint8_t prev = t == 0 ? 0 : raw[t - 1][c];
                if ((raw[t][c] ^ prev) & 1) {
                    events.push_back(DetectionEvent{c, t});
                }
            }
        }
        events_total += events.size();
        lap.mark(Span::Events);

        MwpmDecoder::Result fix;
        if (arm == DecoderArm::UnionFindOnly) {
            fix = uf.decode(events, rounds + 1);
        } else {
            fix = mwpm.decode(events, rounds + 1);
        }
        lap.mark(Span::MwpmTrial);

        frame.apply_mask(fix.correction);
        if (!frame.syndrome_clear()) {
            ++result.unclear_syndromes;
        }
        if (frame.logical_flipped()) {
            ++result.failures;
        }
        lap.mark(Span::SurfaceCheck);
        lap.close();
    }
    const double defects_mean =
        result.trials == 0 ? 0.0
                           : static_cast<double>(events_total) /
                                 static_cast<double>(result.trials);
    return ReplicaRun{memory_metrics_report(result), defects_mean};
}

} // namespace

std::string
replica_unsupported(const ScenarioSpec &spec)
{
    if (spec.engine.threads != 1) {
        return "threads must be 1 (the replicas run one shard)";
    }
    switch (spec.kind) {
      case ScenarioKind::Lifetime:
        return spec.mode == LifetimeMode::Signature
                   ? ""
                   : "only signature-mode lifetime runs are replicated";
      case ScenarioKind::Stream:
      case ScenarioKind::Memory:
        return "";
      case ScenarioKind::Fabric: {
        const FabricFleetConfig config = spec.to_fabric_config();
        if (config.faults.enabled || config.timeout > 0 ||
            config.retries > 0 || config.shed ||
            config.topology.migrate_threshold > 0) {
            return "chaos-mode fabric runs are not replicated";
        }
        if (!config.fleet.tenant_distances.empty()) {
            return "per-tenant distances are not replicated";
        }
        return "";
      }
      case ScenarioKind::Fleet:
      case ScenarioKind::ExactFleet:
        break;
    }
    return std::string("kind=") + scenario_kind_name(spec.kind) +
           " has no replica";
}

uint32_t
latency_spans(ScenarioKind kind)
{
    switch (kind) {
      case ScenarioKind::Lifetime:
        return bit(Span::ChainOnchip) | bit(Span::ChainEscalated);
      case ScenarioKind::Stream:
        return bit(Span::WindowMatched) | bit(Span::WindowScreened) |
               bit(Span::WindowEmpty);
      case ScenarioKind::Fabric:
        return bit(Span::LinkStep);
      case ScenarioKind::Memory:
        return bit(Span::MwpmTrial);
      case ScenarioKind::Fleet:
      case ScenarioKind::ExactFleet:
        break;
    }
    return 0;
}

ReplicaRun
replicate(const ScenarioSpec &spec, Tracer &tracer)
{
    const std::string why = replica_unsupported(spec);
    if (!why.empty()) {
        throw std::invalid_argument(why);
    }
    ReplicaRun run;
    switch (spec.kind) {
      case ScenarioKind::Lifetime:
        run = replicate_lifetime(spec.to_lifetime_config(), tracer);
        break;
      case ScenarioKind::Stream:
        run = replicate_stream(spec.to_stream_config(), tracer);
        break;
      case ScenarioKind::Fabric:
        run = replicate_fabric(spec.to_fabric_config(), tracer);
        break;
      case ScenarioKind::Memory:
        run = replicate_memory(spec.to_memory_config(), spec.arm, tracer);
        break;
      case ScenarioKind::Fleet:
      case ScenarioKind::ExactFleet:
        break;
    }
    // The harvest into a Report and the teardown since the last span.
    add_free(tracer, Span::Harness, tracer.last_end());
    return run;
}

} // namespace btwc_bench
