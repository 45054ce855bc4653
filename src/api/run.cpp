#include "api/run.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <vector>

#include "common/check.hpp"

namespace btwc {

namespace {

/**
 * Wall-clock of the harness call proper (config adaptation and Report
 * assembly excluded). Lives in its own top-level subtree — a sibling
 * of `metrics`, never inside it — so the bit-exactness tests and the
 * `btwc_diff` regression gate can compare `metrics` subtrees without
 * tripping over timing noise (see src/api/README.md).
 */
class HarnessTimer
{
  public:
    HarnessTimer() : t0_(std::chrono::steady_clock::now()) {}

    /** Stop and record: walltime_ms plus `count/sec` under `rate_key`. */
    void fill(Report &report, const char *rate_key, uint64_t count) const
    {
        const double ms =
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - t0_)
                .count();
        Report &wall = report.child("walltime");
        wall.set("walltime_ms", ms);
        wall.set(rate_key,
                 ms > 0.0 ? static_cast<double>(count) / (ms / 1000.0)
                          : 0.0);
    }

  private:
    std::chrono::steady_clock::time_point t0_;
};

/** Histogram summary with the percentiles the provisioning story uses. */
void
add_histogram(Report &parent, const std::string &key,
              const CountHistogram &histogram)
{
    Report &node = parent.child(key);
    node.set("total", histogram.total());
    node.set("mean", histogram.mean());
    node.set("p50", histogram.percentile(0.50));
    node.set("p90", histogram.percentile(0.90));
    node.set("p99", histogram.percentile(0.99));
    node.set("p999", histogram.percentile(0.999));
    node.set("max", histogram.max_value());
}

void
fill_scenario(Report &report, const ScenarioSpec &spec)
{
    Report &scenario = report.child("scenario");
    scenario.set("kind", scenario_kind_name(spec.kind));
    scenario.set("spec", spec.to_string());
    scenario.set("tiers", spec.tiers.describe());
}

void
fill_engine(Report &config, int threads, uint64_t seed)
{
    config.set("threads", threads);
    config.set("seed", seed);
}

} // namespace

Report
lifetime_metrics_report(const LifetimeStats &stats)
{
    Report metrics;
    metrics.set("cycles", stats.cycles);
    metrics.set("all_zero_cycles", stats.all_zero_cycles);
    metrics.set("trivial_cycles", stats.trivial_cycles);
    metrics.set("complex_cycles", stats.complex_cycles);
    metrics.set("offchip_cycles", stats.offchip_cycles);
    metrics.set("clique_corrections", stats.clique_corrections);
    metrics.set("all_zero_halves", stats.all_zero_halves);
    metrics.set("trivial_halves", stats.trivial_halves);
    metrics.set("complex_halves", stats.complex_halves);
    metrics.set("offchip_halves", stats.offchip_halves);
    Report &tiers = metrics.child("tier_halves");
    tiers.set("clique", stats.tier_halves[0]);
    tiers.set("union_find", stats.tier_halves[1]);
    tiers.set("mwpm", stats.tier_halves[2]);
    tiers.set("exact", stats.tier_halves[3]);
    tiers.set("lut", stats.tier_halves[4]);
    metrics.set("coverage_per_decode", stats.coverage_per_decode());
    metrics.set("coverage_per_cycle", stats.coverage());
    metrics.set("onchip_nonzero_fraction",
                stats.onchip_nonzero_fraction());
    metrics.set("offchip_fraction", stats.offchip_fraction());
    metrics.set("midtier_absorption", stats.midtier_absorption());
    metrics.set("clique_data_reduction", stats.clique_data_reduction());
    metrics.set("mean_raw_weight", stats.raw_weight.mean());
    Report &service = metrics.child("service");
    service.set("landed", stats.offchip_queue_delay.total());
    service.set("suppressed", stats.suppressed_escalations);
    service.set("pending", stats.pending_offchip);
    service.set("mean_queue_delay", stats.offchip_queue_delay.mean());
    service.set("p99_queue_delay",
                stats.offchip_queue_delay.percentile(0.99));
    service.set("mean_link_batch", stats.offchip_batch_sizes.mean());
    return metrics;
}

Report
memory_metrics_report(const MemoryResult &result)
{
    Report metrics;
    metrics.set("trials", result.trials);
    metrics.set("failures", result.failures);
    metrics.set("ler", result.ler());
    const auto [lo, hi] = result.ler_interval();
    metrics.set("ler_ci_lo", lo);
    metrics.set("ler_ci_hi", hi);
    metrics.set("offchip_rounds", result.offchip_rounds);
    metrics.set("total_rounds", result.total_rounds);
    metrics.set("offchip_round_fraction",
                result.total_rounds == 0
                    ? 0.0
                    : static_cast<double>(result.offchip_rounds) /
                          static_cast<double>(result.total_rounds));
    metrics.set("unclear_syndromes", result.unclear_syndromes);
    return metrics;
}

Report
fleet_run_report(const FleetRunResult &run, uint64_t total_cycles)
{
    Report link;
    link.set("bandwidth", run.bandwidth);
    link.set("bandwidth_reduction", run.bandwidth_reduction);
    link.set("work_cycles", run.work_cycles);
    link.set("stall_cycles", run.stall_cycles);
    link.set("max_backlog", run.max_backlog);
    link.set("exec_time_increase", run.exec_time_increase);
    link.set("diverged", run.work_cycles < total_cycles);
    link.set("mean_queue_delay", run.mean_queue_delay);
    link.set("p99_queue_delay", run.p99_queue_delay);
    link.set("max_queue_delay", run.max_queue_delay);
    link.set("mean_batch", run.mean_batch);
    return link;
}

Report
exact_fleet_metrics_report(const FabricStats &stats, bool with_faults)
{
    Report metrics;
    add_histogram(metrics, "demand", stats.demand);
    metrics.set("enqueued", stats.enqueued);
    metrics.set("served", stats.served);
    metrics.set("landed", stats.landed);
    metrics.set("suppressed", stats.suppressed);
    metrics.set("pending", stats.pending);
    metrics.set("stall_cycles", stats.stall_cycles);
    metrics.set("work_cycles", stats.work_cycles);
    metrics.set("max_backlog", stats.max_backlog);
    metrics.set("exec_time_increase", stats.exec_time_increase());
    metrics.set("backlog_mean", stats.backlog.mean());
    Report &delay = metrics.child("queue_delay");
    delay.set("mean", stats.queue_delay.mean());
    delay.set("p99", stats.queue_delay.percentile(0.99));
    delay.set("max", stats.queue_delay.max_value());
    metrics.set("batch_mean", stats.batch_sizes.mean());
    if (with_faults) {
        Report &faults = metrics.child("faults");
        faults.set("outage_cycles", stats.faults.outage_cycles);
        faults.set("dropped", stats.faults.dropped);
        faults.set("duplicated", stats.faults.duplicated);
        faults.set("corrupted", stats.faults.corrupted);
        faults.set("surge_enqueued", stats.faults.surge_enqueued);
        faults.set("surge_landed", stats.faults.surge_landed);
    }
    return metrics;
}

Report
fabric_metrics_report(const FabricStats &stats, bool with_faults)
{
    // The fleet-level block is the exact-fleet schema (its fault keys
    // come with the full ledger below).
    Report metrics = exact_fleet_metrics_report(stats);
    // Fabric block: the SLO observables — deadline misses, the probed
    // logical error rate, and the per-link / per-tenant breakdowns.
    // Everything is a scalar leaf so the btwc_diff BENCH gate covers
    // the whole subtree.
    Report &fabric = metrics.child("fabric");
    fabric.set("deadline_misses", stats.deadline_misses);
    fabric.set("probes", stats.probes);
    fabric.set("probe_failures", stats.probe_failures);
    fabric.set("ler", stats.probes == 0
                          ? 0.0
                          : static_cast<double>(stats.probe_failures) /
                                static_cast<double>(stats.probes));
    Report &links = fabric.child("links");
    for (size_t k = 0; k < stats.per_link.size(); ++k) {
        const LinkFabricStats &mine = stats.per_link[k];
        Report &node = links.child("link" + std::to_string(k));
        node.set("enqueued", mine.enqueued);
        node.set("served", mine.served);
        node.set("landed", mine.landed);
        node.set("stall_cycles", mine.stall_cycles);
        node.set("max_backlog", mine.max_backlog);
        node.set("deadline_misses", mine.deadline_misses);
        node.set("mean_delay", mine.delay.mean());
        node.set("p99_delay", mine.delay.percentile(0.99));
        if (with_faults) {
            node.set("outage_cycles", mine.outage_cycles);
            node.set("dropped", mine.dropped);
            node.set("duplicated", mine.duplicated);
            node.set("corrupted", mine.corrupted);
            node.set("shed", mine.shed);
            node.set("canceled", mine.canceled);
            node.set("stale_discards", mine.stale_discards);
            node.set("surge_enqueued", mine.surge_enqueued);
            node.set("surge_landed", mine.surge_landed);
        }
    }
    Report &tenants = fabric.child("tenants");
    for (size_t q = 0; q < stats.per_tenant.size(); ++q) {
        const TenantFabricStats &mine = stats.per_tenant[q];
        Report &node = tenants.child("t" + std::to_string(q));
        node.set("link", mine.link);
        node.set("enqueued", mine.enqueued);
        node.set("landed", mine.landed);
        node.set("suppressed", mine.suppressed);
        node.set("deadline_misses", mine.deadline_misses);
        node.set("mean_delay", mine.delay.mean());
        node.set("p99_delay", mine.delay.percentile(0.99));
        node.set("probes", mine.probes);
        node.set("failures", mine.failures);
        node.set("ler", mine.probes == 0
                            ? 0.0
                            : static_cast<double>(mine.failures) /
                                  static_cast<double>(mine.probes));
        if (with_faults) {
            node.set("retried", mine.retried);
            node.set("degraded", mine.degraded);
            node.set("dropped", mine.dropped);
            node.set("shed", mine.shed);
            node.set("canceled", mine.canceled);
        }
    }
    if (with_faults) {
        // Chaos-mode aggregate: every injected fault and every
        // degradation response, one scalar each, so the BENCH_chaos
        // btwc_diff gate pins the full injection/response ledger.
        Report &faults = metrics.child("faults");
        faults.set("outage_cycles", stats.faults.outage_cycles);
        faults.set("dropped", stats.faults.dropped);
        faults.set("duplicated", stats.faults.duplicated);
        faults.set("corrupted", stats.faults.corrupted);
        faults.set("shed", stats.faults.shed);
        faults.set("canceled", stats.faults.canceled);
        faults.set("stale_discards", stats.faults.stale_discards);
        faults.set("surge_enqueued", stats.faults.surge_enqueued);
        faults.set("surge_landed", stats.faults.surge_landed);
        faults.set("retried", stats.faults.retried);
        faults.set("degraded", stats.faults.degraded);
        faults.set("nacks", stats.faults.nacks);
        faults.set("duplicate_drops", stats.faults.duplicate_drops);
        faults.set("migrations", stats.faults.migrations);
    }
    return metrics;
}

Report
stream_metrics_report(const StreamStats &stats)
{
    Report metrics;
    metrics.set("rounds", stats.window.rounds);
    metrics.set("streams", stats.streams);
    metrics.set("windows", stats.window.windows);
    metrics.set("all_zero_windows", stats.window.all_zero_windows);
    metrics.set("screened_windows", stats.window.screened_windows);
    metrics.set("matched_windows", stats.window.matched_windows);
    metrics.set("committed_rounds", stats.window.committed_rounds);
    metrics.set("defects_in", stats.window.defects_in);
    metrics.set("defects_committed", stats.window.defects_committed);
    metrics.set("defects_carried", stats.window.defects_carried);
    metrics.set("max_carried", stats.window.max_carried);
    metrics.set("committed_weight", stats.window.committed_weight);
    add_histogram(metrics, "commit_lag", stats.window.commit_lag);
    add_histogram(metrics, "window_defects", stats.window.window_defects);
    metrics.set("unclear_syndromes", stats.unclear_syndromes);
    metrics.set("logical_failures", stats.logical_failures);
    return metrics;
}

namespace {

Report
run_lifetime_scenario(const ScenarioSpec &spec)
{
    const LifetimeConfig config = spec.to_lifetime_config();
    Report report;
    fill_scenario(report, spec);
    Report &conf = report.child("config");
    conf.set("distance", config.distance);
    conf.set("p", config.p);
    conf.set("p_meas", config.meas_probability());
    conf.set("filter_rounds", config.filter_rounds);
    conf.set("mode", config.mode == LifetimeMode::Pipeline
                         ? "pipeline"
                         : "signature");
    conf.set("policy", config.offchip == OffchipPolicy::Mwpm ? "mwpm"
                                                             : "oracle");
    conf.set("cycles", config.cycles);
    conf.set("offchip_latency", config.offchip_latency);
    conf.set("offchip_bandwidth", config.offchip_bandwidth);
    conf.set("offchip_batch", config.offchip_batch);
    fill_engine(conf, config.threads, config.seed);
    const HarnessTimer timer;
    const LifetimeStats stats = run_lifetime(config);
    report.child("metrics") = lifetime_metrics_report(stats);
    timer.fill(report, "cycles_per_sec", stats.cycles);
    return report;
}

Report
run_memory_scenario(const ScenarioSpec &spec)
{
    const MemoryConfig config = spec.to_memory_config();
    Report report;
    fill_scenario(report, spec);
    Report &conf = report.child("config");
    conf.set("distance", config.distance);
    conf.set("p", config.p);
    conf.set("p_meas", config.meas_probability());
    conf.set("rounds", config.rounds > 0 ? config.rounds
                                         : config.distance);
    conf.set("filter_rounds", config.filter_rounds);
    conf.set("arm", decoder_arm_name(spec.arm));
    conf.set("weighted", config.weighted_matching);
    conf.set("error_type",
             config.error_type == CheckType::X ? "x" : "z");
    conf.set("max_trials", config.max_trials);
    conf.set("target_failures", config.target_failures);
    fill_engine(conf, config.threads, config.seed);
    const HarnessTimer timer;
    const MemoryResult result = run_memory_experiment(config, spec.arm);
    report.child("metrics") = memory_metrics_report(result);
    timer.fill(report, "decodes_per_sec", result.trials);
    return report;
}

Report
run_fleet_scenario(const ScenarioSpec &spec)
{
    const FleetConfig config = spec.to_fleet_config();
    Report report;
    fill_scenario(report, spec);
    Report &conf = report.child("config");
    conf.set("num_qubits", config.num_qubits);
    conf.set("q", config.offchip_prob);
    conf.set("hot_fraction", spec.service.hot_fraction);
    conf.set("hot_mult", spec.service.hot_mult);
    conf.set("cycles", config.cycles);
    conf.set("offchip_latency", config.offchip_latency);
    conf.set("offchip_batch", config.offchip_batch);
    conf.set("bandwidth", spec.service.bandwidth);
    fill_engine(conf, config.threads, config.seed);
    Report &metrics = report.child("metrics");
    const HarnessTimer timer;
    if (spec.service.bandwidth > 0) {
        // A provisioned link: the Fig. 16 stall/backlog observables.
        // The demand stream is consumed by the link run itself, so an
        // unprovisioned (`bandwidth=0`) scenario is the way to get
        // the raw demand percentiles — running both here would draw
        // the whole Monte-Carlo trace twice.
        metrics.child("link") = fleet_run_report(
            run_fleet_with_bandwidth(config, spec.service.bandwidth),
            config.cycles);
    } else {
        add_histogram(metrics, "demand", fleet_demand_histogram(config));
    }
    timer.fill(report, "cycles_per_sec", config.cycles);
    return report;
}

Report
run_exact_fleet_scenario(const ScenarioSpec &spec)
{
    const FabricFleetConfig config = spec.to_fabric_config();
    const ExactFleetConfig &fleet = config.fleet;
    Report report;
    fill_scenario(report, spec);
    Report &conf = report.child("config");
    conf.set("distance", fleet.distance);
    conf.set("p", fleet.p);
    conf.set("fleet_size", fleet.num_qubits);
    conf.set("shared_link", spec.service.shared_link);
    conf.set("policy", fleet.offchip == OffchipPolicy::Mwpm ? "mwpm"
                                                            : "oracle");
    conf.set("cycles", fleet.cycles);
    conf.set("offchip_latency", fleet.offchip_latency);
    conf.set("offchip_bandwidth", fleet.offchip_bandwidth);
    conf.set("offchip_batch", fleet.offchip_batch);
    if (config.faults.enabled) {
        conf.set("faults", config.faults.to_string());
    }
    fill_engine(conf, fleet.threads, fleet.seed);
    const HarnessTimer timer;
    const FabricStats stats = run_fabric(config);
    report.child("metrics") =
        exact_fleet_metrics_report(stats, config.faults.enabled);
    timer.fill(report, "cycles_per_sec", fleet.cycles);
    return report;
}

Report
run_fabric_scenario(const ScenarioSpec &spec)
{
    const FabricFleetConfig config = spec.to_fabric_config();
    Report report;
    fill_scenario(report, spec);
    Report &conf = report.child("config");
    conf.set("distance", config.fleet.distance);
    conf.set("p", config.fleet.p);
    conf.set("fleet_size", config.fleet.num_qubits);
    conf.set("policy", config.fleet.offchip == OffchipPolicy::Mwpm
                           ? "mwpm"
                           : "oracle");
    conf.set("links", config.topology.links);
    conf.set("scheduler", scheduler_kind_name(config.topology.scheduler));
    conf.set("placement", placement_kind_name(config.topology.placement));
    conf.set("deadline", config.topology.deadline);
    conf.set("hot_fraction", spec.service.hot_fraction);
    conf.set("hot_mult", spec.service.hot_mult);
    conf.set("probe_interval", config.probe_interval);
    conf.set("cycles", config.fleet.cycles);
    conf.set("offchip_latency", config.fleet.offchip_latency);
    conf.set("offchip_bandwidth", config.fleet.offchip_bandwidth);
    conf.set("offchip_batch", config.fleet.offchip_batch);
    // Chaos keys appear only when configured: a fault-free fabric
    // report (and the BENCH baselines diffed against it) stays
    // byte-identical with the pre-chaos schema.
    const bool chaos = config.faults.enabled || config.timeout > 0 ||
                       config.retries > 0 || config.shed ||
                       config.topology.migrate_threshold > 0;
    if (chaos) {
        conf.set("faults", config.faults.to_string());
        conf.set("timeout", config.timeout);
        conf.set("retries", config.retries);
        conf.set("shed", config.shed);
        conf.set("migrate", config.topology.migrate_threshold);
    }
    fill_engine(conf, config.fleet.threads, config.fleet.seed);
    const HarnessTimer timer;
    const FabricStats stats = run_fabric(config);
    report.child("metrics") = fabric_metrics_report(stats, chaos);
    timer.fill(report, "cycles_per_sec", config.fleet.cycles);
    return report;
}

Report
run_stream_scenario(const ScenarioSpec &spec)
{
    const StreamConfig config = spec.to_stream_config();
    Report report;
    fill_scenario(report, spec);
    Report &conf = report.child("config");
    conf.set("distance", config.distance);
    conf.set("p", config.p);
    conf.set("p_meas", config.meas_probability());
    conf.set("window", config.window);
    conf.set("overlap", config.overlap);
    conf.set("rounds", config.rounds);
    conf.set("error_type",
             config.error_type == CheckType::X ? "x" : "z");
    fill_engine(conf, config.threads, config.seed);
    const HarnessTimer timer;
    const StreamStats stats = run_stream(config);
    report.child("metrics") = stream_metrics_report(stats);
    // decodes/sec counts window decodes (the decoder's unit of work);
    // rounds/sec is the sustained stream throughput headline.
    timer.fill(report, "decodes_per_sec", stats.window.windows);
    Report &wall = report.child("walltime");
    double ms = 0.0;
    report.lookup_double("walltime.walltime_ms", &ms);
    wall.set("rounds_per_sec",
             ms > 0.0 ? static_cast<double>(stats.window.rounds) /
                            (ms / 1000.0)
                      : 0.0);
    return report;
}

} // namespace

Report
run_scenario(const ScenarioSpec &spec)
{
    // An audit= setting holds for exactly this run: the scope restores
    // whatever level the process (env / previous set_audit_level) had.
    std::unique_ptr<ScopedAuditLevel> audit_scope;
    if (spec.engine.audit >= 0) {
        audit_scope = std::make_unique<ScopedAuditLevel>(
            static_cast<AuditLevel>(spec.engine.audit));
    }
    switch (spec.kind) {
      case ScenarioKind::Lifetime:
        return run_lifetime_scenario(spec);
      case ScenarioKind::Memory:
        return run_memory_scenario(spec);
      case ScenarioKind::Fleet:
        return run_fleet_scenario(spec);
      case ScenarioKind::ExactFleet:
        return run_exact_fleet_scenario(spec);
      case ScenarioKind::Stream:
        return run_stream_scenario(spec);
      case ScenarioKind::Fabric:
        return run_fabric_scenario(spec);
    }
    return Report();
}

Report
run_scenario_repeated(const ScenarioSpec &spec, int repeat)
{
    if (repeat < 1) {
        repeat = 1;
    }
    std::vector<Report> runs;
    runs.reserve(static_cast<size_t>(repeat));
    std::vector<double> walltimes;
    walltimes.reserve(static_cast<size_t>(repeat));
    for (int r = 0; r < repeat; ++r) {
        runs.push_back(run_scenario(spec));
        double ms = 0.0;
        runs.back().lookup_double("walltime.walltime_ms", &ms);
        walltimes.push_back(ms);
    }
    // Index of the lower-median walltime (sort indices, not Reports:
    // Report is move-only and the metrics subtrees are identical).
    std::vector<size_t> order(walltimes.size());
    for (size_t i = 0; i < order.size(); ++i) {
        order[i] = i;
    }
    std::sort(order.begin(), order.end(), [&walltimes](size_t a, size_t b) {
        return walltimes[a] < walltimes[b];
    });
    const size_t median = order[(order.size() - 1) / 2];
    Report report = std::move(runs[median]);
    report.child("walltime").set("repeat", repeat);
    return report;
}

} // namespace btwc
