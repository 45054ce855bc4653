/**
 * @file
 * Quickstart: walk one logical qubit through the BTWC decode pipeline.
 *
 * Builds a distance-5 rotated surface code, shows how a trivial error
 * signature is resolved on-chip by the Clique decoder, how a complex
 * signature is flagged and handed to the off-chip MWPM decoder, how a
 * deeper Clique -> Union-Find -> MWPM tier chain absorbs it on-chip
 * instead, and runs a short noisy lifetime through the full
 * `BtwcSystem`.
 *
 *     ./quickstart [--distance 5] [--p 0.003] [--cycles 2000]
 *                  [--offchip-latency 0] [--offchip-bandwidth 0]
 */

#include <cstdio>

#include "api/json_output.hpp"
#include "common/flags.hpp"
#include "core/clique.hpp"
#include "core/system.hpp"
#include "decoders/tier_chain.hpp"
#include "matching/mwpm.hpp"
#include "surface/frame.hpp"
#include "surface/lattice.hpp"

int
main(int argc, char **argv)
{
    using namespace btwc;
    const Flags flags = flags_or_exit(argc, argv);
    JsonOutput json(flags, "quickstart");
    const int d = static_cast<int>(flags.get_int("distance", 5));
    const double p = flags.get_double("p", 3e-3);
    const int cycles = static_cast<int>(flags.get_int("cycles", 2000));

    const RotatedSurfaceCode code(d);
    std::printf("rotated surface code: d=%d, %d data qubits, %d+%d "
                "checks\n\n",
                d, code.num_data(), code.num_checks(CheckType::X),
                code.num_checks(CheckType::Z));

    // --- 1. A trivial (Local-1s) signature, resolved on-chip. ---
    const CliqueDecoder clique(code, CheckType::Z);
    ErrorFrame frame(code, CheckType::X);
    const int lone_qubit = code.data_id(d / 2, d / 2);
    frame.flip(lone_qubit);
    std::vector<uint8_t> syndrome;
    frame.measure_perfect(syndrome);
    CliqueOutcome outcome = clique.decode(syndrome);
    std::printf("single X error on data qubit %d -> verdict %s, "
                "correction:",
                lone_qubit,
                outcome.verdict == CliqueVerdict::Trivial ? "TRIVIAL"
                                                          : "complex");
    for (const int q : outcome.corrections) {
        std::printf(" %d", q);
    }
    frame.apply(outcome.corrections);
    std::printf("  (syndrome clear: %s)\n\n",
                frame.syndrome_clear() ? "yes" : "no");

    // --- 2. A complex signature, handed off-chip to MWPM. ---
    frame.reset();
    // A 2-chain: two errors sharing a check leave lonely endpoints.
    const Check &mid = code.check(CheckType::Z,
                                  code.num_checks(CheckType::Z) / 2);
    frame.flip(mid.data[0]);
    frame.flip(mid.data[3 % mid.data.size()]);
    frame.measure_perfect(syndrome);
    outcome = clique.decode(syndrome);
    std::printf("2-chain through check %d -> verdict %s\n", mid.id,
                outcome.verdict == CliqueVerdict::Complex ? "COMPLEX"
                                                          : "trivial");
    if (outcome.verdict == CliqueVerdict::Complex) {
        const MwpmDecoder mwpm(code, CheckType::Z);
        const auto fix = mwpm.decode_packed(frame.syndrome());
        frame.apply_mask(fix.correction);
        std::printf("off-chip MWPM matched %d defects at weight %lld "
                    "(syndrome clear: %s)\n\n",
                    fix.defects, static_cast<long long>(fix.weight),
                    frame.syndrome_clear() ? "yes" : "no");
    }

    // --- 3. The same complex signature through a deep tier chain. ---
    // §8.1: a Union-Find mid-tier absorbs most COMPLEX hand-offs
    // before anything has to leave the chip.
    const TierChain chain(code, CheckType::Z, TierChainConfig::deep());
    ErrorFrame chain_frame(code, CheckType::X);
    chain_frame.flip(mid.data[0]);
    chain_frame.flip(mid.data[3 % mid.data.size()]);
    const TierChain::Result chained =
        chain.decode_syndrome(chain_frame.syndrome());
    if (chained.decode.defects > 0) {
        chain_frame.apply_mask(chained.decode.correction);
    }
    std::printf("tier chain %s resolved it at tier '%s' (%s, growth "
                "effort %d, syndrome clear: %s)\n\n",
                chain.config().describe().c_str(),
                decoder_tier_name(chained.tier),
                chained.offchip ? "off-chip" : "on-chip",
                chained.effort,
                chain_frame.syndrome_clear() ? "yes" : "no");

    // --- 4. The full pipeline under phenomenological noise. ---
    // Escalations ride the async off-chip service: with the default
    // zero-latency unlimited-bandwidth link this is exactly the
    // synchronous model; --offchip-latency / --offchip-bandwidth make
    // corrections land cycles late over a narrow link.
    const OffchipServiceFlags offchip = offchip_from_flags(flags);
    SystemConfig config;
    config.offchip = OffchipPolicy::Mwpm;
    config.offchip_latency = offchip.latency;
    config.offchip_bandwidth = offchip.bandwidth;
    config.offchip_batch = offchip.batch;
    BtwcSystem system(code, NoiseParams::uniform(p), config, 42);
    int zeros = 0;
    int trivial = 0;
    int complex_cycles = 0;
    for (int i = 0; i < cycles; ++i) {
        switch (system.step().verdict) {
          case CliqueVerdict::AllZeros:
            ++zeros;
            break;
          case CliqueVerdict::Trivial:
            ++trivial;
            break;
          case CliqueVerdict::Complex:
            ++complex_cycles;
            break;
        }
    }
    std::printf("%d noisy cycles at p=%g: %.1f%% all-zeros, %.1f%% "
                "trivial (on-chip), %.2f%% complex (off-chip)\n",
                cycles, p, 100.0 * zeros / cycles,
                100.0 * trivial / cycles,
                100.0 * complex_cycles / cycles);
    std::printf("=> off-chip bandwidth eliminated: %.2f%%\n",
                100.0 * (1.0 - static_cast<double>(complex_cycles) /
                                   cycles));
    const OffchipQueue &queue = system.offchip_queue();
    std::printf("=> off-chip service: %llu decodes landed, mean "
                "enqueue-to-landing delay %.2f cycles (latency %llu, "
                "bandwidth %s)\n",
                static_cast<unsigned long long>(queue.landed()),
                queue.delay_histogram().mean(),
                static_cast<unsigned long long>(offchip.latency),
                offchip.bandwidth == 0
                    ? "unlimited"
                    : std::to_string(offchip.bandwidth).c_str());
    Report &report = json.report();
    report.set("distance", d);
    report.set("p", p);
    report.set("cycles", cycles);
    Report &pipeline = report.child("pipeline");
    pipeline.set("all_zero_cycles", zeros);
    pipeline.set("trivial_cycles", trivial);
    pipeline.set("complex_cycles", complex_cycles);
    pipeline.set("offchip_bandwidth_eliminated",
                 1.0 - static_cast<double>(complex_cycles) / cycles);
    Report &service = report.child("service");
    service.set("landed", queue.landed());
    service.set("mean_queue_delay", queue.delay_histogram().mean());
    service.set("latency", offchip.latency);
    service.set("bandwidth", offchip.bandwidth);
    return json.finish();
}
