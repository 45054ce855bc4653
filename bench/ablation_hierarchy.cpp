/**
 * @file
 * Ablation for the §8.1 "deeper hierarchy" extension: insert a
 * Union-Find mid-tier between Clique and MWPM and sweep its
 * escalation threshold.
 *
 * For each configuration this prints the fraction of decodes resolved
 * at each tier, the residual MWPM (off-chip) fraction, and the rate of
 * logical disagreement with MWPM-only decoding on the same syndromes.
 * Expected shape: the UF tier absorbs most of Clique's COMPLEX
 * hand-offs (a further order-of-magnitude off-chip reduction) at a
 * sub-percent accuracy cost.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "decoders/tier_chain.hpp"
#include "matching/mwpm.hpp"
#include "surface/frame.hpp"
#include "surface/lattice.hpp"

int
main(int argc, char **argv)
{
    using namespace btwc;
    const Flags flags = flags_or_exit(argc, argv);
    JsonOutput json(flags, "ablation_hierarchy");
    const uint64_t cycles = bench_cycles(flags, 20000, 1000000);
    const int distance = static_cast<int>(flags.get_int("distance", 9));
    const double p = flags.get_double("p", 5e-3);
    const uint64_t seed = static_cast<uint64_t>(flags.get_int("seed", 1));

    bench_header("Ablation: decode hierarchy (Clique -> UF -> MWPM)",
                 "§8.1 extension: a Union-Find mid-tier absorbs most "
                 "of Clique's COMPLEX hand-offs before the exact "
                 "matcher.");
    std::printf("d=%d, p=%g, %llu sampled signatures per row\n\n",
                distance, p, static_cast<unsigned long long>(cycles));

    const RotatedSurfaceCode code(distance);
    const MwpmDecoder mwpm(code, CheckType::Z);

    Table table({"uf_threshold", "clique_%", "uf_%", "mwpm_%",
                 "offchip_reduction_x", "logical_disagree_%"});
    for (const int threshold : {0, 1, 2, 4, 8}) {
        // Threshold 0 is the paper's two-level Clique -> MWPM chain.
        const TierChain chain(code, CheckType::Z,
                              threshold > 0
                                  ? TierChainConfig::deep(threshold)
                                  : TierChainConfig::legacy());

        Rng rng(seed);
        ErrorFrame frame(code, CheckType::X);
        uint64_t tier_count[3] = {0, 0, 0};
        uint64_t disagreements = 0;
        for (uint64_t i = 0; i < cycles; ++i) {
            frame.reset();
            frame.inject(p, rng);
            const PackedSyndrome &syndrome = frame.syndrome();
            const auto result = chain.decode_syndrome(syndrome);
            ++tier_count[static_cast<int>(result.tier)];
            if (result.tier != DecoderTier::Clique) {
                ErrorFrame hier_frame = frame;
                ErrorFrame mwpm_frame = frame;
                hier_frame.apply_mask(result.decode.correction);
                mwpm_frame.apply_mask(
                    mwpm.decode_packed(syndrome).correction);
                disagreements += hier_frame.logical_flipped() !=
                                         mwpm_frame.logical_flipped()
                                     ? 1
                                     : 0;
            }
        }
        const double denom = static_cast<double>(cycles);
        const double mwpm_frac = tier_count[2] / denom;
        table.add_row(
            {threshold == 0 ? "off (paper)" : std::to_string(threshold),
             Table::num(100.0 * tier_count[0] / denom, 2),
             Table::num(100.0 * tier_count[1] / denom, 2),
             Table::num(100.0 * mwpm_frac, 3),
             mwpm_frac > 0 ? Table::num(1.0 / mwpm_frac, 0) : "inf",
             Table::num(100.0 * disagreements / denom, 4)});
    }
    if (flags.get_bool("csv")) {
        std::fputs(table.to_csv().c_str(), stdout);
    } else {
        table.print();
    }
    std::printf("\nExpected shape: the UF tier cuts the MWPM fraction "
                "by ~10x over the paper's two-level design at "
                "negligible logical disagreement.\n");
    json.report().set("distance", distance);
    json.report().set("p", p);
    json.report().set("cycles", cycles);
    json.add_table("sweep", table);
    return json.finish();
}
