#pragma once

/**
 * @file
 * Seeded corpus of the memory-experiment golden pin
 * (tests/golden/memory_trials.txt, checked by
 * tests/test_memory_trials.cpp). Each case is one
 * `run_memory_experiment` call; each golden line records the case
 * label and every counter of its `MemoryResult`.
 *
 * The golden file was generated by the byte-path trial loop that the
 * packed per-cycle pipeline replaced (byte extraction, byte filter,
 * byte Clique and a per-check event scan, with a fresh frame and
 * filter per trial), so it pins that the port draws, filters, screens
 * and decodes exactly as before, and that no state leaks between the
 * trials of a shard.
 */

#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "sim/memory.hpp"

namespace btwc {

struct MemoryCase
{
    std::string label;
    MemoryConfig config;
    DecoderArm arm;
};

/**
 * d in {3, 5, 7, 9} x every arm x filter_rounds in {1, 2, 3} x both
 * error types x three variants: plain (rounds = d); asymmetric noise
 * (p_meas = 2p) with weighted matching over d + 2 rounds; three shards
 * over single-round trials at p = 5e-2, where most cases stop early at
 * 7 failures (the cross-shard budget of run_memory_experiment).
 */
inline std::vector<MemoryCase>
memory_corpus()
{
    std::vector<MemoryCase> corpus;
    uint64_t seed = 1;
    for (const int d : {3, 5, 7, 9}) {
        for (const DecoderArm arm :
             {DecoderArm::MwpmOnly, DecoderArm::CliqueMwpm,
              DecoderArm::UnionFindOnly}) {
            for (const int filter : {1, 2, 3}) {
                for (const CheckType type : {CheckType::X, CheckType::Z}) {
                    for (const char *variant :
                         {"plain", "weighted", "sharded"}) {
                        MemoryConfig config;
                        config.distance = d;
                        config.p = 1e-2;
                        config.max_trials = 300;
                        config.target_failures = 300;
                        config.filter_rounds = filter;
                        config.error_type = type;
                        config.seed = seed++;
                        const std::string name = variant;
                        if (name == "weighted") {
                            config.p_meas = 2 * config.p;
                            config.weighted_matching = true;
                            config.rounds = d + 2;
                        } else if (name == "sharded") {
                            config.p = 5e-2;
                            config.threads = 3;
                            config.target_failures = 7;
                            config.rounds = 1;
                        }
                        corpus.push_back(MemoryCase{
                            "d=" + std::to_string(d) + " arm=" +
                                decoder_arm_name(arm) + " filter=" +
                                std::to_string(filter) + " type=" +
                                (type == CheckType::X ? "X" : "Z") +
                                " " + name,
                            config, arm});
                    }
                }
            }
        }
    }
    return corpus;
}

/** The golden line of one case's result. */
inline std::string
memory_line(const MemoryCase &c, const MemoryResult &r)
{
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  " trials=%" PRIu64 " failures=%" PRIu64
                  " offchip_rounds=%" PRIu64 " total_rounds=%" PRIu64
                  " unclear=%" PRIu64,
                  r.trials, r.failures, r.offchip_rounds, r.total_rounds,
                  r.unclear_syndromes);
    return c.label + buf;
}

} // namespace btwc
