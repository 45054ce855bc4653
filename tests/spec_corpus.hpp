#pragma once

/**
 * @file
 * Test data shared by the scenario-grammar tests (test_api.cpp,
 * test_faults.cpp, test_golden.cpp, test_spec_mutation.cpp): a sample
 * value for every key-table row, the committed spec-bearing files, and
 * a path helper rooted at the repository.
 */

#include <map>
#include <string>
#include <vector>

#include "api/scenario.hpp"

#ifndef BTWC_GOLDEN_DIR
#error "BTWC_GOLDEN_DIR must name the tests/golden directory"
#endif

namespace btwc {

/** Every ScenarioKind, in enum order. */
constexpr ScenarioKind kEveryKind[] = {
    ScenarioKind::Lifetime,   ScenarioKind::Memory, ScenarioKind::Fleet,
    ScenarioKind::ExactFleet, ScenarioKind::Stream, ScenarioKind::Fabric,
};

/**
 * Values to try for each key, by canonical spelling. The first is
 * non-default and valid on the key's last owning kind; the key-effect
 * test takes the first one its base spec does not already hold. A
 * key-table row without an entry here fails the tests that loop over
 * the table.
 */
inline const std::map<std::string, std::vector<std::string>> &
key_samples()
{
    static const std::map<std::string, std::vector<std::string>> kSamples = {
        {"kind", {"memory"}},
        {"d", {"7"}},
        {"p", {"0.02", "0.01"}},
        {"p_meas", {"0.03"}},
        {"filter", {"3"}},
        {"rounds", {"4"}},
        {"error_type", {"z"}},
        {"window", {"6"}},
        {"overlap", {"3"}},
        {"tiers", {"clique,uf,mwpm", "uf:5,stream", "clique,mwpm"}},
        {"uf_threshold", {"5"}},
        {"mode", {"pipeline", "signature"}},
        {"policy", {"mwpm", "oracle"}},
        {"arm", {"mwpm"}},
        {"weighted", {"true"}},
        {"latency", {"3"}},
        {"bandwidth", {"3"}},
        {"batch", {"1"}},
        {"shared", {"true", "false"}},
        {"scheduler", {"priority"}},
        {"links", {"3"}},
        {"placement", {"least-loaded"}},
        {"deadline", {"4"}},
        {"faults", {"outage:50:20"}},
        {"timeout", {"3"}},
        {"retries", {"2"}},
        {"shed", {"true"}},
        {"migrate", {"4"}},
        {"fleet", {"5"}},
        {"qubits", {"300"}},
        {"q", {"0.02"}},
        {"hot_fraction", {"0.5"}},
        {"hot_mult", {"8"}},
        {"cycles", {"200", "100"}},
        {"trials", {"50"}},
        {"failures", {"3"}},
        {"threads", {"2"}},
        {"seed", {"9"}},
        {"audit", {"basic"}},
    };
    return kSamples;
}

/** The tests/golden Report pins (tests/test_golden.cpp). */
inline const std::vector<const char *> &
golden_reports()
{
    static const std::vector<const char *> kNames = {
        "lifetime_inline_oracle", "lifetime_deep_chain",
        "lifetime_contended_queue", "fleet_private_links",
        "fleet_shared_fifo", "fleet_shared_fifo_faults",
        "fabric_fifo_shed", "stream_d21", "memory_weighted",
    };
    return kNames;
}

/** A path inside the repository (BTWC_GOLDEN_DIR is tests/golden). */
inline std::string
repo_path(const std::string &relative)
{
    return std::string(BTWC_GOLDEN_DIR) + "/../../" + relative;
}

} // namespace btwc
