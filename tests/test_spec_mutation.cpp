/**
 * @file
 * Seeded mutation test of the hand-written parsers: the scenario
 * grammar (ScenarioSpec::try_parse), the tier grammar
 * (TierChainConfig::try_parse), the fault grammar
 * (FaultPlan::try_parse) and the JSON reader (json_parse). It starts
 * from every spec the repository ships (registry, tests/golden
 * Reports, benchmark workloads) and drops, duplicates and swaps
 * fields, flips characters, and substitutes edge numbers and other
 * keys' spellings. Every mutant must either
 *   - parse to a value whose canonical string is a fixpoint and
 *     re-parses to an equal value, or
 *   - be rejected with a non-empty diagnostic, the output untouched.
 * The JSON reader starts from every committed BENCH_*.json artifact
 * and every .json Report under tests/golden, and drops, duplicates
 * and flips characters and splices in deep nesting, edge numbers and
 * bad escapes; a mutant must parse or be rejected the same clean way,
 * and must never crash the process.
 * Fixed seeds keep it deterministic and it takes well under a second,
 * so it runs in every ctest leg, the sanitizer builds included.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "api/json_input.hpp"
#include "api/registry.hpp"
#include "api/scenario.hpp"
#include "common/rng.hpp"
#include "decoders/tier_chain.hpp"
#include "faults/fault_plan.hpp"
#include "spec_corpus.hpp"

namespace btwc {
namespace {

/** Registry, golden-pin and benchmark-workload spec strings. */
std::vector<std::string>
shipped_specs()
{
    std::vector<std::string> specs;
    for (const NamedScenario &entry : scenario_registry()) {
        specs.push_back(entry.spec);
    }
    for (const char *name : golden_reports()) {
        JsonValue report;
        const std::string path =
            std::string(BTWC_GOLDEN_DIR) + "/" + name + ".json";
        if (json_parse_file(path, &report, nullptr) &&
            report.find_path("scenario.spec") != nullptr) {
            specs.push_back(report.find_path("scenario.spec")->s);
        }
    }
    JsonValue workloads;
    if (json_parse_file(repo_path("benchmark/workloads.json"), &workloads,
                        nullptr) &&
        workloads.find("workloads") != nullptr) {
        for (const JsonValue &entry : workloads.find("workloads")->array) {
            if (entry.find("spec") != nullptr) {
                specs.push_back(entry.find("spec")->s);
            }
        }
    }
    return specs;
}

std::vector<std::string>
split(const std::string &text, char sep)
{
    std::vector<std::string> out;
    size_t start = 0;
    while (true) {
        const size_t end = text.find(sep, start);
        if (end == std::string::npos) {
            out.push_back(text.substr(start));
            return out;
        }
        out.push_back(text.substr(start, end - start));
        start = end + 1;
    }
}

std::string
join(const std::vector<std::string> &fields, char sep)
{
    std::string out;
    for (size_t i = 0; i < fields.size(); ++i) {
        out += i == 0 ? "" : std::string(1, sep);
        out += fields[i];
    }
    return out;
}

const char *const kEdgeNumbers[] = {
    "2147483648", "4294967297", "-2147483649", "9223372036854775808",
    "-0",         "nan",        "inf",         "-inf",
    "-1",         "0",          "1e-320",      "0x10",
};

/**
 * One to three random edits of the `sep`-separated fields of `text`:
 * drop, duplicate or swap a field, flip a character, put an edge
 * number after its last '=' or ':', or swap its name for one of
 * `names`.
 */
std::string
mutate(const std::string &text, char sep,
       const std::vector<std::string> &names, Rng &rng)
{
    static const char kAlphabet[] = "=,:;-+.0123456789aefinuxz";
    std::vector<std::string> fields = split(text, sep);
    const uint64_t edits = 1 + rng.next_below(3);
    for (uint64_t edit = 0; edit < edits; ++edit) {
        if (fields.empty()) {
            fields.emplace_back();
        }
        const size_t i = rng.next_below(fields.size());
        std::string &field = fields[i];
        switch (rng.next_below(6)) {
          case 0:
            fields.erase(fields.begin() + static_cast<long>(i));
            break;
          case 1: {
            const std::string copy = field;
            fields.insert(fields.begin() + static_cast<long>(rng.next_below(
                                               fields.size() + 1)),
                          copy);
            break;
          }
          case 2:
            std::swap(field, fields[rng.next_below(fields.size())]);
            break;
          case 3: {
            const char c = kAlphabet[rng.next_below(sizeof(kAlphabet) - 1)];
            if (field.empty()) {
                field += c;
            } else {
                field[rng.next_below(field.size())] = c;
            }
            break;
          }
          case 4: {
            const size_t cut = field.find_last_of("=:");
            field = field.substr(0, cut == std::string::npos ? 0 : cut + 1) +
                    kEdgeNumbers[rng.next_below(std::size(kEdgeNumbers))];
            break;
          }
          default: {
            const std::string &name = names[rng.next_below(names.size())];
            const size_t cut = field.find_first_of("=:");
            field = name + (cut == std::string::npos ? ""
                                                     : field.substr(cut));
            break;
          }
        }
    }
    return join(fields, sep);
}

void
check_spec(const std::string &text)
{
    static const ScenarioSpec sentinel =
        ScenarioSpec::parse("kind=memory,d=9,trials=7");
    ScenarioSpec out = sentinel;
    std::string error;
    if (!ScenarioSpec::try_parse(text, &out, &error)) {
        EXPECT_FALSE(error.empty()) << text;
        EXPECT_EQ(out, sentinel) << text;
        return;
    }
    const std::string canonical = out.to_string();
    ScenarioSpec back = sentinel;
    ASSERT_TRUE(ScenarioSpec::try_parse(canonical, &back, &error))
        << text << " -> " << canonical << ": " << error;
    EXPECT_EQ(back.to_string(), canonical) << text;
}

void
check_tiers(const std::string &text)
{
    const TierChainConfig sentinel = TierChainConfig::deep(7);
    TierChainConfig out = sentinel;
    std::string error;
    if (!TierChainConfig::try_parse(text, 3, &out, &error)) {
        EXPECT_FALSE(error.empty()) << text;
        EXPECT_EQ(out.describe(), sentinel.describe()) << text;
        return;
    }
    // The canonical form pins every Union-Find threshold, so it
    // re-parses identically under any other uf_threshold default.
    const std::string canonical = tiers_spec_string(out);
    TierChainConfig back = sentinel;
    ASSERT_TRUE(TierChainConfig::try_parse(canonical, 5, &back, &error))
        << text << " -> " << canonical << ": " << error;
    EXPECT_EQ(tiers_spec_string(back), canonical) << text;
    EXPECT_EQ(back.describe(), out.describe()) << text;
}

void
check_faults(const std::string &text)
{
    FaultPlan sentinel;
    ASSERT_TRUE(FaultPlan::try_parse("drop:0.5", &sentinel, nullptr));
    FaultPlan out = sentinel;
    std::string error;
    if (!FaultPlan::try_parse(text, &out, &error)) {
        EXPECT_FALSE(error.empty()) << text;
        EXPECT_EQ(out.to_string(), sentinel.to_string()) << text;
        return;
    }
    const std::string canonical = out.to_string();
    FaultPlan back = sentinel;
    ASSERT_TRUE(FaultPlan::try_parse(canonical, &back, &error))
        << text << " -> " << canonical << ": " << error;
    EXPECT_EQ(back.to_string(), canonical) << text;
}

TEST(SpecMutation, ScenarioSpecsRoundTripOrRejectCleanly)
{
    const std::vector<std::string> specs = shipped_specs();
    // 20 registry entries, 9 golden pins, 4 benchmark workloads.
    ASSERT_EQ(specs.size(), 33u);
    const std::vector<std::string> &names = scenario_override_flags();
    Rng rng(20);
    for (const std::string &spec : specs) {
        check_spec(spec);
        for (int i = 0; i < 120; ++i) {
            check_spec(mutate(spec, ',', names, rng));
        }
    }
}

TEST(SpecMutation, TierChainsRoundTripOrRejectCleanly)
{
    std::vector<std::string> chains = {"clique,uf:2,mwpm", "uf:2,stream",
                                       "lut,mwpm", "clique:1,exact"};
    for (const std::string &spec : shipped_specs()) {
        chains.push_back(tiers_spec_string(ScenarioSpec::parse(spec).tiers));
    }
    const std::vector<std::string> names = {
        "clique", "uf",    "union-find", "unionfind", "mwpm",
        "matching", "exact", "lut",      "stream",
    };
    Rng rng(21);
    for (const std::string &chain : chains) {
        check_tiers(chain);
        for (int i = 0; i < 60; ++i) {
            check_tiers(mutate(chain, ',', names, rng));
        }
    }
}

TEST(SpecMutation, FaultPlansRoundTripOrRejectCleanly)
{
    std::vector<std::string> plans = {
        "none",
        "outage:500:60:0;spike:150:24:6;drop:0.04;dup:0.03;corrupt:0.04;"
        "surge:300:60:2:1;fseed:7",
    };
    for (const std::string &spec : shipped_specs()) {
        const FaultPlan &plan = ScenarioSpec::parse(spec).service.faults;
        if (plan.enabled) {
            plans.push_back(plan.to_string());
        }
    }
    const std::vector<std::string> names = {
        "outage", "spike", "drop", "dup", "corrupt", "surge", "fseed", "none",
    };
    Rng rng(22);
    for (const std::string &plan : plans) {
        check_faults(plan);
        for (int i = 0; i < 400; ++i) {
            check_faults(mutate(plan, ';', names, rng));
        }
    }
}

/** Every committed BENCH_*.json and tests/golden .json file, read whole. */
std::vector<std::pair<std::string, std::string>>
json_artifacts()
{
    namespace fs = std::filesystem;
    std::vector<std::string> paths;
    for (const fs::directory_entry &entry :
         fs::directory_iterator(repo_path(""))) {
        const std::string name = entry.path().filename().string();
        if (name.rfind("BENCH_", 0) == 0 &&
            entry.path().extension() == ".json") {
            paths.push_back(entry.path().string());
        }
    }
    for (const fs::directory_entry &entry :
         fs::directory_iterator(BTWC_GOLDEN_DIR)) {
        if (entry.path().extension() == ".json") {
            paths.push_back(entry.path().string());
        }
    }
    std::sort(paths.begin(), paths.end());
    std::vector<std::pair<std::string, std::string>> out;
    for (const std::string &path : paths) {
        std::ifstream in(path, std::ios::binary);
        out.emplace_back(path, std::string(std::istreambuf_iterator<char>(in),
                                           std::istreambuf_iterator<char>()));
    }
    return out;
}

const char *const kJsonSplices[] = {
    "-",      "--1",  "1e",   "1e999", "-1e999", ".5",     "1.",
    "0x10",   "nan",  "inf",  "-0",    "1e-400", "+1",     "00",
    "9223372036854775808",    "\"\\u-012\"",   "\"\\u00e9\"",
    "\"\\uZZZZ\"",        "\"\\u12\"",     "\"\\",
    "\"\\x\"",            "tru",  "nul",  "{\"\":",  ",]",  "[,",
};

/**
 * One to three random edits of `text`: drop, duplicate or flip a run
 * of characters, or splice in deep nesting or a token from
 * kJsonSplices.
 */
std::string
mutate_json(std::string text, Rng &rng)
{
    static const char kAlphabet[] = "{}[]:,\"\\-+.eE0123456789tfnu \n";
    const uint64_t edits = 1 + rng.next_below(3);
    for (uint64_t edit = 0; edit < edits; ++edit) {
        const size_t at = rng.next_below(text.size() + 1);
        const size_t run = std::min<size_t>(1 + rng.next_below(8),
                                            text.size() - at);
        switch (rng.next_below(5)) {
          case 0:
            text.erase(at, run);
            break;
          case 1:
            text.insert(at, text.substr(at, run));
            break;
          case 2:
            if (at < text.size()) {
                text[at] = kAlphabet[rng.next_below(sizeof(kAlphabet) - 1)];
            }
            break;
          case 3: {
            // Nesting just under, at and over the reader's cap, and far
            // past it: a long run of '[' once overflowed the stack.
            const size_t depths[] = {63, 64, 65, 1000, 200000};
            const size_t depth = depths[rng.next_below(std::size(depths))];
            const bool close = rng.bernoulli(0.5);
            text.insert(at, std::string(depth, '[') +
                                (close ? std::string(depth, ']') : ""));
            break;
          }
          default:
            text.insert(at, kJsonSplices[rng.next_below(
                                std::size(kJsonSplices))]);
            break;
        }
    }
    return text;
}

void
check_json(const std::string &text)
{
    JsonValue out;
    out.kind = JsonValue::Kind::String;
    out.s = "sentinel";
    std::string error;
    if (!json_parse(text, &out, &error)) {
        EXPECT_FALSE(error.empty()) << text.substr(0, 200);
        EXPECT_TRUE(out.kind == JsonValue::Kind::String &&
                    out.s == "sentinel" && out.array.empty() &&
                    out.object.empty())
            << text.substr(0, 200);
    }
}

TEST(JsonMutation, ArtifactsParseOrRejectCleanly)
{
    const std::vector<std::pair<std::string, std::string>> artifacts =
        json_artifacts();
    // 5 BENCH_* artifacts and 9 golden Reports at least.
    ASSERT_GE(artifacts.size(), 14u);
    Rng rng(23);
    for (const auto &artifact : artifacts) {
        JsonValue doc;
        std::string error;
        EXPECT_TRUE(json_parse(artifact.second, &doc, &error))
            << artifact.first << ": " << error;
        for (int i = 0; i < 60; ++i) {
            check_json(mutate_json(artifact.second, rng));
        }
    }
}

TEST(JsonMutation, DeepNestingAndBadEscapesAreDiagnostics)
{
    for (const std::string &text :
         {std::string(200000, '['), std::string(65, '[') + "1" +
                                        std::string(65, ']'),
          std::string("\"\\u-012\""), std::string("\"\\u 12a\""),
          std::string("\"\\u0x1f\""), std::string("\"\\u+abc\"")}) {
        JsonValue out;
        std::string error;
        EXPECT_FALSE(json_parse(text, &out, &error)) << text.substr(0, 80);
        EXPECT_FALSE(error.empty());
        EXPECT_EQ(out.kind, JsonValue::Kind::Null);
    }
    JsonValue ok;
    std::string error;
    ASSERT_TRUE(json_parse(std::string(64, '[') + std::string(64, ']'), &ok,
                           &error))
        << error;
    ASSERT_TRUE(json_parse("\"\\u00e9\\u004A\"", &ok, &error)) << error;
    EXPECT_EQ(ok.s, "\xc3\xa9J");
}

} // namespace
} // namespace btwc
