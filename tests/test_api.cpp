/**
 * @file
 * Tests for the unified ScenarioSpec / run_scenario / Report API
 * (src/api): spec grammar round-trips and rejects, flag
 * consolidation, Report rendering (JSON / flat / CSV) with a golden
 * key-stability check, and — the load-bearing guarantee — bit-exact
 * equivalence of `run_scenario` with direct legacy-config harness
 * calls for hand-written specs and for *every* registry scenario.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "api/json_output.hpp"
#include "api/registry.hpp"
#include "api/report.hpp"
#include "api/run.hpp"
#include "api/scenario.hpp"
#include "fabric/harness.hpp"
#include "sim/fleet.hpp"
#include "sim/lifetime.hpp"
#include "sim/memory.hpp"
#include "spec_corpus.hpp"

namespace btwc {
namespace {

// ------------------------------------------------------------ grammar

TEST(ScenarioSpec, ParsesTheIssueExample)
{
    const ScenarioSpec spec = ScenarioSpec::parse(
        "kind=exact-fleet,d=21,p=1e-3,tiers=clique,uf:3,mwpm,latency=2,"
        "bandwidth=1,fleet=50");
    EXPECT_EQ(spec.kind, ScenarioKind::ExactFleet);
    EXPECT_EQ(spec.code.distance, 21);
    EXPECT_DOUBLE_EQ(spec.code.p, 1e-3);
    EXPECT_EQ(spec.tiers.describe(), "clique>union-find(3)>mwpm");
    EXPECT_EQ(spec.service.latency, 2u);
    EXPECT_EQ(spec.service.bandwidth, 1u);
    EXPECT_EQ(spec.service.fleet_size, 50);
}

TEST(ScenarioSpec, ToStringRoundTripsEveryField)
{
    const std::vector<std::string> specs = {
        "",
        "kind=lifetime",
        "kind=exact-fleet,d=21,p=1e-3,tiers=clique,uf:3,mwpm,latency=2,"
        "bandwidth=1,fleet=50",
        "kind=lifetime,d=9,p=5e-3,p_meas=0.01,filter=3,"
        "tiers=clique,uf:2,mwpm,mode=pipeline,policy=mwpm,latency=4,"
        "bandwidth=1,batch=8,cycles=20000,threads=4,seed=7",
        "kind=memory,d=7,p=8e-3,p_meas=0.016,rounds=9,error_type=z,"
        "arm=mwpm,weighted,trials=4000,failures=50",
        "kind=memory,arm=uf",
        "kind=fleet,qubits=2000,q=0.004,hot_fraction=0.1,hot_mult=8,"
        "bandwidth=12,cycles=100000",
        "kind=exact-fleet,d=5,p=6e-3,shared,fleet=12,latency=2,"
        "bandwidth=1,batch=4,cycles=3000",
        "kind=fabric,d=5,p=8e-3,policy=mwpm,latency=2,bandwidth=1,"
        "scheduler=deadline,links=2,placement=isolate,deadline=8,"
        "fleet=12,hot_fraction=0.25,hot_mult=3,cycles=4000",
        // Bare kinds, modes and boolean key names.
        "pipeline",
        "exactfleet,shared",
        "memory,weighted",
        "fabric,shed",
        "tiers=clique,exact",
        "tiers=uf:-1,mwpm",
    };
    for (const std::string &text : specs) {
        SCOPED_TRACE(text);
        const ScenarioSpec spec = ScenarioSpec::parse(text);
        const std::string canonical = spec.to_string();
        // Canonical form is a fixpoint and reconstructs the spec.
        const ScenarioSpec reparsed = ScenarioSpec::parse(canonical);
        EXPECT_EQ(reparsed, spec);
        EXPECT_EQ(reparsed.to_string(), canonical);
    }
}

TEST(ScenarioSpec, TierListRoundTripsIndependentOfUfDefault)
{
    // `uf` without an explicit threshold picks up the uf_threshold
    // key; the canonical form pins it so a re-parse cannot drift.
    const ScenarioSpec spec =
        ScenarioSpec::parse("uf_threshold=5,tiers=clique,uf,mwpm");
    EXPECT_EQ(spec.tiers.describe(), "clique>union-find(5)>mwpm");
    const ScenarioSpec reparsed = ScenarioSpec::parse(spec.to_string());
    EXPECT_EQ(reparsed.tiers.describe(), "clique>union-find(5)>mwpm");
}

TEST(ScenarioSpec, LutTierRoundTripsThroughTheGrammar)
{
    // `lut` participates in the tiers sub-grammar like any other
    // token, including as a bare continuation after `tiers=`.
    const ScenarioSpec spec =
        ScenarioSpec::parse("d=3,tiers=lut,mwpm,cycles=100");
    EXPECT_EQ(spec.tiers.describe(), "lut>mwpm");
    EXPECT_EQ(spec.engine.cycles, 100u);
    const ScenarioSpec reparsed = ScenarioSpec::parse(spec.to_string());
    EXPECT_EQ(reparsed, spec);
    EXPECT_EQ(reparsed.tiers.describe(), "lut>mwpm");
}

TEST(ScenarioSpec, RejectsMalformedSpecs)
{
    const std::vector<std::string> bad = {
        "kind=nope",
        "d=2",             // below the smallest surface code
        "d=abc",
        "p=1.5",           // not a probability
        "p=",
        "frobnicate=1",    // unknown key
        "frobnicate",      // unknown bare token
        "tiers=clique,frob",
        "tiers=clique,uf:x,mwpm",
        "mode=sideways",
        "policy=psychic",
        "arm=both",
        "error_type=y",
        "latency=-1",
        "cycles=10k",
        "cycles=99999999999999999999",  // strtoll ERANGE saturation
        "p=nan",           // NaN fails every range check
        "q=nan",
        "p_meas=nan",
        "hot_mult=nan",
        "fleet=0",
        "weighted=maybe",
        // Log-likelihood weights need p and p_meas inside (0, 1).
        "kind=memory,d=5,p=1e-2,p_meas=0,weighted,arm=mwpm,trials=100",
        "kind=memory,d=5,p=0,weighted,arm=mwpm,trials=100",
        "mwpm",            // tier token outside a tiers= run
        "kind=fabric,links=0",
        "kind=fabric,scheduler=bogus",
        "kind=fabric,placement=everywhere",
        // Fabric topology keys are rejected off the fabric kind.
        "kind=exact-fleet,links=2",
        "scheduler=priority",
        "kind=stream,placement=isolate",
        "kind=memory,deadline=6",
        // Integer keys reject values outside int instead of narrowing.
        "d=4294967301",
        "d=2147483648",
        "kind=exact-fleet,fleet=4294967297",
        "kind=stream,window=4294967304",
        "uf_threshold=4294967299",
        "tiers=clique,uf:4294967298,mwpm",
        "kind=fabric,faults=outage:50:10:4294967297",
        "kind=fabric,faults=surge:300:50:2:4294967297",
    };
    for (const std::string &text : bad) {
        SCOPED_TRACE(text);
        ScenarioSpec out = ScenarioSpec::parse("d=9");  // sentinel
        std::string error;
        EXPECT_FALSE(ScenarioSpec::try_parse(text, &out, &error));
        EXPECT_FALSE(error.empty());
        // A failed parse leaves the output untouched.
        EXPECT_EQ(out.code.distance, 9);
        EXPECT_THROW(ScenarioSpec::parse(text), std::invalid_argument);
    }
}

TEST(ScenarioSpec, BareTokensAfterTiersEndWithAnyKeyValue)
{
    const ScenarioSpec spec =
        ScenarioSpec::parse("tiers=clique,uf:1,cycles=5");
    EXPECT_EQ(spec.tiers.describe(), "clique>union-find(1)");
    EXPECT_EQ(spec.engine.cycles, 5u);
    // A bare tier token after another key=value is no longer a tier
    // continuation.
    EXPECT_THROW(ScenarioSpec::parse("tiers=clique,cycles=5,mwpm"),
                 std::invalid_argument);
}

TEST(ScenarioSpec, FromFlagsMatchesGrammar)
{
    // Flags over a default spec build the same spec as the grammar,
    // historical spellings and shortcuts (--pipeline, --real_offchip,
    // --shared-link) included.
    const char *argv[] = {
        "prog",           "--kind",          "lifetime",
        "--distance=11",  "--p=0.005",       "--p_meas=0.01",
        "--filter_rounds=3", "--tiers=clique,uf:2,mwpm",
        "--pipeline",     "--real_offchip",  "--offchip-latency=4",
        "--offchip-bandwidth=1", "--batch=8", "--cycles=12345",
        "--threads=4",    "--seed=9",
    };
    const Flags flags(static_cast<int>(std::size(argv)), argv);
    ScenarioSpec from_flags;
    std::string error;
    ASSERT_TRUE(from_flags.apply_flags(flags, &error)) << error;
    const ScenarioSpec from_grammar = ScenarioSpec::parse(
        "kind=lifetime,d=11,p=0.005,p_meas=0.01,filter=3,"
        "tiers=clique,uf:2,mwpm,mode=pipeline,policy=mwpm,latency=4,"
        "bandwidth=1,batch=8,cycles=12345,threads=4,seed=9");
    EXPECT_EQ(from_flags, from_grammar);

    const char *fleet_argv[] = {"prog", "--kind=exact-fleet",
                                "--shared-link", "--fleet-size=12"};
    const Flags fleet_flags(4, fleet_argv);
    ScenarioSpec fleet;
    ASSERT_TRUE(fleet.apply_flags(fleet_flags, &error)) << error;
    EXPECT_EQ(fleet,
              ScenarioSpec::parse("kind=exact-fleet,shared,fleet=12"));
}

TEST(ScenarioSpec, ApplyFlagsOverridesOnlyPresentFlags)
{
    ScenarioSpec spec = ScenarioSpec::parse(
        "kind=memory,d=7,p=8e-3,trials=4000,failures=50");
    const char *argv[] = {"prog", "--trials=100", "--arm=mwpm"};
    const Flags flags(3, argv);
    std::string error;
    ASSERT_TRUE(spec.apply_flags(flags, &error)) << error;
    EXPECT_EQ(spec.engine.trials, 100u);
    EXPECT_EQ(spec.arm, DecoderArm::MwpmOnly);
    EXPECT_EQ(spec.code.distance, 7);       // untouched
    EXPECT_EQ(spec.engine.target_failures, 50u);
}

TEST(ScenarioSpec, GrammarKeysWorkAsFlagSpellings)
{
    // An override can be copied straight off a printed spec string:
    // every grammar key is its own flag spelling next to the
    // historical one (--latency == --offchip-latency, --fleet ==
    // --fleet-size, --d == --distance, --shared == --shared-link).
    const char *argv[] = {"prog",        "--kind=exact-fleet", "--d=11",
                          "--latency=8", "--fleet=20",
                          "--shared=true"};
    const Flags flags(6, argv);
    ScenarioSpec spec;
    std::string error;
    ASSERT_TRUE(spec.apply_flags(flags, &error)) << error;
    EXPECT_EQ(spec.code.distance, 11);
    EXPECT_EQ(spec.service.latency, 8u);
    EXPECT_EQ(spec.service.fleet_size, 20);
    EXPECT_TRUE(spec.service.shared_link);
    const char *filter_argv[] = {"prog", "--filter=3"};
    ScenarioSpec lifetime;
    ASSERT_TRUE(lifetime.apply_flags(Flags(2, filter_argv), &error))
        << error;
    EXPECT_EQ(lifetime.code.filter_rounds, 3);
    // The override surface is enumerable (btwc_run rejects unknown
    // flags against it) and covers both spellings.
    const auto &known = scenario_override_flags();
    for (const char *flag : {"latency", "offchip-latency", "fleet",
                             "fleet-size", "d", "distance", "tiers",
                             "shared", "pipeline", "cycles"}) {
        EXPECT_NE(std::find(known.begin(), known.end(), flag),
                  known.end())
            << flag;
    }
    // One spelling list per key: each spelling is accepted alike as
    // `spelling=` and `--spelling`, and every boolean key also takes
    // its bare name (e.g. `shed`, `shared-link`).
    for (const ScenarioKey &key : scenario_keys()) {
        const std::string &name = key.spellings[0];
        ASSERT_EQ(key_samples().count(name), 1u) << name;
        const std::string value = key_samples().at(name)[0];
        ScenarioKind owner = ScenarioKind::Lifetime;
        for (const ScenarioKind kind : kEveryKind) {
            owner = key.owns(kind) ? kind : owner;
        }
        const std::string base =
            std::string("kind=") + scenario_kind_name(owner);
        const ScenarioSpec expected =
            ScenarioSpec::parse(base + "," + name + "=" + value);
        for (const std::string &spelling : key.spellings) {
            SCOPED_TRACE(spelling);
            EXPECT_EQ(ScenarioSpec::parse(base + "," + spelling + "=" +
                                          value),
                      expected);
            const std::string flag = "--" + spelling + "=" + value;
            const char *flag_argv[] = {"prog", flag.c_str()};
            ScenarioSpec from_flag = ScenarioSpec::parse(base);
            ASSERT_TRUE(from_flag.apply_flags(Flags(2, flag_argv), &error))
                << error;
            EXPECT_EQ(from_flag, expected);
            EXPECT_NE(std::find(known.begin(), known.end(), spelling),
                      known.end());
            if (value == "true") {
                EXPECT_EQ(ScenarioSpec::parse(base + "," + spelling),
                          expected);
            }
        }
    }
}

TEST(ScenarioSpec, ReadmeGrammarTableMatchesTheKeyTable)
{
    // src/api/README.md documents one row per key, in to_string order,
    // with the key's aliases and owning kinds: those three columns must
    // say exactly what the key table says.
    std::ifstream readme(repo_path("src/api/README.md"));
    ASSERT_TRUE(readme.good());
    const auto cells = [](const std::string &line) {
        std::vector<std::string> out;
        std::string cell;
        for (size_t i = 1; i < line.size(); ++i) {
            if (line[i] == '|' && line[i - 1] != '\\') {
                const size_t first = cell.find_first_not_of(' ');
                const size_t last = cell.find_last_not_of(' ');
                out.push_back(first == std::string::npos
                                  ? ""
                                  : cell.substr(first, last - first + 1));
                cell.clear();
            } else {
                cell += line[i];
            }
        }
        return out;
    };
    std::vector<std::string> documented;
    bool in_grammar = false;
    for (std::string line; std::getline(readme, line);) {
        if (line.rfind("## ", 0) == 0) {
            in_grammar = line == "## Spec grammar";
        } else if (in_grammar && line.rfind("| `", 0) == 0) {
            const std::vector<std::string> row = cells(line);
            ASSERT_GE(row.size(), 3u) << line;
            documented.push_back(row[0] + " | " + row[1] + " | " + row[2]);
        }
    }
    std::vector<std::string> table;
    for (const ScenarioKey &key : scenario_keys()) {
        std::string aliases;
        for (size_t i = 1; i < key.spellings.size(); ++i) {
            aliases += (i > 1 ? ", `" : "`") + key.spellings[i] + "`";
        }
        std::string kinds;
        size_t owners = 0;
        for (const ScenarioKind kind : kEveryKind) {
            if (key.owns(kind)) {
                kinds += (owners++ == 0 ? "" : ", ") +
                         std::string(scenario_kind_name(kind));
            }
        }
        if (owners == std::size(kEveryKind)) {
            kinds = "all";
        }
        table.push_back("`" + key.spellings[0] + "` | " + aliases + " | " +
                        kinds);
    }
    EXPECT_EQ(documented, table);
}

TEST(ScenarioSpec, UfThresholdAloneRethresholdsAnExistingChain)
{
    // `btwc_run deep-chain --uf_threshold 5`: the registry scenario's
    // chain is already resolved, so the override must re-threshold
    // its Union-Find tiers rather than be silently dropped.
    ScenarioSpec spec =
        ScenarioSpec::parse("tiers=clique,uf:2,mwpm");
    const char *argv[] = {"prog", "--uf_threshold=5"};
    const Flags flags(2, argv);
    std::string error;
    ASSERT_TRUE(spec.apply_flags(flags, &error)) << error;
    EXPECT_EQ(spec.tiers.describe(), "clique>union-find(5)>mwpm");
    // Same via the grammar on an existing spec; non-UF tiers keep
    // their thresholds.
    ScenarioSpec grammar =
        ScenarioSpec::parse("tiers=clique:1,uf:2,mwpm");
    const char *argv2[] = {"prog", "--uf_threshold=7"};
    const Flags flags2(2, argv2);
    ASSERT_TRUE(grammar.apply_flags(flags2, &error)) << error;
    EXPECT_EQ(grammar.tiers.describe(), "clique(1)>union-find(7)>mwpm");
}

TEST(JsonOutputConvention, BareJsonFlagIsADiagnosticNotAFileNamedTrue)
{
    // `--json` with no path parses as the value "true"; finish() must
    // refuse instead of writing a file literally named `true`.
    const char *argv[] = {"prog", "--json"};
    const Flags flags(2, argv);
    JsonOutput json(flags, "test");
    EXPECT_TRUE(json.enabled());
    EXPECT_EQ(json.finish(), 2);
    std::remove("true");  // defensive: must not exist, clean if so
}

TEST(ScenarioSpec, ApplyFlagsReportsBadValues)
{
    ScenarioSpec spec;
    const char *argv[] = {"prog", "--distance=banana"};
    const Flags flags(2, argv);
    std::string error;
    EXPECT_FALSE(spec.apply_flags(flags, &error));
    EXPECT_FALSE(error.empty());
}

// ------------------------------------------------------------- report

TEST(Report, JsonKeyOrderIsInsertionOrder)
{
    Report report;
    report.set("zeta", 1);
    report.set("alpha", 2.5);
    Report &nested = report.child("nested");
    nested.set("b", true);
    nested.set("a", "text");
    const std::string json = report.to_json();
    const size_t zeta = json.find("\"zeta\"");
    const size_t alpha = json.find("\"alpha\"");
    const size_t b = json.find("\"b\"");
    const size_t a = json.find("\"a\": \"text\"");
    ASSERT_NE(zeta, std::string::npos);
    EXPECT_LT(zeta, alpha);
    EXPECT_LT(alpha, b);
    EXPECT_LT(b, a);
}

TEST(Report, CsvQuotesValuesContainingCommas)
{
    // scenario.spec always contains commas; without RFC-4180 quoting
    // every --csv row would shift columns under its consumers.
    Report report;
    report.set("spec", "kind=lifetime,d=5,p=0.003");
    report.set("ci", "[3.5e-04,1.1e-02]");
    report.set("n", 1);
    EXPECT_EQ(report.csv(),
              "spec,ci,n\n"
              "\"kind=lifetime,d=5,p=0.003\",\"[3.5e-04,1.1e-02]\",1\n");
    Table table({"a", "b"});
    table.add_row({"x,y", "with \"quote\""});
    EXPECT_EQ(table.to_csv(),
              "a,b\n\"x,y\",\"with \"\"quote\"\"\"\n");
}

TEST(Report, FlatAndCsvAndTableAgree)
{
    Report report;
    report.set("count", static_cast<uint64_t>(7));
    report.child("sub").set("x", 0.25);
    Table embedded({"h"});
    embedded.add_row({"v"});
    report.add_table("table", embedded);  // skipped by flat()
    const auto flat = report.flat();
    ASSERT_EQ(flat.size(), 2u);
    EXPECT_EQ(flat[0].first, "count");
    EXPECT_EQ(flat[0].second, "7");
    EXPECT_EQ(flat[1].first, "sub.x");
    EXPECT_EQ(flat[1].second, "0.25");
    EXPECT_EQ(report.csv(), "count,sub.x\n7,0.25\n");
    EXPECT_EQ(report.to_table().rows().size(), 2u);
}

TEST(Report, LookupByDottedPath)
{
    Report report;
    report.child("metrics").child("service").set(
        "landed", static_cast<uint64_t>(42));
    report.child("metrics").set("ler", 1e-3);
    uint64_t landed = 0;
    ASSERT_TRUE(report.lookup_uint("metrics.service.landed", &landed));
    EXPECT_EQ(landed, 42u);
    double ler = 0.0;
    ASSERT_TRUE(report.lookup_double("metrics.ler", &ler));
    EXPECT_DOUBLE_EQ(ler, 1e-3);
    EXPECT_FALSE(report.lookup_uint("metrics.missing", &landed));
    EXPECT_EQ(report.find("metrics.service"), report.find("metrics.service"));
    EXPECT_EQ(report.find("nope"), nullptr);
}

TEST(Report, JsonIsParseableWithEscapesAndNonFiniteDoubles)
{
    Report report;
    report.set("quote", "a\"b\\c\nd");
    report.set("inf", 1.0 / 0.0);
    report.set("neg", false);
    const std::string json = report.to_json();
    EXPECT_NE(json.find("a\\\"b\\\\c\\nd"), std::string::npos);
    EXPECT_NE(json.find("\"inf\""), std::string::npos);  // as string
}

TEST(Report, FormatDoubleRoundTrips)
{
    for (const double v : {0.001, 1.0 / 3.0, 2e-13, 12345.6789, 0.0}) {
        EXPECT_EQ(std::strtod(format_double(v).c_str(), nullptr), v);
    }
    EXPECT_EQ(format_double(0.001), "0.001");
}

TEST(Report, WriteJsonToFileAndFailurePath)
{
    Report report;
    report.set("k", 1);
    std::string error;
    const std::string path = ::testing::TempDir() + "btwc_report.json";
    ASSERT_TRUE(write_report_json(report, path, &error)) << error;
    std::FILE *f = std::fopen(path.c_str(), "r");
    ASSERT_NE(f, nullptr);
    char buf[64] = {0};
    const size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
    std::fclose(f);
    std::remove(path.c_str());
    EXPECT_NE(std::string(buf, n).find("\"k\": 1"), std::string::npos);
    EXPECT_FALSE(
        write_report_json(report, "/nonexistent-dir/x.json", &error));
    EXPECT_FALSE(error.empty());
}

// ----------------------------------------------- golden key stability

/** Dotted scalar keys of a report, for schema pinning. */
std::vector<std::string>
flat_keys(const Report &report)
{
    std::vector<std::string> keys;
    for (const auto &pair : report.flat()) {
        keys.push_back(pair.first);
    }
    return keys;
}

TEST(ReportSchema, LifetimeKeysAreStable)
{
    const Report report = run_scenario(
        ScenarioSpec::parse("kind=lifetime,d=3,cycles=50"));
    const std::vector<std::string> expected = {
        "scenario.kind", "scenario.spec", "scenario.tiers",
        "config.distance", "config.p", "config.p_meas",
        "config.filter_rounds", "config.mode", "config.policy",
        "config.cycles", "config.offchip_latency",
        "config.offchip_bandwidth", "config.offchip_batch",
        "config.threads", "config.seed",
        "metrics.cycles", "metrics.all_zero_cycles",
        "metrics.trivial_cycles", "metrics.complex_cycles",
        "metrics.offchip_cycles", "metrics.clique_corrections",
        "metrics.all_zero_halves", "metrics.trivial_halves",
        "metrics.complex_halves", "metrics.offchip_halves",
        "metrics.tier_halves.clique", "metrics.tier_halves.union_find",
        "metrics.tier_halves.mwpm", "metrics.tier_halves.exact",
        "metrics.tier_halves.lut",
        "metrics.coverage_per_decode", "metrics.coverage_per_cycle",
        "metrics.onchip_nonzero_fraction", "metrics.offchip_fraction",
        "metrics.midtier_absorption", "metrics.clique_data_reduction",
        "metrics.mean_raw_weight", "metrics.service.landed",
        "metrics.service.suppressed", "metrics.service.pending",
        "metrics.service.mean_queue_delay",
        "metrics.service.p99_queue_delay",
        "metrics.service.mean_link_batch",
        "walltime.walltime_ms", "walltime.cycles_per_sec",
    };
    EXPECT_EQ(flat_keys(report), expected);
}

TEST(ReportSchema, MemoryKeysAreStable)
{
    const Report report = run_scenario(
        ScenarioSpec::parse("kind=memory,d=3,trials=20,failures=5"));
    const std::vector<std::string> expected = {
        "scenario.kind", "scenario.spec", "scenario.tiers",
        "config.distance", "config.p", "config.p_meas", "config.rounds",
        "config.filter_rounds", "config.arm", "config.weighted",
        "config.error_type", "config.max_trials",
        "config.target_failures", "config.threads", "config.seed",
        "metrics.trials", "metrics.failures", "metrics.ler",
        "metrics.ler_ci_lo", "metrics.ler_ci_hi",
        "metrics.offchip_rounds", "metrics.total_rounds",
        "metrics.offchip_round_fraction", "metrics.unclear_syndromes",
        "walltime.walltime_ms", "walltime.decodes_per_sec",
    };
    EXPECT_EQ(flat_keys(report), expected);
}

TEST(ReportSchema, FleetAndExactFleetCarryRequiredKeys)
{
    // Provisioned fleet: link observables (the demand stream feeds
    // the link run; histogram keys belong to bandwidth=0 scenarios).
    const Report fleet = run_scenario(ScenarioSpec::parse(
        "kind=fleet,qubits=50,q=0.01,bandwidth=2,cycles=500"));
    for (const char *key :
         {"metrics.link.bandwidth", "metrics.link.stall_cycles",
          "metrics.link.exec_time_increase"}) {
        EXPECT_NE(fleet.find(key), nullptr) << key;
    }
    EXPECT_EQ(fleet.find("metrics.demand.mean"), nullptr);
    const Report demand_only = run_scenario(ScenarioSpec::parse(
        "kind=fleet,qubits=50,q=0.01,cycles=500"));
    for (const char *key :
         {"metrics.demand.mean", "metrics.demand.p99"}) {
        EXPECT_NE(demand_only.find(key), nullptr) << key;
    }
    EXPECT_EQ(demand_only.find("metrics.link.bandwidth"), nullptr);
    const Report exact = run_scenario(ScenarioSpec::parse(
        "kind=exact-fleet,d=3,fleet=2,shared,cycles=100"));
    for (const char *key :
         {"metrics.demand.mean", "metrics.enqueued", "metrics.landed",
          "metrics.suppressed", "metrics.exec_time_increase",
          "metrics.queue_delay.mean", "metrics.batch_mean"}) {
        EXPECT_NE(exact.find(key), nullptr) << key;
    }
}

TEST(ReportSchema, FabricKeysAreStable)
{
    const Report report = run_scenario(ScenarioSpec::parse(
        "kind=fabric,d=3,fleet=2,latency=2,bandwidth=1,cycles=64"));
    std::vector<std::string> expected = {
        "scenario.kind", "scenario.spec", "scenario.tiers",
        "config.distance", "config.p", "config.fleet_size",
        "config.policy", "config.links", "config.scheduler",
        "config.placement", "config.deadline", "config.hot_fraction",
        "config.hot_mult", "config.probe_interval", "config.cycles",
        "config.offchip_latency", "config.offchip_bandwidth",
        "config.offchip_batch", "config.threads", "config.seed",
        "metrics.demand.total", "metrics.demand.mean",
        "metrics.demand.p50", "metrics.demand.p90",
        "metrics.demand.p99", "metrics.demand.p999",
        "metrics.demand.max",
        "metrics.enqueued", "metrics.served", "metrics.landed",
        "metrics.suppressed", "metrics.pending",
        "metrics.stall_cycles", "metrics.work_cycles",
        "metrics.max_backlog", "metrics.exec_time_increase",
        "metrics.backlog_mean",
        "metrics.queue_delay.mean", "metrics.queue_delay.p99",
        "metrics.queue_delay.max", "metrics.batch_mean",
        "metrics.fabric.deadline_misses", "metrics.fabric.probes",
        "metrics.fabric.probe_failures", "metrics.fabric.ler",
        "metrics.fabric.links.link0.enqueued",
        "metrics.fabric.links.link0.served",
        "metrics.fabric.links.link0.landed",
        "metrics.fabric.links.link0.stall_cycles",
        "metrics.fabric.links.link0.max_backlog",
        "metrics.fabric.links.link0.deadline_misses",
        "metrics.fabric.links.link0.mean_delay",
        "metrics.fabric.links.link0.p99_delay",
    };
    for (const char *tenant : {"t0", "t1"}) {
        for (const char *leaf :
             {"link", "enqueued", "landed", "suppressed",
              "deadline_misses", "mean_delay", "p99_delay", "probes",
              "failures", "ler"}) {
            expected.push_back(std::string("metrics.fabric.tenants.") +
                               tenant + "." + leaf);
        }
    }
    expected.push_back("walltime.walltime_ms");
    expected.push_back("walltime.cycles_per_sec");
    EXPECT_EQ(flat_keys(report), expected);
}

// ------------------------------------- bit-exactness with legacy path

uint64_t
get_uint(const Report &report, const std::string &path)
{
    uint64_t value = 0;
    EXPECT_TRUE(report.lookup_uint(path, &value)) << path;
    return value;
}

double
get_double(const Report &report, const std::string &path)
{
    double value = 0.0;
    EXPECT_TRUE(report.lookup_double(path, &value)) << path;
    return value;
}

void
expect_matches_lifetime(const Report &report, const LifetimeConfig &config)
{
    const LifetimeStats stats = run_lifetime(config);
    EXPECT_EQ(get_uint(report, "metrics.cycles"), stats.cycles);
    EXPECT_EQ(get_uint(report, "metrics.all_zero_halves"),
              stats.all_zero_halves);
    EXPECT_EQ(get_uint(report, "metrics.trivial_halves"),
              stats.trivial_halves);
    EXPECT_EQ(get_uint(report, "metrics.complex_halves"),
              stats.complex_halves);
    EXPECT_EQ(get_uint(report, "metrics.offchip_halves"),
              stats.offchip_halves);
    EXPECT_EQ(get_uint(report, "metrics.clique_corrections"),
              stats.clique_corrections);
    EXPECT_EQ(get_uint(report, "metrics.service.landed"),
              stats.offchip_queue_delay.total());
    EXPECT_EQ(get_uint(report, "metrics.service.suppressed"),
              stats.suppressed_escalations);
    EXPECT_EQ(get_double(report, "metrics.mean_raw_weight"),
              stats.raw_weight.mean());
}

void
expect_matches_memory(const Report &report, const MemoryConfig &config,
                      DecoderArm arm)
{
    const MemoryResult result = run_memory_experiment(config, arm);
    EXPECT_EQ(get_uint(report, "metrics.trials"), result.trials);
    EXPECT_EQ(get_uint(report, "metrics.failures"), result.failures);
    EXPECT_EQ(get_uint(report, "metrics.offchip_rounds"),
              result.offchip_rounds);
    EXPECT_EQ(get_uint(report, "metrics.total_rounds"),
              result.total_rounds);
    EXPECT_EQ(get_double(report, "metrics.ler"), result.ler());
}

void
expect_matches_fleet(const Report &report, const FleetConfig &config,
                     uint64_t bandwidth)
{
    if (bandwidth > 0) {
        const FleetRunResult run =
            run_fleet_with_bandwidth(config, bandwidth);
        EXPECT_EQ(get_uint(report, "metrics.link.stall_cycles"),
                  run.stall_cycles);
        EXPECT_EQ(get_uint(report, "metrics.link.work_cycles"),
                  run.work_cycles);
        EXPECT_EQ(get_uint(report, "metrics.link.max_backlog"),
                  run.max_backlog);
        EXPECT_EQ(get_double(report, "metrics.link.mean_queue_delay"),
                  run.mean_queue_delay);
    } else {
        const CountHistogram demand = fleet_demand_histogram(config);
        EXPECT_EQ(get_uint(report, "metrics.demand.total"),
                  demand.total());
        EXPECT_EQ(get_double(report, "metrics.demand.mean"),
                  demand.mean());
        EXPECT_EQ(get_uint(report, "metrics.demand.p99"),
                  demand.percentile(0.99));
    }
}

void
expect_matches_exact_fleet(const Report &report,
                           const FabricFleetConfig &config)
{
    const FabricStats stats = run_fabric(config);
    EXPECT_EQ(get_uint(report, "metrics.demand.total"),
              stats.demand.total());
    EXPECT_EQ(get_double(report, "metrics.demand.mean"),
              stats.demand.mean());
    EXPECT_EQ(get_uint(report, "metrics.enqueued"), stats.enqueued);
    EXPECT_EQ(get_uint(report, "metrics.served"), stats.served);
    EXPECT_EQ(get_uint(report, "metrics.landed"), stats.landed);
    EXPECT_EQ(get_uint(report, "metrics.suppressed"), stats.suppressed);
    EXPECT_EQ(get_uint(report, "metrics.stall_cycles"),
              stats.stall_cycles);
    EXPECT_EQ(get_uint(report, "metrics.max_backlog"), stats.max_backlog);
    EXPECT_EQ(get_double(report, "metrics.backlog_mean"),
              stats.backlog.mean());
    EXPECT_EQ(get_double(report, "metrics.queue_delay.mean"),
              stats.queue_delay.mean());
}

void
expect_matches_stream(const Report &report, const StreamConfig &config)
{
    const StreamStats stats = run_stream(config);
    EXPECT_EQ(get_uint(report, "metrics.rounds"), stats.window.rounds);
    EXPECT_EQ(get_uint(report, "metrics.windows"), stats.window.windows);
    EXPECT_EQ(get_uint(report, "metrics.screened_windows"),
              stats.window.screened_windows);
    EXPECT_EQ(get_uint(report, "metrics.matched_windows"),
              stats.window.matched_windows);
    EXPECT_EQ(get_uint(report, "metrics.defects_in"),
              stats.window.defects_in);
    EXPECT_EQ(get_uint(report, "metrics.defects_committed"),
              stats.window.defects_committed);
    EXPECT_EQ(get_uint(report, "metrics.defects_carried"),
              stats.window.defects_carried);
    EXPECT_EQ(get_uint(report, "metrics.unclear_syndromes"),
              stats.unclear_syndromes);
    EXPECT_EQ(get_uint(report, "metrics.logical_failures"),
              stats.logical_failures);
    EXPECT_EQ(get_double(report, "metrics.commit_lag.mean"),
              stats.window.commit_lag.mean());
}

void
expect_matches_fabric(const Report &report,
                      const FabricFleetConfig &config)
{
    const FabricStats stats = run_fabric(config);
    EXPECT_EQ(get_uint(report, "metrics.enqueued"), stats.enqueued);
    EXPECT_EQ(get_uint(report, "metrics.served"), stats.served);
    EXPECT_EQ(get_uint(report, "metrics.landed"), stats.landed);
    EXPECT_EQ(get_uint(report, "metrics.suppressed"), stats.suppressed);
    EXPECT_EQ(get_uint(report, "metrics.stall_cycles"),
              stats.stall_cycles);
    EXPECT_EQ(get_uint(report, "metrics.fabric.deadline_misses"),
              stats.deadline_misses);
    EXPECT_EQ(get_uint(report, "metrics.fabric.probes"), stats.probes);
    EXPECT_EQ(get_uint(report, "metrics.fabric.probe_failures"),
              stats.probe_failures);
    EXPECT_EQ(get_double(report, "metrics.queue_delay.mean"),
              stats.queue_delay.mean());
}

TEST(RunScenario, LifetimeSignatureBitExactWithLegacyConfig)
{
    const ScenarioSpec spec = ScenarioSpec::parse(
        "kind=lifetime,d=7,p=8e-3,cycles=3000,seed=3");
    expect_matches_lifetime(run_scenario(spec),
                            spec.to_lifetime_config());
}

TEST(RunScenario, LifetimePipelineWithServiceBitExact)
{
    const ScenarioSpec spec = ScenarioSpec::parse(
        "kind=lifetime,d=5,p=8e-3,mode=pipeline,policy=mwpm,latency=3,"
        "bandwidth=1,batch=4,cycles=2000,seed=5");
    expect_matches_lifetime(run_scenario(spec),
                            spec.to_lifetime_config());
}

TEST(RunScenario, MemoryBitExactForEveryArm)
{
    for (const char *arm_spec : {"arm=mwpm", "arm=clique", "arm=uf"}) {
        SCOPED_TRACE(arm_spec);
        const ScenarioSpec spec = ScenarioSpec::parse(
            std::string("kind=memory,d=5,p=8e-3,trials=400,failures=20,") +
            arm_spec);
        expect_matches_memory(run_scenario(spec),
                              spec.to_memory_config(), spec.arm);
    }
}

TEST(RunScenario, FleetDemandAndLinkBitExact)
{
    const ScenarioSpec spec = ScenarioSpec::parse(
        "kind=fleet,qubits=200,q=0.01,hot_fraction=0.1,hot_mult=4,"
        "bandwidth=3,cycles=4000,seed=2");
    expect_matches_fleet(run_scenario(spec), spec.to_fleet_config(),
                         spec.service.bandwidth);
}

TEST(RunScenario, ExactFleetSharedAndPrivateBitExact)
{
    for (const char *link :
         {"shared,latency=2,bandwidth=1", "latency=1,bandwidth=1"}) {
        SCOPED_TRACE(link);
        const ScenarioSpec spec = ScenarioSpec::parse(
            std::string("kind=exact-fleet,d=5,p=8e-3,fleet=4,cycles=400,") +
            link);
        const Report report = run_scenario(spec);
        EXPECT_GT(get_uint(report, "metrics.enqueued"), 0u);
        expect_matches_exact_fleet(report, spec.to_fabric_config());
    }
}

TEST(RunScenario, FabricFifoUniformBitExactWithLegacySharedLink)
{
    // The pinned corner of the fabric subsystem: FIFO scheduling, one
    // link, a uniform noise profile is the shared-link exact fleet, so
    // the fabric Report carries the exact-fleet metrics subtree key for
    // key and value for value.
    const Report fabric = run_scenario(ScenarioSpec::parse(
        "kind=fabric,d=5,p=6e-3,policy=mwpm,fleet=4,latency=2,"
        "bandwidth=1,cycles=600,seed=4"));
    const Report exact = run_scenario(ScenarioSpec::parse(
        "kind=exact-fleet,d=5,p=6e-3,policy=mwpm,shared,fleet=4,"
        "latency=2,bandwidth=1,cycles=600,seed=4"));
    EXPECT_GT(get_uint(exact, "metrics.stall_cycles"), 0u);
    EXPECT_GT(get_uint(exact, "metrics.enqueued"), 0u);
    size_t compared = 0;
    for (const auto &[key, value] : exact.flat()) {
        if (key.rfind("metrics.", 0) != 0) {
            continue;
        }
        const Report::Value *mine = fabric.find(key);
        ASSERT_NE(mine, nullptr) << key;
        EXPECT_EQ(mine->scalar_string(), value) << key;
        ++compared;
    }
    EXPECT_EQ(compared, 21u);
}

// ------------------------------------------------------------ registry

TEST(Registry, EveryEntryParsesAndNamesResolve)
{
    for (const NamedScenario &entry : scenario_registry()) {
        SCOPED_TRACE(entry.name);
        ScenarioSpec spec;
        std::string error;
        EXPECT_TRUE(find_scenario(entry.name, &spec, &error)) << error;
        // The stored spec is canonical-compatible: it round-trips.
        EXPECT_EQ(ScenarioSpec::parse(spec.to_string()), spec);
    }
    ScenarioSpec spec;
    std::string error;
    EXPECT_FALSE(find_scenario("no-such-scenario", &spec, &error));
    EXPECT_NE(error.find("no-such-scenario"), std::string::npos);
}

TEST(Registry, EveryScenarioRunsBitExactWithLegacyPath)
{
    // The acceptance gate of the API redesign: each registry scenario,
    // budget-clamped for test speed and pinned at threads=1, produces
    // a run_scenario Report whose counters are bit-identical to a
    // direct call of its legacy harness with the adapted config.
    for (const NamedScenario &entry : scenario_registry()) {
        SCOPED_TRACE(entry.name);
        ScenarioSpec spec;
        std::string error;
        ASSERT_TRUE(find_scenario(entry.name, &spec, &error)) << error;
        spec.engine.threads = 1;
        if (spec.engine.cycles == 0 || spec.engine.cycles > 400) {
            spec.engine.cycles = 400;
        }
        if (spec.engine.trials == 0 || spec.engine.trials > 200) {
            spec.engine.trials = 200;
        }
        if (spec.code.distance > 21) {
            spec.code.distance = 21;  // keep the d=81 point affordable
        }
        const Report report = run_scenario(spec);
        switch (spec.kind) {
          case ScenarioKind::Lifetime:
            expect_matches_lifetime(report, spec.to_lifetime_config());
            break;
          case ScenarioKind::Memory:
            expect_matches_memory(report, spec.to_memory_config(),
                                  spec.arm);
            break;
          case ScenarioKind::Fleet:
            expect_matches_fleet(report, spec.to_fleet_config(),
                                 spec.service.bandwidth);
            break;
          case ScenarioKind::ExactFleet:
            expect_matches_exact_fleet(report, spec.to_fabric_config());
            break;
          case ScenarioKind::Stream:
            expect_matches_stream(report, spec.to_stream_config());
            break;
          case ScenarioKind::Fabric:
            expect_matches_fabric(report, spec.to_fabric_config());
            break;
        }
    }
}

// ----------------------------------------------------------- adapters

TEST(Adapters, DefaultsFallBackToHarnessDefaults)
{
    // cycles/trials = 0 in the spec means "the harness default", so
    // the adapters must leave the struct defaults untouched.
    const ScenarioSpec spec;
    EXPECT_EQ(spec.to_lifetime_config().cycles, LifetimeConfig().cycles);
    EXPECT_EQ(spec.to_memory_config().max_trials,
              MemoryConfig().max_trials);
    EXPECT_EQ(spec.to_memory_config().target_failures,
              MemoryConfig().target_failures);
    EXPECT_EQ(spec.to_fleet_config().cycles, FleetConfig().cycles);
    EXPECT_EQ(spec.to_exact_fleet_config().cycles,
              ExactFleetConfig().cycles);
}

TEST(Adapters, HotspotProfileFeedsQubitProbs)
{
    const ScenarioSpec spec = ScenarioSpec::parse(
        "kind=fleet,qubits=100,q=0.01,hot_fraction=0.1,hot_mult=5");
    const FleetConfig config = spec.to_fleet_config();
    ASSERT_EQ(config.qubit_probs.size(), 100u);
    EXPECT_DOUBLE_EQ(config.qubit_probs[0], 0.05);   // hot head
    EXPECT_DOUBLE_EQ(config.qubit_probs[99], 0.01);  // cold tail
}

} // namespace
} // namespace btwc
