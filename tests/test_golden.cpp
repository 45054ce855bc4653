/**
 * @file
 * Golden-report pins. Each file under
 * tests/golden/ is a `btwc_run '<spec>' --threads 1 --json` Report;
 * the test re-parses its `scenario.spec`, re-runs it single-threaded
 * under deep audits, and requires the fresh `metrics` subtree to
 * match the file bit-exactly (counters exact, floats at printf
 * round-trip tolerance — the btwc_diff gate's policy).
 *
 * The first seven pins cover every way an escalation reaches the link:
 *   lifetime_inline_oracle     closed-loop pipeline, Oracle, L=0 link
 *   lifetime_deep_chain        Clique -> UF -> MWPM chain, Mwpm, L=0
 *   lifetime_contended_queue   L=4, B=1, batch=8 standalone link
 *   fleet_private_links        exact fleet, one link per qubit
 *   fleet_shared_fifo          exact fleet on one shared FIFO link
 *   fleet_shared_fifo_faults   the same under outage/drop/surge faults
 *   fabric_fifo_shed           FIFO fabric with shedding + give-ups
 * one pins the d=21 streaming decode end to end (frame noise and
 * extraction, UF screening, windowed MWPM pairings):
 *   stream_d21                 the stream-d21 benchmark spec, 2k rounds
 * and one pins log-likelihood weighted spacetime matching (non-unit
 * space and time weights) under asymmetric noise:
 *   memory_weighted            d=7 memory, p_meas = 2p, 2k trials
 *
 * Regenerate a pin (only when a metrics change is deliberate) with
 *   btwc_run "$(spec)" --threads 1 --json tests/golden/<name>.json
 *
 * Each pin's `scenario.spec`, and that of every committed BENCH_*
 * gate, is also pinned as canonical: `parse(spec).to_string()` must
 * give it back byte for byte, so the grammar's printed form cannot
 * drift while the metrics hold.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "api/json_input.hpp"
#include "api/report_diff.hpp"
#include "api/run.hpp"
#include "api/scenario.hpp"
#include "spec_corpus.hpp"

namespace btwc {
namespace {

class GoldenReport : public ::testing::TestWithParam<const char *>
{
};

TEST_P(GoldenReport, MetricsMatchBitExactlyUnderDeepAudit)
{
    const std::string path =
        std::string(BTWC_GOLDEN_DIR) + "/" + GetParam() + ".json";
    JsonValue golden;
    std::string error;
    ASSERT_TRUE(json_parse_file(path, &golden, &error)) << error;
    const JsonValue *spec_text = golden.find_path("scenario.spec");
    ASSERT_NE(spec_text, nullptr) << path;

    ScenarioSpec spec = ScenarioSpec::parse(spec_text->s);
    spec.engine.threads = 1;
    spec.engine.audit = 2;  // deep: every structural audit, every cycle
    JsonValue fresh;
    ASSERT_TRUE(json_parse(run_scenario(spec).to_json(), &fresh, &error))
        << error;

    const std::vector<ReportDiff> diffs =
        diff_reports(golden, fresh, ReportDiffOptions{});
    for (const ReportDiff &diff : diffs) {
        ADD_FAILURE() << spec_text->s << ": " << diff.path << " golden "
                      << diff.baseline << " fresh " << diff.fresh;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Transport, GoldenReport, ::testing::ValuesIn(golden_reports()),
    [](const ::testing::TestParamInfo<const char *> &info) {
        return std::string(info.param);
    });

TEST(GoldenSpecs, CommittedSpecStringsAreCanonical)
{
    std::vector<std::string> paths;
    for (const char *name : golden_reports()) {
        paths.push_back(std::string(BTWC_GOLDEN_DIR) + "/" + name +
                        ".json");
    }
    for (const char *name : {"BENCH_scenario", "BENCH_stream",
                             "BENCH_fabric", "BENCH_chaos"}) {
        paths.push_back(repo_path(std::string(name) + ".json"));
    }
    for (const std::string &path : paths) {
        JsonValue report;
        std::string error;
        ASSERT_TRUE(json_parse_file(path, &report, &error)) << error;
        const JsonValue *spec = report.find_path("scenario.spec");
        ASSERT_NE(spec, nullptr) << path;
        EXPECT_EQ(ScenarioSpec::parse(spec->s).to_string(), spec->s)
            << path;
    }
}

} // namespace
} // namespace btwc
