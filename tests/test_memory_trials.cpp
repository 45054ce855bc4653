/**
 * @file
 * Golden pin of the memory experiment. `tests/golden/memory_trials.txt`
 * holds one line per case of `memory_corpus()`
 * (tests/memory_corpus.hpp), generated by the byte-path trial loop
 * before `run_memory_experiment` moved onto the packed per-cycle
 * pipeline with pooled per-shard trial state. Any drift in the draws,
 * the filter, the Clique screen, the event order or the decode, and
 * any state a trial leaks into the next, moves a counter here.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <vector>

#include "memory_corpus.hpp"

#ifndef BTWC_GOLDEN_DIR
#error "BTWC_GOLDEN_DIR must name the tests/golden directory"
#endif

namespace btwc {
namespace {

TEST(MemoryGolden, RunMemoryExperimentMatchesCommittedResults)
{
    const std::string path =
        std::string(BTWC_GOLDEN_DIR) + "/memory_trials.txt";
    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << path;
    std::vector<std::string> golden;
    for (std::string line; std::getline(in, line);) {
        if (!line.empty() && line[0] != '#') {
            golden.push_back(line);
        }
    }
    const std::vector<MemoryCase> corpus = memory_corpus();
    ASSERT_EQ(golden.size(), corpus.size());
    for (size_t i = 0; i < corpus.size(); ++i) {
        EXPECT_EQ(memory_line(corpus[i], run_memory_experiment(
                                             corpus[i].config,
                                             corpus[i].arm)),
                  golden[i]);
    }
}

} // namespace
} // namespace btwc
