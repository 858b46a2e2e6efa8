// Corpus-backed harness tests (DESIGN.md §13): every fuzz target replays
// its generated seed corpus and the checked-in corpus under
// tests/testdata/fuzz/<target>/ inside a plain gtest binary, so the
// gcc/asan/ubsan/tsan ctest legs all drive the real decode-then-accept
// harnesses without libFuzzer. An oracle failure aborts, which gtest
// reports as a crashed test. The checked-in corpus must also equal the
// generator's output.

#include <dirent.h>
#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "fuzz/harness.h"
#include "fuzz/mutator.h"
#include "fuzz/seed_corpus.h"

namespace epidemic::fuzz {
namespace {

/// The checked-in corpus of `target`: file name → bytes.
std::map<std::string, std::string> CheckedInCorpus(const std::string& target) {
  const std::string dir =
      std::string(EPI_SOURCE_DIR) + "/tests/testdata/fuzz/" + target;
  std::map<std::string, std::string> files;
  DIR* d = opendir(dir.c_str());
  if (d == nullptr) return files;
  while (dirent* entry = readdir(d)) {
    if (entry->d_name[0] == '.') continue;
    std::ifstream in(dir + "/" + entry->d_name, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    files[entry->d_name] = buf.str();
  }
  closedir(d);
  return files;
}

class FuzzTargetTest : public ::testing::TestWithParam<TargetInfo> {};

TEST_P(FuzzTargetTest, SeedCorpusIsNonEmptyAndReplays) {
  const TargetInfo& target = GetParam();
  std::vector<SeedInput> seeds = BuildSeedCorpus(target.name);
  ASSERT_FALSE(seeds.empty()) << "no generated seeds for " << target.name;
  for (const SeedInput& seed : seeds) {
    SCOPED_TRACE(seed.label);
    target.fn(reinterpret_cast<const uint8_t*>(seed.bytes.data()),
              seed.bytes.size());
  }
}

TEST_P(FuzzTargetTest, CheckedInCorpusReplays) {
  const TargetInfo& target = GetParam();
  const std::map<std::string, std::string> files = CheckedInCorpus(target.name);
  ASSERT_FALSE(files.empty())
      << "tests/testdata/fuzz/" << target.name
      << " is missing — regenerate with fuzz_export_corpus";
  for (const auto& [name, bytes] : files) {
    SCOPED_TRACE(name);
    target.fn(reinterpret_cast<const uint8_t*>(bytes.data()), bytes.size());
  }
}

// The checked-in corpus is the generator's output, file for file and byte
// for byte, so a change to an encoder shows up as a corpus diff in the
// same change.
TEST_P(FuzzTargetTest, CheckedInCorpusMatchesGenerator) {
  const TargetInfo& target = GetParam();
  std::map<std::string, std::string> generated;
  size_t index = 0;
  for (SeedInput& seed : BuildSeedCorpus(target.name)) {
    generated[SeedFileName(index++, seed.label)] = std::move(seed.bytes);
  }
  const std::map<std::string, std::string> checked_in =
      CheckedInCorpus(target.name);
  for (const auto& [name, bytes] : generated) {
    auto it = checked_in.find(name);
    if (it == checked_in.end()) {
      ADD_FAILURE() << name << " is not checked in";
    } else {
      EXPECT_TRUE(it->second == bytes) << name << " differs from the generator";
    }
  }
  for (const auto& entry : checked_in) {
    EXPECT_TRUE(generated.count(entry.first) == 1)
        << entry.first << " is checked in but not generated";
  }
  if (HasFailure()) {
    ADD_FAILURE() << "regenerate tests/testdata/fuzz with fuzz_export_corpus";
  }
}

INSTANTIATE_TEST_SUITE_P(AllTargets, FuzzTargetTest,
                         ::testing::ValuesIn(AllTargets()),
                         [](const auto& info) {
                           return std::string(info.param.name);
                         });

// A corpus directory whose target is gone would otherwise stay behind,
// replayed by nothing.
TEST(FuzzRegistryTest, EveryCorpusDirectoryHasATarget) {
  const std::string root =
      std::string(EPI_SOURCE_DIR) + "/tests/testdata/fuzz";
  DIR* d = opendir(root.c_str());
  ASSERT_NE(d, nullptr) << root;
  while (dirent* entry = readdir(d)) {
    if (entry->d_name[0] == '.') continue;
    EXPECT_NE(FindTarget(entry->d_name), nullptr)
        << "tests/testdata/fuzz/" << entry->d_name
        << " belongs to no registered target";
  }
  closedir(d);
}

TEST(FuzzRegistryTest, EveryRegisteredTargetHasSeeds) {
  for (const TargetInfo& target : AllTargets()) {
    EXPECT_FALSE(BuildSeedCorpus(target.name).empty())
        << "target " << target.name << " has no seed generator";
  }
}

TEST(FuzzMutatorTest, MutationsStayInBoundsAndGrowFromEmpty) {
  uint8_t buf[64] = {0};
  size_t n = 0;
  for (unsigned seed = 0; seed < 500; ++seed) {
    n = MutateFrame(buf, n, sizeof(buf), seed);
    ASSERT_LE(n, sizeof(buf));
  }
  EXPECT_GT(n, 0u);  // the empty input grows into a tagged frame
}

// A short deterministic mini-fuzz of the clean fixture decoder: the same
// loop the seeded-defect self-test runs, kept here so every sanitizer leg
// exercises the mutation engine end to end.
TEST(FuzzMiniTest, CleanFixtureSurvivesSmokeBudget) {
  std::vector<std::string> seeds;
  for (const SeedInput& s : BuildSeedCorpus("fixture")) {
    seeds.push_back(s.bytes);
  }
  MiniFuzzResult result =
      RunMiniFuzz(Target_fixture, std::move(seeds), /*runs=*/2000, /*seed=*/3,
                  /*max_len=*/256);
  EXPECT_EQ(result.runs, 2000u);
}

}  // namespace
}  // namespace epidemic::fuzz
