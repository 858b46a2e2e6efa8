// End-to-end tests for the model checker (src/check): small clean
// explorations, deterministic replay of the checked-in trace fixtures
// (tests/testdata/check), trace-file round-tripping, and the minimizer.

#include <fstream>
#include <sstream>
#include <string>

#include "check/action.h"
#include "check/checker.h"
#include "check/world.h"
#include "gtest/gtest.h"

#ifndef EPI_SOURCE_DIR
#error "EPI_SOURCE_DIR must be defined by the build"
#endif

namespace epidemic::check {
namespace {

std::string ReadFixture(const std::string& name) {
  const std::string path =
      std::string(EPI_SOURCE_DIR) + "/tests/testdata/check/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture " << path;
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// Replays a fixture and returns the report; fails the test on a malformed
// fixture.
CheckReport ReplayFixture(const std::string& name) {
  auto trace = DecodeTrace(ReadFixture(name));
  EXPECT_TRUE(trace.ok()) << trace.status().message();
  WorldConfig world;
  world.num_nodes = trace->nodes;
  world.num_items = trace->items;
  world.num_shards = trace->shards;
  auto mutation = ParseMutation(trace->mutation);
  EXPECT_TRUE(mutation.ok()) << mutation.status().message();
  world.mutation = *mutation;
  return ReplayTrace(world, trace->actions);
}

// A small exhaustive run over the healthy protocol must be violation-free.
// One shard per node still runs the daemon's exchange and inline
// scheduler. The counts are pinned, because a change to the scheduler or
// the exchange that alters the explored state space must show up here,
// not pass as "still clean".
TEST(EpicheckTest, SmallExplorationIsClean) {
  CheckerConfig config;
  config.world.num_nodes = 2;
  config.world.num_items = 2;
  config.max_depth = 5;
  CheckReport report = RunCheck(config);
  EXPECT_FALSE(report.violation.has_value())
      << report.violation->description;
  EXPECT_EQ(report.states_explored, 1537u);
  EXPECT_EQ(report.transitions, 4628u);
  EXPECT_EQ(report.dedup_hits, 3092u);
}

// Two shards must pass the same bar, through the wire-v3 segments
// (delta-encoded IVVs, zero-copy decode — tags 17/18). This is the M1
// sharded reference row (EXPERIMENTS.md), pinned for the same reason.
TEST(EpicheckTest, ShardedExplorationIsClean) {
  CheckerConfig config;
  config.world.num_nodes = 2;
  config.world.num_items = 2;
  config.world.num_shards = 2;
  config.max_depth = 6;
  CheckReport report = RunCheck(config);
  EXPECT_FALSE(report.violation.has_value())
      << report.violation->description;
  EXPECT_EQ(report.states_explored, 2669u);
  EXPECT_EQ(report.transitions, 10374u);
  EXPECT_EQ(report.dedup_hits, 7706u);
}

// The healthy-schedule fixtures replay with zero violations.
TEST(EpicheckTest, CleanFixturesReplayClean) {
  for (const char* name : {"clean.trace", "clean_sharded.trace"}) {
    CheckReport report = ReplayFixture(name);
    EXPECT_FALSE(report.violation.has_value())
        << name << ": " << report.violation->description;
  }
}

// Every seeded-defect fixture reproduces its violation deterministically.
TEST(EpicheckTest, SeededDefectFixturesReproduce) {
  for (const char* name : {"amnesia.trace", "mute_conflicts.trace",
                           "tamper_ivv.trace", "tamper_ivv_sharded.trace"}) {
    CheckReport report = ReplayFixture(name);
    EXPECT_TRUE(report.violation.has_value())
        << name << " replayed clean — the seeded defect was not reproduced";
  }
}

// The amnesia defect is caught as a DBVV regression across the crash, and
// the minimizer shrinks any padded schedule back to the 2-action core.
TEST(EpicheckTest, MinimizerShrinksAmnesiaTrace) {
  WorldConfig world;
  world.num_nodes = 2;
  world.num_items = 1;
  world.mutation = Mutation::kAmnesia;

  std::vector<Action> padded;
  padded.push_back(*ParseAction("update 0 0"));
  padded.push_back(*ParseAction("sync 1 0"));
  padded.push_back(*ParseAction("update 1 0"));
  padded.push_back(*ParseAction("crash 0"));
  CheckReport report = ReplayTrace(world, padded);
  ASSERT_TRUE(report.violation.has_value());
  EXPECT_NE(report.violation->description.find("DBVV regressed"),
            std::string::npos)
      << report.violation->description;

  std::vector<Action> minimized = MinimizeTrace(world, padded);
  EXPECT_EQ(minimized.size(), 2u);
  ASSERT_TRUE(ReplayTrace(world, minimized).violation.has_value());
}

// Trace files round-trip through encode/decode, including config directives.
TEST(EpicheckTest, TraceFileRoundTrips) {
  TraceFile file;
  file.nodes = 3;
  file.items = 2;
  file.shards = 2;
  file.mutation = "amnesia";
  file.actions.push_back(*ParseAction("update 2 1"));
  file.actions.push_back(*ParseAction("oob 0 2 1"));
  file.actions.push_back(*ParseAction("pump 0"));

  auto decoded = DecodeTrace(EncodeTrace(file));
  ASSERT_TRUE(decoded.ok()) << decoded.status().message();
  EXPECT_EQ(decoded->nodes, file.nodes);
  EXPECT_EQ(decoded->items, file.items);
  EXPECT_EQ(decoded->shards, file.shards);
  EXPECT_EQ(decoded->mutation, file.mutation);
  ASSERT_EQ(decoded->actions.size(), file.actions.size());
  for (size_t i = 0; i < file.actions.size(); ++i) {
    EXPECT_TRUE(decoded->actions[i] == file.actions[i]) << "action " << i;
  }
}

// Malformed trace files are rejected with a clean error.
TEST(EpicheckTest, MalformedTraceIsRejected) {
  EXPECT_FALSE(DecodeTrace("launch 0 1\n").ok());
  EXPECT_FALSE(DecodeTrace("sync 0\n").ok());
  EXPECT_FALSE(DecodeTrace("update zero 0\n").ok());
  EXPECT_FALSE(DecodeTrace("shards 0\n").ok());
}

}  // namespace
}  // namespace epidemic::check
