#include "log/log_vector.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/random.h"

namespace epidemic {
namespace {

// Collects (item, seq) pairs head-to-tail for assertions.
std::vector<std::pair<ItemId, UpdateCount>> Contents(const OriginLog& log) {
  std::vector<std::pair<ItemId, UpdateCount>> out;
  for (ItemId x = log.head(); x != kNoItem; x = log.next(x)) {
    out.emplace_back(x, log.seq(x));
  }
  return out;
}

class OriginLogTest : public ::testing::Test {
 protected:
  OriginLog log_;
};

TEST_F(OriginLogTest, StartsEmpty) {
  EXPECT_TRUE(log_.empty());
  EXPECT_EQ(log_.size(), 0u);
  EXPECT_EQ(log_.head(), kNoItem);
  EXPECT_EQ(log_.tail(), kNoItem);
  EXPECT_EQ(log_.seq(0), 0u);
}

TEST_F(OriginLogTest, AppendsInOrder) {
  log_.AddLogRecord(0, 1);
  log_.AddLogRecord(1, 2);
  log_.AddLogRecord(2, 3);
  EXPECT_EQ(log_.size(), 3u);
  auto contents = Contents(log_);
  ASSERT_EQ(contents.size(), 3u);
  EXPECT_EQ(contents[0], (std::pair<ItemId, UpdateCount>{0, 1}));
  EXPECT_EQ(contents[2], (std::pair<ItemId, UpdateCount>{2, 3}));
}

TEST_F(OriginLogTest, SlotHoldsNewestRecord) {
  log_.AddLogRecord(5, 1);
  EXPECT_EQ(log_.seq(5), 1u);
  EXPECT_EQ(log_.tail(), 5u);
  log_.AddLogRecord(5, 2);
  EXPECT_EQ(log_.seq(5), 2u);
  EXPECT_EQ(log_.size(), 1u);
}

TEST_F(OriginLogTest, ItemsWithoutRecordHaveSeqZero) {
  log_.AddLogRecord(1000, 1);
  EXPECT_EQ(log_.seq(1000), 1u);
  EXPECT_EQ(log_.seq(0), 0u);
  EXPECT_EQ(log_.seq(999), 0u);
  EXPECT_EQ(log_.seq(5000), 0u);  // beyond every slot
  EXPECT_EQ(log_.head(), 1000u);
  EXPECT_EQ(log_.tail(), 1000u);
}

// Reproduces Fig. 1: log [y:1, x:3, z:4], adding (x,5) removes (x,3) and
// appends (x,5) at the tail.
TEST_F(OriginLogTest, Figure1LatestRecordReplacement) {
  const ItemId y = 0, x = 1, z = 2;
  log_.AddLogRecord(y, 1);
  log_.AddLogRecord(x, 3);
  log_.AddLogRecord(z, 4);
  log_.AddLogRecord(x, 5);

  auto contents = Contents(log_);
  ASSERT_EQ(contents.size(), 3u);
  EXPECT_EQ(contents[0], (std::pair<ItemId, UpdateCount>{y, 1}));
  EXPECT_EQ(contents[1], (std::pair<ItemId, UpdateCount>{z, 4}));
  EXPECT_EQ(contents[2], (std::pair<ItemId, UpdateCount>{x, 5}));
  EXPECT_EQ(log_.seq(x), 5u);
}

TEST_F(OriginLogTest, ReplacingHeadRecord) {
  log_.AddLogRecord(0, 1);
  log_.AddLogRecord(1, 2);
  log_.AddLogRecord(0, 3);  // replaces the head record
  auto contents = Contents(log_);
  ASSERT_EQ(contents.size(), 2u);
  EXPECT_EQ(contents[0], (std::pair<ItemId, UpdateCount>{1, 2}));
  EXPECT_EQ(contents[1], (std::pair<ItemId, UpdateCount>{0, 3}));
  EXPECT_EQ(log_.head(), 1u);
}

TEST_F(OriginLogTest, ReplacingOnlyRecord) {
  log_.AddLogRecord(0, 1);
  log_.AddLogRecord(0, 2);
  EXPECT_EQ(log_.size(), 1u);
  EXPECT_EQ(log_.head(), log_.tail());
  EXPECT_EQ(log_.seq(log_.head()), 2u);
}

TEST_F(OriginLogTest, AtMostOneRecordPerItem) {
  Rng rng(42);
  for (int i = 0; i < 1000; ++i) {
    ItemId item = static_cast<ItemId>(rng.Uniform(10));
    log_.AddLogRecord(item, static_cast<UpdateCount>(i + 1));
  }
  // The bound of §4.2: one record per item, so at most 10.
  EXPECT_LE(log_.size(), 10u);
  std::vector<int> seen(10, 0);
  for (ItemId x = log_.head(); x != kNoItem; x = log_.next(x)) ++seen[x];
  for (int count : seen) EXPECT_LE(count, 1);
}

TEST_F(OriginLogTest, RemoveMiddleRecord) {
  log_.AddLogRecord(0, 1);
  log_.AddLogRecord(1, 2);
  log_.AddLogRecord(2, 3);
  log_.Remove(1);
  EXPECT_EQ(log_.seq(1), 0u);
  auto contents = Contents(log_);
  ASSERT_EQ(contents.size(), 2u);
  EXPECT_EQ(contents[0].first, 0u);
  EXPECT_EQ(contents[1].first, 2u);
}

TEST_F(OriginLogTest, RemoveAllRecords) {
  log_.AddLogRecord(0, 1);
  log_.AddLogRecord(1, 2);
  log_.Remove(0);
  log_.Remove(1);
  EXPECT_TRUE(log_.empty());
  EXPECT_EQ(log_.head(), kNoItem);
  EXPECT_EQ(log_.tail(), kNoItem);
}

TEST_F(OriginLogTest, CollectTailSelectsSuffix) {
  for (ItemId i = 0; i < 5; ++i) {
    log_.AddLogRecord(i, i + 1);  // seqs 1..5
  }
  std::vector<LogRecord> out;
  EXPECT_EQ(log_.CollectTail(/*after=*/3, &out), 2u);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].seq, 4u);
  EXPECT_EQ(out[1].seq, 5u);
}

TEST_F(OriginLogTest, CollectTailAfterZeroReturnsEverything) {
  for (ItemId i = 0; i < 4; ++i) log_.AddLogRecord(i, i + 1);
  std::vector<LogRecord> out;
  EXPECT_EQ(log_.CollectTail(0, &out), 4u);
}

TEST_F(OriginLogTest, CollectTailBeyondTailReturnsNothing) {
  for (ItemId i = 0; i < 4; ++i) log_.AddLogRecord(i, i + 1);
  std::vector<LogRecord> out;
  EXPECT_EQ(log_.CollectTail(100, &out), 0u);
  EXPECT_TRUE(out.empty());
}

TEST_F(OriginLogTest, CollectTailOnEmptyLog) {
  std::vector<LogRecord> out;
  EXPECT_EQ(log_.CollectTail(0, &out), 0u);
}

TEST_F(OriginLogTest, CollectTailAppendsToExistingVector) {
  log_.AddLogRecord(0, 1);
  std::vector<LogRecord> out(3);
  log_.CollectTail(0, &out);
  EXPECT_EQ(out.size(), 4u);
}

TEST_F(OriginLogTest, MoveConstructorTransfersOwnership) {
  log_.AddLogRecord(0, 1);
  log_.AddLogRecord(1, 2);
  OriginLog moved(std::move(log_));
  EXPECT_EQ(moved.size(), 2u);
  EXPECT_EQ(log_.size(), 0u);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(moved.head(), 0u);
  EXPECT_EQ(log_.head(), kNoItem);  // NOLINT(bugprone-use-after-move)
}

TEST(LogVectorTest, OneComponentPerOrigin) {
  LogVector lv(4);
  EXPECT_EQ(lv.num_nodes(), 4u);
  lv.ForOrigin(0).AddLogRecord(0, 1);
  lv.ForOrigin(2).AddLogRecord(0, 1);
  lv.ForOrigin(2).AddLogRecord(0, 2);
  EXPECT_EQ(lv.ForOrigin(0).size(), 1u);
  EXPECT_EQ(lv.ForOrigin(1).size(), 0u);
  EXPECT_EQ(lv.ForOrigin(2).size(), 1u);
  EXPECT_EQ(lv.TotalRecords(), 2u);
}

TEST(LogVectorTest, TotalRecordsBoundedByNodesTimesItems) {
  // §4.2: total records ≤ n·N no matter how many updates flow through.
  const size_t n = 3, items = 7;
  LogVector lv(n);
  Rng rng(7);
  std::vector<UpdateCount> seq(n, 0);
  for (int i = 0; i < 5000; ++i) {
    NodeId origin = static_cast<NodeId>(rng.Uniform(n));
    ItemId item = static_cast<ItemId>(rng.Uniform(items));
    lv.ForOrigin(origin).AddLogRecord(item, ++seq[origin]);
  }
  EXPECT_LE(lv.TotalRecords(), n * items);
}

}  // namespace
}  // namespace epidemic
