// EPI_CHECK guards protocol invariants whose violation means a bug; these
// death tests pin that they really abort instead of limping on.

#include <gtest/gtest.h>

#include "log/log_vector.h"
#include "sim/event_queue.h"
#include "vv/version_vector.h"

namespace epidemic {
namespace {

using VvDeathTest = ::testing::Test;

TEST(VvDeathTest, MismatchedSizesAbort) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  VersionVector a(2), b(3);
  EXPECT_DEATH((void)VersionVector::Compare(a, b), "different sizes");
  EXPECT_DEATH(a.MergeMax(b), "size mismatch");
}

TEST(VvDeathTest, AddDeltaRequiresDominance) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  VersionVector dbvv(2);
  VersionVector newer(2), base(2);
  base[0] = 5;  // base exceeds "newer": the protocol never does this
  EXPECT_DEATH(dbvv.AddDelta(newer, base), "requires newer >= base");
}

TEST(EventQueueDeathTest, SchedulingInThePastAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  sim::EventQueue q;
  q.At(100, [] {});
  q.RunOne();  // now == 100
  EXPECT_DEATH(q.At(50, [] {}), "in the past");
}

TEST(LogDeathTest, RemoveWithoutRecordAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  OriginLog log;
  log.AddLogRecord(1, 1);
  log.AddLogRecord(2, 2);
  log.Remove(1);
  EXPECT_DEATH(log.Remove(1), "has no record");  // already removed
  EXPECT_DEATH(log.Remove(7), "has no record");  // beyond every slot
}

}  // namespace
}  // namespace epidemic
