// Model-based testing of OriginLog against a trivially-correct reference
// implementation: a map item -> seq plus a sorted view. After thousands of
// random operations the slot-linked list must agree with the model exactly.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "common/random.h"
#include "log/log_vector.h"

namespace epidemic {
namespace {

/// Reference model: latest seq per item; ordering = ascending seq.
class ModelLog {
 public:
  void Add(ItemId item, UpdateCount seq) { latest_[item] = seq; }

  void Remove(ItemId item) { latest_.erase(item); }

  std::vector<std::pair<ItemId, UpdateCount>> Ordered() const {
    std::vector<std::pair<ItemId, UpdateCount>> out(latest_.begin(),
                                                    latest_.end());
    std::sort(out.begin(), out.end(),
              [](const auto& a, const auto& b) { return a.second < b.second; });
    return out;
  }

  std::vector<std::pair<ItemId, UpdateCount>> Tail(UpdateCount after) const {
    auto all = Ordered();
    std::vector<std::pair<ItemId, UpdateCount>> out;
    for (const auto& e : all) {
      if (e.second > after) out.push_back(e);
    }
    return out;
  }

  size_t size() const { return latest_.size(); }

 private:
  std::map<ItemId, UpdateCount> latest_;
};

std::vector<std::pair<ItemId, UpdateCount>> Walk(const OriginLog& log) {
  std::vector<std::pair<ItemId, UpdateCount>> out;
  for (ItemId x = log.head(); x != kNoItem; x = log.next(x)) {
    out.emplace_back(x, log.seq(x));
  }
  return out;
}

class LogModelTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LogModelTest, AgreesWithReferenceUnderRandomOps) {
  const uint64_t seed = GetParam();
  Rng rng(seed);
  const ItemId num_items = static_cast<ItemId>(2 + rng.Uniform(30));

  OriginLog log;
  ModelLog model;
  UpdateCount seq = 0;

  for (int step = 0; step < 3000; ++step) {
    double dice = rng.NextDouble();
    if (dice < 0.75 || model.size() == 0) {
      ItemId item = static_cast<ItemId>(rng.Uniform(num_items));
      log.AddLogRecord(item, ++seq);
      model.Add(item, seq);
    } else {
      // Remove a random present record (the conflict-drop path).
      auto ordered = model.Ordered();
      ItemId item = ordered[rng.Uniform(ordered.size())].first;
      log.Remove(item);
      model.Remove(item);
    }

    // Full-state agreement every step.
    ASSERT_EQ(log.size(), model.size()) << "seed=" << seed;
    ASSERT_EQ(Walk(log), model.Ordered()) << "seed=" << seed;

    // Tail agreement at a random horizon.
    UpdateCount after = rng.Uniform(seq + 2);
    std::vector<LogRecord> tail_buf;
    log.CollectTail(after, &tail_buf);
    std::vector<std::pair<ItemId, UpdateCount>> got;
    for (const LogRecord& r : tail_buf) got.emplace_back(r.item, r.seq);
    ASSERT_EQ(got, model.Tail(after)) << "seed=" << seed << " after=" << after;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LogModelTest,
                         ::testing::Range(uint64_t{1}, uint64_t{9}));

}  // namespace
}  // namespace epidemic
