// Concurrency stress for the shard-ownership runtime (runtime/scheduler.h),
// aimed squarely at the TSAN CI leg: writers, read tasks, batch fan-outs
// (ExecuteBatchIndexed) and cross-shard barriers all race on the same
// scheduler while every read asserts it saw no torn value.
//
// The shard state here is deliberately a plain (non-atomic) map per shard —
// exactly what the server keeps behind the scheduler. If the single-writer
// discipline leaked anywhere (a task running outside its gate, a barrier
// that misses a queued task), TSAN flags the data race and the
// self-describing "<key>=<tag>" values catch torn bytes even without TSAN.

#include "runtime/scheduler.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

namespace epidemic::runtime {
namespace {

constexpr size_t kShards = 8;

/// Plain mutable state, one per shard; only ever touched inside that
/// shard's single-writer section.
struct ShardState {
  std::map<std::string, std::string> items;
  uint64_t mutations = 0;
};

/// A value is torn if it is not exactly "<key>=<tag>" for its key.
void AssertUntorn(const std::string& key, const std::string& value) {
  ASSERT_EQ(value.rfind(key + "=", 0), 0u)
      << "torn read: key '" << key << "' returned '" << value << "'";
}

TEST(SchedulerStressTest, WritersReadersBatchesAndBarriers) {
  constexpr int kWriters = 3;
  constexpr int kOpsPerWriter = 1500;
  constexpr int kKeysPerShard = 4;

  ShardScheduler::Options options;
  options.num_shards = kShards;
  options.workers = 2;
  options.channel_capacity = 32;  // small: exercise backpressure
  ShardScheduler sched(options);
  std::vector<ShardState> state(kShards);
  // Total completed mutations; incremented inside the mutating task so the
  // barrier invariant below is exact, not racy.
  std::atomic<uint64_t> total_mutations{0};

  auto key_for = [](size_t shard, int k) {
    return "s" + std::to_string(shard) + "-k" + std::to_string(k);
  };

  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;

  // Writers: every op is one kLocalUpdate task on its shard, mutating the
  // plain map.
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      for (int i = 0; i < kOpsPerWriter; ++i) {
        const size_t shard = static_cast<size_t>(i) % kShards;
        const std::string key = key_for(shard, i % kKeysPerShard);
        const std::string value =
            key + "=w" + std::to_string(w) + "u" + std::to_string(i);
        sched.Execute(shard, TaskKind::kLocalUpdate, /*mutates=*/true,
                      [&, key, value](const ShardToken&) {
                        state[shard].items[key] = value;
                        ++state[shard].mutations;
                        total_mutations.fetch_add(1,
                                                  std::memory_order_relaxed);
                      });
      }
    });
  }

  // Readers: every read is one kRead task on its shard, like the server's.
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&] {
      uint64_t probes = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const size_t shard = probes++ % kShards;
        const std::string key =
            key_for(shard, static_cast<int>(probes) % kKeysPerShard);
        std::string value;
        bool found = false;
        sched.Execute(shard, TaskKind::kRead, /*mutates=*/false,
                      [&](const ShardToken&) {
                        auto it = state[shard].items.find(key);
                        if (it != state[shard].items.end()) {
                          found = true;
                          value = it->second;
                        }
                      });
        if (found) AssertUntorn(key, value);
      }
    });
  }

  // Batch fan-outs: one join over all shards per round, like an
  // anti-entropy exchange. Each round's snapshot must be internally
  // untorn and the join must not return before every task ran.
  threads.emplace_back([&] {
    std::vector<size_t> all(kShards);
    for (size_t shard = 0; shard < kShards; ++shard) all[shard] = shard;
    while (!stop.load(std::memory_order_relaxed)) {
      std::vector<size_t> sizes(kShards, SIZE_MAX);
      sched.ExecuteBatchIndexed(all, TaskKind::kSnapshot, /*mutates=*/false,
                                [&](const ShardToken& token, size_t i) {
                                  ASSERT_EQ(token.shard(), all[i]);
                                  sizes[i] = state[i].items.size();
                                });
      for (size_t shard = 0; shard < kShards; ++shard) {
        ASSERT_NE(sizes[shard], SIZE_MAX) << "batch task never ran";
        ASSERT_LE(sizes[shard], static_cast<size_t>(kKeysPerShard));
      }
    }
  });

  // Cross-shard barriers: while every gate is held, the per-shard
  // mutation counters must sum exactly to the global completion counter —
  // the AllShardsLock replacement really does quiesce all writers.
  threads.emplace_back([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      sched.ExecuteExclusive(/*mutates=*/false, [&](const ExclusiveToken&) {
        uint64_t sum = 0;
        for (const ShardState& s : state) sum += s.mutations;
        ASSERT_EQ(sum, total_mutations.load(std::memory_order_relaxed));
      });
      std::this_thread::yield();
    }
  });

  for (int w = 0; w < kWriters; ++w) threads[w].join();
  stop.store(true);
  for (size_t t = kWriters; t < threads.size(); ++t) threads[t].join();

  uint64_t final_sum = 0;
  sched.ExecuteExclusive(/*mutates=*/false, [&](const ExclusiveToken&) {
    for (const ShardState& s : state) final_sum += s.mutations;
  });
  EXPECT_EQ(final_sum, static_cast<uint64_t>(kWriters) * kOpsPerWriter);
  EXPECT_EQ(final_sum, total_mutations.load());

  const SchedulerStats stats = sched.Stats();
  EXPECT_GE(stats.TotalTasks(), final_sum);  // plus reads/batches
  EXPECT_GT(stats.exclusive_barriers, 0u);
  EXPECT_EQ(stats.workers.size(), 2u);
  EXPECT_GE(stats.tasks_by_kind[static_cast<size_t>(TaskKind::kLocalUpdate)],
            final_sum);
}

// Without owner threads a batch driven from one thread runs every task on
// the calling thread, in the order of its shard list, before it returns —
// the determinism contract epicheck relies on.
TEST(SchedulerStressTest, InlineBatchRunsOnCallerInListOrder) {
  ShardScheduler::Options options;
  options.num_shards = 4;
  options.workers = 0;
  ShardScheduler sched(options);
  ASSERT_EQ(sched.num_workers(), 0u);

  const std::vector<size_t> shards = {2, 0, 3, 1};
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<size_t> order;
  sched.ExecuteBatchIndexed(shards, TaskKind::kOther, /*mutates=*/false,
                            [&](const ShardToken& token, size_t i) {
                              EXPECT_EQ(std::this_thread::get_id(), caller);
                              EXPECT_EQ(token.shard(), shards[i]);
                              order.push_back(token.shard());
                            });
  EXPECT_EQ(order, shards);
  const SchedulerStats stats = sched.Stats();
  EXPECT_EQ(stats.inline_tasks, shards.size());
  EXPECT_EQ(stats.queue_depth_peak, 0u);  // nothing was ever queued
}

}  // namespace
}  // namespace epidemic::runtime
