#ifndef EPIDEMIC_RUNTIME_TASK_H_
#define EPIDEMIC_RUNTIME_TASK_H_

#include <cstddef>
#include <cstdint>
#include <functional>

#include "common/thread_annotations.h"

namespace epidemic::runtime {

/// Taxonomy of shard work. Used for the per-kind execution counters in
/// SchedulerStats; the scheduler itself treats every kind identically.
enum class TaskKind : uint8_t {
  kLocalUpdate = 0,  // client Update/Delete/ResolveConflict
  kServe = 1,        // anti-entropy serve: build a propagation segment
  kAccept = 2,       // anti-entropy accept: apply a peer's segment
  kSnapshot = 3,     // DBVV/checkpoint/scan snapshot work
  kStats = 4,        // stats aggregation or reset
  kRead = 5,         // client read
  kOther = 6,
};
inline constexpr size_t kNumTaskKinds = 7;

inline const char* TaskKindName(TaskKind kind) {
  switch (kind) {
    case TaskKind::kLocalUpdate: return "local_update";
    case TaskKind::kServe: return "serve";
    case TaskKind::kAccept: return "accept";
    case TaskKind::kSnapshot: return "snapshot";
    case TaskKind::kStats: return "stats";
    case TaskKind::kRead: return "read";
    case TaskKind::kOther: return "other";
  }
  return "unknown";
}

/// Capability token proving the bearer is executing inside shard
/// `shard()`'s single-writer section (its gate is held by the invoking
/// drain loop). Only ShardScheduler can mint one, so a function taking a
/// `const ShardToken&` is statically reachable only from scheduled tasks —
/// the REQUIRES(mu)-style discipline of PR 2, with channel ownership
/// standing in for the mutex.
class ShardToken {
 public:
  size_t shard() const { return shard_; }

 private:
  friend class ShardScheduler;
  explicit ShardToken(size_t shard) : shard_(shard) {}
  size_t shard_;
};

/// Capability token proving the bearer is inside an ExecuteExclusive
/// section: every shard's gate is held (in ascending index order) and every
/// channel has been drained, so the bearer is the sole writer of the whole
/// replica. Strictly stronger than any single ShardToken. Only
/// ShardScheduler can mint one.
class ExclusiveToken {
 public:
  ExclusiveToken(const ExclusiveToken&) = delete;
  ExclusiveToken& operator=(const ExclusiveToken&) = delete;

 private:
  friend class ShardScheduler;
  ExclusiveToken() = default;
};

/// Converts a scheduler-minted token into the static `shard_context`
/// capability (see common/thread_annotations.h). Called by the scheduler's
/// trampoline before invoking the task body, and by task lambdas whose body
/// the analysis examines separately from the trampoline (lambdas are
/// analyzed as independent functions). Possession of a token IS the proof:
/// the scheduler only passes one to code running inside the owner's
/// drain loop, so the assert carries no runtime check.
inline void AssertShardContext(const ShardToken& token)
    ASSERT_CAPABILITY(::epidemic::shard_context) {
  (void)token;
}

/// ExclusiveToken overload: all gates held implies every shard's
/// single-writer section is ours.
inline void AssertShardContext(const ExclusiveToken& token)
    ASSERT_CAPABILITY(::epidemic::shard_context) {
  (void)token;
}

/// A unit of shard work queued on the owner's channel.
struct Task {
  TaskKind kind = TaskKind::kOther;
  /// Mutating tasks bump the scheduler's mutation epoch before they run
  /// (ShardScheduler::MutationEpoch).
  bool mutates = false;
  std::function<void(const ShardToken&)> fn;
};

}  // namespace epidemic::runtime

#endif  // EPIDEMIC_RUNTIME_TASK_H_
