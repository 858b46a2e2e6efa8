#include "runtime/scheduler.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace epidemic::runtime {

// Futex word lock, the classic three-state scheme: a waiter always leaves
// the lock in state 2 when it acquires after parking, so the eventual
// unlock knows to notify. Only ExecuteExclusive and single-shard inline
// mode ever block here; everything else uses TryLock.
void ShardScheduler::Gate::Lock() {
  uint32_t c = 0;
  // relaxed: failure order — losing the CAS publishes nothing; the retry
  // path below re-reads with its own acquire exchange.
  if (state.compare_exchange_strong(c, 1, std::memory_order_acquire,
                                    std::memory_order_relaxed)) {
    return;
  }
  if (c != 2) c = state.exchange(2, std::memory_order_acquire);
  while (c != 0) {
    // relaxed: the wait is only a parking hint; the acquire exchange on
    // wake is what synchronizes with the releasing Unlock.
    state.wait(2, std::memory_order_relaxed);
    c = state.exchange(2, std::memory_order_acquire);
  }
}

ShardScheduler::ShardScheduler(Options options) : options_(options) {
  if (options_.num_shards == 0) options_.num_shards = 1;
  options_.workers = std::min(options_.workers, options_.num_shards);

  num_shards_ = options_.num_shards;
  shards_ = std::make_unique<Shard[]>(num_shards_);
  for (size_t i = 0; i < num_shards_; ++i) {
    shards_[i].channel =
        std::make_unique<MpscQueue<Task>>(options_.channel_capacity);
  }

  // Owner notification is worth a futex syscall only when another core
  // can actually run the owner; on one hardware thread the inline/helper
  // paths do all the work and wakes would just burn syscalls.
  parallel_ =
      options_.workers > 0 && std::thread::hardware_concurrency() > 1;

  workers_.reserve(options_.workers);
  for (size_t w = 0; w < options_.workers; ++w) {
    workers_.push_back(std::make_unique<WorkerState>());
  }
  for (size_t w = 0; w < options_.workers; ++w) {
    workers_[w]->thread = std::thread([this, w] { WorkerLoop(w); });
  }
}

ShardScheduler::~ShardScheduler() {
  stop_.store(true, std::memory_order_release);
  for (auto& w : workers_) {
    w->signal.fetch_add(1, std::memory_order_release);
    w->signal.notify_all();
  }
  for (auto& w : workers_) {
    if (w->thread.joinable()) w->thread.join();
  }
  // Every entry point joins on its own tasks before returning, so nothing
  // can still be queued once the callers are gone.
  for (size_t i = 0; i < num_shards_; ++i) {
    assert(shards_[i].channel->EmptyApprox());
  }
}

void ShardScheduler::RunTask(size_t shard, Task& task) {
  const ShardToken token = Token(shard);
  // The task boundary: RunTask is only reached by the thread holding this
  // shard's gate inside a drain loop, so the body executes with the
  // shard-context capability. The assert makes that visible to Clang's
  // thread-safety analysis for the code below; the task body itself (a
  // lambda, analyzed separately) re-asserts from its token.
  AssertShardContext(token);
  if (task.mutates) {
    // relaxed: the epoch probe is conservative-not-lossy (sampled before
    // serving); the gate's release and acquire order this increment before
    // any later serve of this shard (DESIGN.md §11).
    mutation_epoch_.fetch_add(1, std::memory_order_relaxed);
  }
  task.fn(token);
  // relaxed: monotonic stats counter, read only by Stats() reporting.
  tasks_by_kind_[static_cast<size_t>(task.kind)].fetch_add(
      1, std::memory_order_relaxed);
}

size_t ShardScheduler::DrainLocked(size_t shard,
                                   std::atomic<uint64_t>* executed_counter) {
  Shard& sh = shards_[shard];
  size_t ran = 0;
  Task task;
  while (sh.channel->TryPop(&task)) {
    RunTask(shard, task);
    ++ran;
  }
  if (ran > 0) {
    // relaxed: monotonic stats counter, read only by Stats() reporting.
    executed_counter->fetch_add(ran, std::memory_order_relaxed);
  }
  return ran;
}

void ShardScheduler::DrainAndUnlock(size_t shard,
                                    std::atomic<uint64_t>* executed_counter) {
  Shard& sh = shards_[shard];
  for (;;) {
    sh.gate.Unlock();
    // The channel refilled behind our drain and nobody owns the gate:
    // re-acquire and keep draining, otherwise the task would sit behind a
    // free gate until the next unrelated acquisition.
    if (sh.channel->EmptyApprox()) return;
    if (!sh.gate.TryLock()) return;  // new holder inherits the invariant
    DrainLocked(shard, executed_counter);
  }
}

void ShardScheduler::PushWithBackpressure(size_t shard, Task task) {
  Shard& sh = shards_[shard];
  while (!sh.channel->TryPush(std::move(task))) {
    if (sh.gate.TryLock()) {
      DrainLocked(shard, &inline_tasks_);
      DrainAndUnlock(shard, &inline_tasks_);
    } else {
      sh.channel->WaitNotFull();  // holder is draining; park until space
    }
  }
  const uint64_t depth = sh.channel->SizeApprox();
  // relaxed: best-effort high-water mark for Stats(); the CAS loop keeps
  // it monotonic, and no other state is ordered against it.
  uint64_t peak = sh.depth_peak.load(std::memory_order_relaxed);
  while (depth > peak &&
         // relaxed: same best-effort high-water mark as the load above.
         !sh.depth_peak.compare_exchange_weak(peak, depth,
                                              std::memory_order_relaxed)) {
  }
}

void ShardScheduler::Execute(size_t shard, TaskKind kind, bool mutates,
                             const std::function<void(const ShardToken&)>& fn) {
  assert(shard < num_shards_);
  Shard& sh = shards_[shard];

  // Fast path (flat combining): win the gate while the channel is empty
  // and run inline — the common uncontended case costs one CAS each way,
  // like the striped lock it replaces, but never spins against a convoy.
  if (sh.channel->EmptyApprox() && sh.gate.TryLock()) {
    DrainLocked(shard, &inline_tasks_);  // racing push may have landed
    Task task{kind, mutates, [&fn](const ShardToken& token) { fn(token); }};
    RunTask(shard, task);
    // relaxed: monotonic stats counters, read only by Stats() reporting.
    inline_tasks_.fetch_add(1, std::memory_order_relaxed);
    fast_path_runs_.fetch_add(1, std::memory_order_relaxed);
    DrainAndUnlock(shard, &inline_tasks_);
    return;
  }

  // Slow path: hand the closure to whoever owns the gate. The completion
  // flag is shared-owned because the executing thread touches it after
  // setting it (notify), which may race with this frame unwinding.
  auto done = std::make_shared<std::atomic<uint32_t>>(0);
  Task task{kind, mutates, [&fn, done](const ShardToken& token) {
              fn(token);
              done->store(1, std::memory_order_release);
              done->notify_all();
            }};
  PushWithBackpressure(shard, std::move(task));
  while (done->load(std::memory_order_acquire) == 0) {
    if (sh.gate.TryLock()) {
      DrainLocked(shard, &inline_tasks_);
      DrainAndUnlock(shard, &inline_tasks_);
    } else {
      done->wait(0, std::memory_order_acquire);
    }
  }
}

void ShardScheduler::ExecuteBatchIndexed(
    const std::vector<size_t>& shards, TaskKind kind, bool mutates,
    const std::function<void(const ShardToken&, size_t)>& fn) {
  if (shards.empty()) return;

  std::vector<size_t> queued;  // indices into `shards`
  if (parallel_) {
    queued.resize(shards.size());
    for (size_t i = 0; i < shards.size(); ++i) queued[i] = i;
  } else {
    // One hardware thread (or no owners): an owner can only run when we
    // yield the core, so fanning out through the channels buys no overlap
    // and pays a wrapper closure, two shared counters and a join scan per
    // round. Run each item inline behind its gate instead, deferring only
    // the shards whose gate a concurrent holder owns (that holder's
    // drain-then-release makes the deferred task run promptly). The Task
    // built here wraps (&fn, i), which std::function stores in place.
    for (size_t i = 0; i < shards.size(); ++i) {
      const size_t shard = shards[i];
      assert(shard < num_shards_);
      if (!shards_[shard].gate.TryLock()) {
        queued.push_back(i);
        continue;
      }
      DrainLocked(shard, &inline_tasks_);
      Task task{kind, mutates,
                [&fn, i](const ShardToken& token) { fn(token, i); }};
      RunTask(shard, task);
      // relaxed: monotonic stats counter, read only by Stats() reporting.
      inline_tasks_.fetch_add(1, std::memory_order_relaxed);
      DrainAndUnlock(shard, &inline_tasks_);
    }
    if (queued.empty()) return;
  }
  ExecuteBatch(shards, queued, kind, mutates, fn);
}

void ShardScheduler::ExecuteBatch(
    const std::vector<size_t>& shards, const std::vector<size_t>& queued,
    TaskKind kind, bool mutates,
    const std::function<void(const ShardToken&, size_t)>& fn) {
  auto remaining = std::make_shared<std::atomic<size_t>>(queued.size());
  auto done = std::make_shared<std::atomic<uint32_t>>(0);

  std::vector<size_t> involved;
  involved.reserve(queued.size());
  for (size_t i : queued) {
    assert(shards[i] < num_shards_);
    involved.push_back(shards[i]);
    // The wrapper borrows `fn`; the join below waits for every execution,
    // so the reference outlives them all.
    Task task{kind, mutates,
              [&fn, i, remaining, done](const ShardToken& token) {
                fn(token, i);
                if (remaining->fetch_sub(1, std::memory_order_acq_rel) == 1) {
                  done->store(1, std::memory_order_release);
                  done->notify_all();
                }
              }};
    PushWithBackpressure(shards[i], std::move(task));
  }
  std::sort(involved.begin(), involved.end());
  involved.erase(std::unique(involved.begin(), involved.end()),
                 involved.end());

  if (parallel_) {
    // One wake per distinct owner, after full fan-out: the whole round is
    // S tasks and at most W futex signals, not S lock acquisitions.
    std::vector<size_t> owners;
    owners.reserve(involved.size());
    for (size_t shard : involved) owners.push_back(OwnerOf(shard));
    std::sort(owners.begin(), owners.end());
    owners.erase(std::unique(owners.begin(), owners.end()), owners.end());
    for (size_t w : owners) {
      workers_[w]->signal.fetch_add(1, std::memory_order_release);
      workers_[w]->signal.notify_one();
    }
  }

  // Join, helping: drain whatever involved shard is free. When no shard
  // is drainable the remaining tasks are in (or headed into) some
  // holder's drain loop, so parking on the completion flag is safe.
  while (done->load(std::memory_order_acquire) == 0) {
    bool progressed = false;
    for (size_t shard : involved) {
      Shard& sh = shards_[shard];
      if (sh.channel->EmptyApprox() || !sh.gate.TryLock()) continue;
      progressed |= DrainLocked(shard, &inline_tasks_) > 0;
      DrainAndUnlock(shard, &inline_tasks_);
    }
    if (!progressed && done->load(std::memory_order_acquire) == 0) {
      done->wait(0, std::memory_order_acquire);
    }
  }
}

void ShardScheduler::ExecuteExclusive(
    bool mutates, const std::function<void(const ExclusiveToken&)>& fn) {
  // relaxed: monotonic stats counter, read only by Stats() reporting.
  exclusive_barriers_.fetch_add(1, std::memory_order_relaxed);
  const ExclusiveToken token;

  // Ascending blocking acquisition is the one place gates are held in
  // bulk; every other holder owns exactly one gate and never blocks on a
  // second, so this order cannot deadlock.
  for (size_t i = 0; i < num_shards_; ++i) {
    shards_[i].gate.Lock();
    DrainLocked(i, &inline_tasks_);
  }
  if (mutates) {
    // relaxed: epoch probe is conservative-not-lossy; every gate's release
    // and acquire order this increment before any later serve (DESIGN.md
    // §11).
    mutation_epoch_.fetch_add(1, std::memory_order_relaxed);
  }
  fn(token);
  for (size_t i = num_shards_; i-- > 0;) {
    DrainAndUnlock(i, &inline_tasks_);
  }
}

void ShardScheduler::WorkerLoop(size_t worker_index) {
  WorkerState& me = *workers_[worker_index];
  for (;;) {
    // Sample the wake epoch before scanning: a producer bumping it during
    // the scan makes the park below return immediately, so no wake is
    // ever lost between "saw empty" and "parked".
    const uint64_t epoch = me.signal.load(std::memory_order_acquire);
    size_t ran = 0;
    for (size_t shard = worker_index; shard < num_shards_;
         shard += workers_.size()) {
      Shard& sh = shards_[shard];
      if (sh.channel->EmptyApprox() || !sh.gate.TryLock()) continue;
      ran += DrainLocked(shard, &me.tasks_executed);
      DrainAndUnlock(shard, &me.tasks_executed);
    }
    if (stop_.load(std::memory_order_acquire)) return;
    if (ran == 0) me.signal.wait(epoch, std::memory_order_acquire);
  }
}

// relaxed (whole function): every atomic below is a monotonic stats
// counter with no payload ordered behind it; a torn-across-counters
// snapshot is acceptable in a stats report, and exchange keeps each
// individual counter exact across reset.
SchedulerStats ShardScheduler::Stats(bool reset) const {
  SchedulerStats out;
  out.workers.resize(workers_.size());
  for (size_t w = 0; w < workers_.size(); ++w) {
    // relaxed: stats counter (see function comment).
    out.workers[w].tasks_executed =
        reset ? workers_[w]->tasks_executed.exchange(
                    0, std::memory_order_relaxed)
              : workers_[w]->tasks_executed.load(std::memory_order_relaxed);
  }
  for (size_t i = 0; i < num_shards_; ++i) {
    // relaxed: stats counter (see function comment).
    const uint64_t peak =
        reset ? shards_[i].depth_peak.exchange(0, std::memory_order_relaxed)
              : shards_[i].depth_peak.load(std::memory_order_relaxed);
    out.queue_depth_peak = std::max(out.queue_depth_peak, peak);
    if (!workers_.empty()) {
      SchedulerStats::Worker& w = out.workers[OwnerOf(i)];
      w.queue_depth_peak = std::max(w.queue_depth_peak, peak);
    }
  }
  // relaxed: stats counter (see function comment).
  out.inline_tasks =
      reset ? inline_tasks_.exchange(0, std::memory_order_relaxed)
            : inline_tasks_.load(std::memory_order_relaxed);
  // relaxed: stats counter (see function comment).
  out.fast_path_runs =
      reset ? fast_path_runs_.exchange(0, std::memory_order_relaxed)
            : fast_path_runs_.load(std::memory_order_relaxed);
  // relaxed: stats counter (see function comment).
  out.exclusive_barriers =
      reset ? exclusive_barriers_.exchange(0, std::memory_order_relaxed)
            : exclusive_barriers_.load(std::memory_order_relaxed);
  for (size_t k = 0; k < kNumTaskKinds; ++k) {
    // relaxed: stats counter (see function comment).
    out.tasks_by_kind[k] =
        reset ? tasks_by_kind_[k].exchange(0, std::memory_order_relaxed)
              : tasks_by_kind_[k].load(std::memory_order_relaxed);
  }
  return out;
}

}  // namespace epidemic::runtime
