#ifndef EPIDEMIC_COMMON_THREAD_ANNOTATIONS_H_
#define EPIDEMIC_COMMON_THREAD_ANNOTATIONS_H_

#include <mutex>

/// Clang `-Wthread-safety` annotations plus the annotated primitives the
/// rest of the tree uses. Two disciplines are machine-checked here:
///
///  1. Classic mutexes (`Mutex`/`MutexLock` below): every guarded member
///     says which mutex guards it, every locking function says what it
///     acquires, and the build fails under `EPIDEMIC_WERROR_THREAD_SAFETY=ON`
///     (Clang) when code touches a guarded member without its lock.
///
///  2. The shard-context capability (`ShardContext` below, DESIGN.md §12):
///     since the shard-owned task runtime replaced striped locks, shard
///     state is protected by *channel ownership*, not mutexes. The phantom
///     `shard_context` capability makes that statically visible — mutating
///     replica/log/store methods carry `REQUIRES_SHARD_CONTEXT`, and the
///     only code that legitimately asserts the capability is the
///     scheduler's task trampoline (plus a handful of audited single-owner
///     escapes, see AssertShardContextHeld).
///
/// Under compilers without the attributes (GCC) every macro expands to
/// nothing, so the annotations are free documentation there.

#if defined(__clang__) && defined(__has_attribute)
#define EPI_TSA_ATTR(x) __attribute__((x))
#else
#define EPI_TSA_ATTR(x)  // no-op outside Clang
#endif

/// On a class: instances are a capability (lockable object).
#define CAPABILITY(x) EPI_TSA_ATTR(capability(x))

/// On a class: RAII object that acquires a capability in its constructor
/// and releases it in its destructor.
#define SCOPED_CAPABILITY EPI_TSA_ATTR(scoped_lockable)

/// On a data member: reads and writes require holding `x`.
#define GUARDED_BY(x) EPI_TSA_ATTR(guarded_by(x))

/// On a pointer member: dereferences require holding `x` (the pointer
/// itself is not guarded).
#define PT_GUARDED_BY(x) EPI_TSA_ATTR(pt_guarded_by(x))

/// On a mutex member: document (and check, where resolvable) lock order.
#define ACQUIRED_BEFORE(...) EPI_TSA_ATTR(acquired_before(__VA_ARGS__))
#define ACQUIRED_AFTER(...) EPI_TSA_ATTR(acquired_after(__VA_ARGS__))

/// On a function: callers must hold the capability (not acquired inside).
#define REQUIRES(...) EPI_TSA_ATTR(requires_capability(__VA_ARGS__))
#define REQUIRES_SHARED(...) \
  EPI_TSA_ATTR(requires_shared_capability(__VA_ARGS__))

/// On a function: acquires the capability and holds it on return.
#define ACQUIRE(...) EPI_TSA_ATTR(acquire_capability(__VA_ARGS__))
#define ACQUIRE_SHARED(...) \
  EPI_TSA_ATTR(acquire_shared_capability(__VA_ARGS__))

/// On a function: releases a capability the caller holds.
#define RELEASE(...) EPI_TSA_ATTR(release_capability(__VA_ARGS__))
#define RELEASE_SHARED(...) \
  EPI_TSA_ATTR(release_shared_capability(__VA_ARGS__))

/// On a function returning bool: acquires the capability iff the return
/// value equals the first argument.
#define TRY_ACQUIRE(...) \
  EPI_TSA_ATTR(try_acquire_capability(__VA_ARGS__))
#define TRY_ACQUIRE_SHARED(...) \
  EPI_TSA_ATTR(try_acquire_shared_capability(__VA_ARGS__))

/// On a function: callers must NOT hold the capability (deadlock guard for
/// functions that acquire it themselves).
#define EXCLUDES(...) EPI_TSA_ATTR(locks_excluded(__VA_ARGS__))

/// On a function: returns a reference to the named capability.
#define RETURN_CAPABILITY(x) EPI_TSA_ATTR(lock_returned(x))

/// On a function: runtime-asserts the capability is held.
#define ASSERT_CAPABILITY(x) EPI_TSA_ATTR(assert_capability(x))

/// Escape hatch for locking patterns outside the static model (e.g. a
/// runtime-indexed capability the analysis cannot resolve). Prefer
/// AssertShardContextHeld() for shard-state escapes — it is visible to the
/// analysis and greppable. Every use must carry a comment saying why.
#define NO_THREAD_SAFETY_ANALYSIS \
  EPI_TSA_ATTR(no_thread_safety_analysis)

namespace epidemic {

/// Phantom capability representing "the current thread is inside a shard's
/// single-writer section" — i.e. it is the scheduler worker (or inline
/// caller) that holds the shard's gate and is draining its channel. There is
/// no lock to acquire: the capability is *asserted* at the task boundary
/// (ShardScheduler's trampoline, via runtime::AssertShardContext) and
/// *required* by every mutating method on Replica, ShardedReplica,
/// OriginLog/LogVector, AuxLog and ItemStore. Clang's analysis then rejects
/// any call chain that reaches shard state without passing through the
/// scheduler. See DESIGN.md §12.
class CAPABILITY("shard_context") ShardContext {
 public:
  ShardContext() = default;
  ShardContext(const ShardContext&) = delete;
  ShardContext& operator=(const ShardContext&) = delete;
};

/// The single global instance the annotations name. Zero-size phantom —
/// never locked, never inspected at runtime.
inline ShardContext shard_context;

/// `REQUIRES_SHARD_CONTEXT` marks a function as "may only run inside a
/// shard's single-writer section". Enforcement is gated per-TU on
/// EPIDEMIC_CHECK_SHARD_CONTEXT (defined for src/ and tools/ by CMake):
/// library and server code is checked, while tests/benches — which drive
/// single-owner replicas directly from their own thread — compile the same
/// headers with the attribute expanded away. Function attributes do not
/// participate in mangling or the ODR, so mixing checked and unchecked TUs
/// is well-defined.
#if defined(EPIDEMIC_CHECK_SHARD_CONTEXT)
#define REQUIRES_SHARD_CONTEXT REQUIRES(::epidemic::shard_context)
#else
#define REQUIRES_SHARD_CONTEXT  // unchecked TU (tests/bench/examples)
#endif

/// Audited escape: asserts the shard-context capability for the rest of
/// the calling function without any runtime proof. Legitimate only where
/// exactly one actor can possibly reach the state being mutated:
///   * replay/decode of a freshly constructed, not-yet-published replica
///     (journal recovery, snapshot decode),
///   * single-threaded reference drivers (baselines, multidb),
///   * scheduler-external code that holds every gate (ExecuteExclusive).
/// Every call site must carry a comment naming the single owner.
inline void AssertShardContextHeld() ASSERT_CAPABILITY(shard_context) {}

/// std::mutex with capability annotations: `-Wthread-safety` only tracks
/// acquisitions made through annotated functions, so the tree locks this
/// wrapper (usually via MutexLock below) instead of std::mutex directly.
/// Same cost — the wrapper is empty — and works as a BasicLockable with
/// std::condition_variable_any for the wait loops.
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() ACQUIRE() { mu_.lock(); }
  void unlock() RELEASE() { mu_.unlock(); }
  bool try_lock() TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  std::mutex mu_;  // NOLINT-PROTOCOL(unguarded-mutex): the annotated wrapper itself
};

/// Tag type selecting the adopting MutexLock constructor.
struct AdoptLockT {
  explicit AdoptLockT() = default;
};
inline constexpr AdoptLockT kAdoptLock{};

/// RAII guard over Mutex, visible to the analysis (the annotated
/// replacement for std::lock_guard / std::unique_lock).
class SCOPED_CAPABILITY MutexLock {
 public:
  /// Blocks until `mu` is acquired; releases it on destruction.
  explicit MutexLock(Mutex& mu) ACQUIRE(mu) : mu_(mu) { mu_.lock(); }

  /// Adopts a mutex the caller already holds (e.g. after a successful
  /// try_lock()); releases it on destruction.
  MutexLock(Mutex& mu, AdoptLockT) REQUIRES(mu) : mu_(mu) {}

  ~MutexLock() RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

}  // namespace epidemic

#endif  // EPIDEMIC_COMMON_THREAD_ANNOTATIONS_H_
