#ifndef EPIDEMIC_SERVER_REPLICA_SERVER_H_
#define EPIDEMIC_SERVER_REPLICA_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "common/buffer_pool.h"
#include "common/clock.h"
#include "common/thread_annotations.h"
#include "core/conflict.h"
#include "core/replica.h"
#include "core/sharded_replica.h"
#include "net/transport.h"
#include "runtime/scheduler.h"
#include "server/sharded_exchange.h"

namespace epidemic::server {

/// Thread-safe conflict listener: shards report conflicts concurrently, so
/// the server records them under a private mutex and lets callers drain.
class LockedConflictListener : public ConflictListener {
 public:
  void OnConflict(const ConflictEvent& event) override EXCLUDES(mu_) {
    MutexLock lock(mu_);
    events_.push_back(event);
  }

  /// Removes and returns everything recorded so far.
  std::vector<ConflictEvent> Take() EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return std::exchange(events_, {});
  }

  size_t count() const EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return events_.size();
  }

 private:
  mutable Mutex mu_;
  std::vector<ConflictEvent> events_ GUARDED_BY(mu_);
};

/// A deployable replica node: wraps a core::ShardedReplica behind a
/// single-writer shard scheduler (runtime/scheduler.h), serves protocol and
/// client RPCs as a net::RequestHandler, and (optionally) runs a background
/// anti-entropy thread that periodically pulls updates from its peers in
/// round-robin order — the "separate activity" of the epidemic model (§1).
///
/// Concurrency model (DESIGN.md §11): there are no shard mutexes. Every
/// shard is pinned to one owner and all access to it runs as tasks inside
/// its single-writer section; the `runtime::ShardToken` a task receives is
/// the REQUIRES-style capability proving it. User operations and
/// single-shard protocol steps, reads included, are one task on one
/// shard; each step of a sharded anti-entropy exchange (ShardedExchange,
/// server/sharded_exchange.h) fans S tasks out to the owners and joins
/// (ExecuteBatchIndexed) instead of taking S locks;
/// whole-database operations (stats, WithReplica) run under the
/// scheduler's cross-shard barrier (ExecuteExclusive), which replaced the
/// old AllShardsLock — and with it the codebase's last
/// NO_THREAD_SAFETY_ANALYSIS escape. No shard is ever held across a
/// transport call, so two servers pulling from each other cannot
/// deadlock.
class ReplicaServer : public net::RequestHandler {
 public:
  struct Options {
    /// Peers this node pulls from, visited round-robin. Usually all other
    /// nodes, or the ring successor for a ring schedule.
    std::vector<NodeId> peers;

    /// Background pull period; 0 disables the thread (pull manually via
    /// PullFrom).
    TimeMicros anti_entropy_interval_micros = 0;

    /// Shard count for the in-memory constructor (ignored by the one that
    /// takes a replica, whose shard count is fixed). Every node of a
    /// cluster must agree.
    size_t num_shards = ShardedReplica::kDefaultShards;

    /// Shard-owner worker threads for the scheduler; 0 means callers run
    /// every task inline behind the per-shard gates (still correct, no
    /// extra threads).
    size_t ae_workers = 0;
  };

  /// In-memory server over fresh shards that report conflicts to this
  /// server (TakeConflicts). `transport` must outlive the server.
  ReplicaServer(NodeId id, size_t num_nodes, net::Transport* transport,
                Options options);

  /// Server over `replica`. Built by ShardedReplica::Open, every shard
  /// journals its own inputs and `Checkpoint()` snapshots + truncates per
  /// shard. Conflicts flow through the listener the replica was built with
  /// (pass a LockedConflictListener you own if you need them); this
  /// server's TakeConflicts sees only the in-memory constructor's events.
  ReplicaServer(std::unique_ptr<ShardedReplica> replica,
                net::Transport* transport, Options options);

  ~ReplicaServer() override;

  ReplicaServer(const ReplicaServer&) = delete;
  ReplicaServer& operator=(const ReplicaServer&) = delete;

  /// Starts the background anti-entropy thread (no-op if the interval is 0).
  void Start() EXCLUDES(thread_mu_);

  /// Stops and joins the background thread. Safe to call repeatedly.
  void Stop() EXCLUDES(thread_mu_);

  // -------------------------------------------------------------------
  // RPC server side.

  /// Decodes one request frame, dispatches it to the replica, and returns
  /// the encoded reply. Unknown/undecodable input yields an encoded
  /// error ClientReply. (Wraps HandleRequestV — the vectored form is the
  /// real dispatcher, so every transport exercises the same paths.)
  std::string HandleRequest(std::string_view request) override;

  /// Vectored dispatch: sharded propagation serves produce the reply as
  /// pieces (envelope + pooled per-shard chunks, or a replayed cached
  /// frame) that a vectored transport writes without assembling a
  /// contiguous string; every other message type replies as one owned
  /// piece.
  void HandleRequestV(std::string_view request,
                      net::VectoredReply* reply) override;

  // -------------------------------------------------------------------
  // Local (thread-safe) API.

  Status Update(std::string_view item, std::string_view value);
  Status Delete(std::string_view item);
  Result<std::string> Read(std::string_view item);
  Status ResolveConflict(std::string_view item, const VersionVector& remote_vv,
                         std::string_view value);
  std::vector<std::pair<std::string, std::string>> Scan(
      std::string_view prefix, size_t limit = 0) const;

  /// The text stats summary (`replica`, `stats:`, `sched:`, `net:` and
  /// `serve_cache:` lines). With `reset`, every counter is zeroed in the
  /// same read that reports it, so an event lands in exactly one summary.
  std::string Stats(bool reset = false);

  /// Atomic read of the aggregated protocol counters (taken under the
  /// cross-shard barrier). Scheduler, transport and serve-cache counters
  /// are in Stats().
  ReplicaStats TotalStats();

  /// One anti-entropy exchange pulling from `peer` over the transport —
  /// all shards in one round trip, unchanged shards skipped by the peer.
  Status PullFrom(NodeId peer);

  /// Out-of-bound fetch of `item` from `peer` over the transport (§5.2):
  /// the exchange's request and accept around one call.
  Status OobFetch(NodeId peer, std::string_view item);

  /// Runs `fn` with every shard owned (a consistent whole-database view)
  /// — for inspection in tests/examples.
  void WithReplica(const std::function<void(const ShardedReplica&)>& fn) const;

  /// Drains conflicts recorded since the last call.
  std::vector<ConflictEvent> TakeConflicts() { return listener_.Take(); }

  /// Snapshot + journal truncation, shard by shard. A server whose shards
  /// keep no journal returns FailedPrecondition.
  Status Checkpoint();

  /// True when the shards journal their inputs (ShardedReplica::Open).
  bool is_durable() const { return replica_->shard(0).journal() != nullptr; }

  NodeId id() const { return id_; }
  size_t num_shards() const { return replica_->num_shards(); }

  /// Scheduler health, as surfaced through `epidemic_cli stats`.
  runtime::SchedulerStats SchedulerHealth() const {
    return sched_->Stats(false);
  }

 private:
  void AntiEntropyLoop() EXCLUDES(thread_mu_);

  /// Fan-out serve cache. A full serve's reply is a pure function of
  /// (request flags + shard DBVVs, scheduler mutation epoch): the epoch is
  /// bumped by every mutating task, so equal epochs mean bytewise-equal
  /// replies. When N peers pull the same tail from a quiescent node, the
  /// first request encodes it and the other N-1 replay the cached pieces.
  /// Entries are immutable once published (shared_ptr<const>); the cache
  /// is direct-mapped by digest and invalidated by epoch mismatch.
  struct CachedServeFrame {
    uint64_t digest = 0;
    uint64_t epoch = 0;
    std::vector<std::string> parts;
  };

  /// FNV-1a over the serve-relevant request fields: flags, shard count,
  /// every shard DBVV entry. The requester id is deliberately excluded —
  /// the reply bytes do not depend on it (see the §4.1 frontier note at
  /// the lookup site).
  static uint64_t ServeDigest(const ShardedPropagationRequest& req);

  /// On hit, points `reply` at the cached pieces and returns true.
  bool LookupServeCache(uint64_t digest, uint64_t epoch,
                        net::VectoredReply* reply) EXCLUDES(serve_cache_mu_);
  void InsertServeCache(std::shared_ptr<const CachedServeFrame> entry)
      EXCLUDES(serve_cache_mu_);

  /// Appends the scheduler health line to a stats summary, optionally
  /// resetting the underlying counters in the same pass.
  void AppendSchedulerSummary(std::string* out, bool reset) const;

  /// Appends the transport + serve-cache lines ("net: ...",
  /// "serve_cache: ...") to a stats summary, optionally resetting the
  /// underlying counters in the same pass.
  void AppendNetSummary(std::string* out, bool reset) const;

  NodeId id_;
  net::Transport* transport_;
  Options options_;

  LockedConflictListener listener_;

  /// The sharded state. Per-shard access requires being inside that
  /// shard's single-writer section (hold a ShardToken for it).
  std::unique_ptr<ShardedReplica> replica_;

  /// Single-writer shard runtime. Declared after the replica state so it
  /// is destroyed (and drained) first — tasks capture `replica_`.
  std::unique_ptr<runtime::ShardScheduler> sched_;

  /// Recycles reply pieces and receive buffers across exchanges
  /// (internally synchronized; shared by all shard tasks).
  BufferPool buffer_pool_;

  /// The anti-entropy and out-of-bound steps (request, serve, accept) on
  /// this node's shards, scheduler and pool.
  ShardedExchange exchange_;

  /// Last mutation epoch observed per peer (0 = never pulled). Lets
  /// PullFrom open with an O(1) epoch probe instead of the full per-shard
  /// DBVV handshake; a stale value only costs one resend round trip.
  std::unique_ptr<std::atomic<uint64_t>[]> peer_epoch_;
  size_t peer_epoch_count_ = 0;

  /// Fan-out serve cache slots (direct-mapped by digest). Entries are
  /// immutable; the mutex only guards the slot pointers, never the bytes,
  /// so a hit costs one lock/shared_ptr copy and replays concurrently
  /// with other senders.
  static constexpr size_t kServeCacheSlots = 8;
  mutable Mutex serve_cache_mu_;
  std::shared_ptr<const CachedServeFrame> serve_cache_[kServeCacheSlots]
      GUARDED_BY(serve_cache_mu_);
  mutable std::atomic<uint64_t> serve_cache_hits_{0};
  mutable std::atomic<uint64_t> serve_cache_misses_{0};

  Mutex thread_mu_;
  std::condition_variable_any cv_;
  bool stopping_ GUARDED_BY(thread_mu_) = false;
  bool started_ GUARDED_BY(thread_mu_) = false;
  std::thread ae_thread_;
};

/// Blocking client for a ReplicaServer reachable through a transport.
class ReplicaClient {
 public:
  /// Talks to node `server` via `transport` (not owned).
  ReplicaClient(net::Transport* transport, NodeId server)
      : transport_(transport), server_(server) {}

  Status Update(std::string_view item, std::string_view value);
  Status Delete(std::string_view item);
  Result<std::string> Read(std::string_view item);

  /// Lists live items by name prefix (`limit` 0 = unlimited).
  Result<std::vector<std::pair<std::string, std::string>>> Scan(
      std::string_view prefix, uint64_t limit = 0);

  /// Fetches the server's one-line status summary.
  Result<std::string> Stats();

  /// Atomically reads-and-resets the server's counters; returns the
  /// summary rendered at the moment of the reset.
  Result<std::string> ResetStats();

  /// Admin: makes the server pull from `peer` right now.
  Status TriggerSync(NodeId peer);

  /// Admin: makes a durable server checkpoint right now.
  Status TriggerCheckpoint();

  /// Asks the server to out-of-bound-fetch `item` from `from_peer` first,
  /// then returns the (fresh) value — a priority read.
  Result<std::string> OobRead(NodeId from_peer, std::string_view item);

 private:
  net::Transport* transport_;
  NodeId server_;
};

}  // namespace epidemic::server

#endif  // EPIDEMIC_SERVER_REPLICA_SERVER_H_
