#ifndef EPIDEMIC_CORE_SHARDED_REPLICA_H_
#define EPIDEMIC_CORE_SHARDED_REPLICA_H_

#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "core/replica.h"

namespace epidemic {

/// A node's replica partitioned into S independent shards.
///
/// Item names are hashed into a fixed number of shards; each shard owns a
/// complete instance of the paper's protocol state — its own item store,
/// DBVV, log vector, and auxiliary log — so every per-shard exchange is
/// exactly the §5 protocol and the §4.1 invariant `V[k] == Σ ivv(x)[k]`
/// holds per shard (and, by summation, in aggregate). What sharding buys:
///
///   * the "nothing to do" check stays O(1) *per shard* (O(S) per node-pair
///     handshake, still independent of the item count), and a full exchange
///     still ships only O(m) items;
///   * shards share no protocol state, so user operations and anti-entropy
///     on different shards need no coordination — the server layer exploits
///     this with one single-writer task section per shard (the shard-owned
///     runtime) and shards served and accepted in parallel.
///
/// Thread-compatibility matches Replica: this class does no locking itself.
/// Two operations may run concurrently iff they touch different shards; the
/// routed convenience methods below touch exactly one shard unless
/// documented otherwise. The canonical concurrent deployment is the
/// shard-owned task runtime (runtime/scheduler.h): each shard index maps to
/// a scheduler shard whose single-writer section is the only place mutating
/// calls may run, which is why every mutating method here carries
/// REQUIRES_SHARD_CONTEXT (DESIGN.md §11-§12). Single-threaded callers
/// (benchmarks, tests) compile without enforcement and drive the methods
/// directly.
class ShardedReplica {
 public:
  static constexpr size_t kDefaultShards = 16;

  /// Owning constructor: builds `num_shards` fresh shard engines.
  /// `listener` (optional, must outlive the object) receives conflicts from
  /// every shard; with concurrent shard access it must be thread-safe.
  ShardedReplica(NodeId id, size_t num_nodes,
                 size_t num_shards = kDefaultShards,
                 ConflictListener* listener = nullptr);

  /// Owning constructor over pre-built shard engines (snapshot restore,
  /// Open). All shards must agree on id/num_nodes.
  explicit ShardedReplica(std::vector<std::unique_ptr<Replica>> shards);

  /// Recovers (or freshly creates) a durable sharded replica under `dir`,
  /// which must exist: shard k is recovered by Journal::Open from the
  /// `shard-NNN/` subdirectory (created as needed) and journals its own
  /// inputs, and `shards.meta` pins the shard count (the item→shard mapping
  /// depends on it, so reopening with a different count is refused rather
  /// than silently misrouting). A shard's error keeps its code, prefixed
  /// with "shard k: ". Defined in journal.cc, with the rest of the on-disk
  /// layout.
  static Result<std::unique_ptr<ShardedReplica>> Open(
      const std::string& dir, NodeId id, size_t num_nodes, size_t num_shards,
      ConflictListener* listener = nullptr);

  ShardedReplica(const ShardedReplica&) = delete;
  ShardedReplica& operator=(const ShardedReplica&) = delete;

  /// Stable item-name → shard mapping (CRC-32C modulo `num_shards`). Every
  /// replica of a cluster must agree on the shard count or propagation is
  /// rejected at the handshake.
  static size_t ShardOf(std::string_view name, size_t num_shards);
  size_t ShardOf(std::string_view name) const {
    return ShardOf(name, shards_.size());
  }

  // ---------------------------------------------------------------------
  // User operations (§5.3), routed to the owning shard.

  Status Update(std::string_view name, std::string_view value)
      REQUIRES_SHARD_CONTEXT {
    return route(name).Update(name, value);
  }
  Status Delete(std::string_view name) REQUIRES_SHARD_CONTEXT {
    return route(name).Delete(name);
  }
  Result<std::string> Read(std::string_view name) REQUIRES_SHARD_CONTEXT {
    return route(name).Read(name);
  }
  Status ResolveConflict(std::string_view name, const VersionVector& remote_vv,
                         std::string_view value) REQUIRES_SHARD_CONTEXT {
    return route(name).ResolveConflict(name, remote_vv, value);
  }

  /// Merged scan across all shards, sorted by name. Touches every shard.
  std::vector<std::pair<std::string, std::string>> Scan(
      std::string_view prefix, size_t limit = 0) const;

  // ---------------------------------------------------------------------
  // Sharded update propagation: one round trip for all shards. The
  // exchange itself — handshake snapshot, serve and accept, each one
  // scheduler batch — is server::ShardedExchange
  // (server/sharded_exchange.h); these are its per-shard building blocks,
  // for callers inside that shard's section.

  /// Every shard's DBVV in one wire-v3 handshake message, read serially
  /// outside any scheduler. Kept only because perfbench/src/layers.cc
  /// calls it; the exchange's handshake is ShardedExchange::Handshake.
  ShardedPropagationRequest BuildPropagationRequestV3() const;

  /// Fig. 2 for one shard, zero-copy; `req.dbvv` is the requester's DBVV
  /// *of this shard*. The returned view borrows the shard's store and
  /// serve scratch, so it is valid only inside the caller's task section
  /// for that shard, and until the shard next mutates or serves.
  const PropagationResponseView& HandleShardPropagationView(
      size_t shard, const PropagationRequest& req) REQUIRES_SHARD_CONTEXT {
    return shards_[shard]->HandlePropagationView(req);
  }

  /// Fig. 3-4 for one shard over a borrowed response view.
  Status AcceptShardPropagation(size_t shard,
                                const PropagationResponseView& resp)
      REQUIRES_SHARD_CONTEXT {
    return shards_[shard]->AcceptPropagation(resp);
  }

  /// Fig. 3-4 for one shard over a raw wire-v3 segment body: decoded
  /// zero-copy into storage local to this call, then accepted. The body
  /// must stay alive for the call.
  Status AcceptShardPropagationSegmentV3(size_t shard, std::string_view body)
      REQUIRES_SHARD_CONTEXT;

  /// Runs Replica::PumpIntraNode on every shard (replays pending auxiliary
  /// redo records, retires caught-up auxiliary copies). Touches every
  /// shard; returns the total operations replayed.
  size_t PumpIntraNode() REQUIRES_SHARD_CONTEXT;

  // ---------------------------------------------------------------------
  // Out-of-bound copying (§5.2), routed by item name.

  OobRequest BuildOobRequest(std::string_view name) const {
    return route(name).BuildOobRequest(name);
  }
  OobResponse HandleOobRequest(const OobRequest& req) REQUIRES_SHARD_CONTEXT {
    return route(req.item_name).HandleOobRequest(req);
  }
  Status AcceptOobResponse(const OobResponse& resp) REQUIRES_SHARD_CONTEXT {
    return route(resp.item_name).AcceptOobResponse(resp);
  }

  // ---------------------------------------------------------------------
  // Introspection.

  NodeId id() const { return shards_[0]->id(); }
  size_t num_nodes() const { return shards_[0]->num_nodes(); }
  size_t num_shards() const { return shards_.size(); }
  Replica& shard(size_t k) { return *shards_[k]; }
  const Replica& shard(size_t k) const { return *shards_[k]; }

  /// Component-wise sum of every shard's DBVV — the whole-database version
  /// vector of §4.1, reconstructed. Touches every shard.
  VersionVector AggregateDbvv() const;

  /// Sum of every shard's protocol counters. Touches every shard; for an
  /// atomic aggregate, run it under the scheduler's cross-shard barrier
  /// (ExecuteExclusive), as ReplicaServer::TotalStats does.
  ReplicaStats TotalStats() const;

  /// Resets every shard's counters. Touches every shard.
  void ResetStats() REQUIRES_SHARD_CONTEXT;

  /// Total regular items across shards. Touches every shard.
  size_t TotalItems() const;

  /// Regular copy of an item (nullptr if absent), from its owning shard.
  const Item* FindItem(std::string_view name) const {
    return route(name).FindItem(name);
  }

  /// Per-shard §4.1/log invariants plus the aggregate DBVV consistency
  /// check (the sum of shard DBVVs must equal the sum of all item IVVs).
  Status CheckInvariants() const;

  /// Deterministic serialization of the protocol state: every shard's
  /// Replica::CanonicalState in shard-index order (the name → shard map is
  /// a pure function, so equal states always shard identically). Touches
  /// every shard. Used by the model checker for state deduplication.
  std::string CanonicalState() const;

  /// Aggregated one-stop summary in the same shape as Replica::DebugString,
  /// plus the shard count and per-shard item/update distribution.
  std::string DebugString() const;

 private:
  Replica& route(std::string_view name) { return *shards_[ShardOf(name)]; }
  const Replica& route(std::string_view name) const {
    return *shards_[ShardOf(name)];
  }

  std::vector<std::unique_ptr<Replica>> shards_;  // always size num_shards
};

/// Kept only because perfbench/src/layers.cc names it.
using JournaledShardedReplica = ShardedReplica;

}  // namespace epidemic

#endif  // EPIDEMIC_CORE_SHARDED_REPLICA_H_
