#ifndef EPIDEMIC_CORE_SHARDED_REPLICA_H_
#define EPIDEMIC_CORE_SHARDED_REPLICA_H_

#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/buffer_pool.h"
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
///     this with per-shard striped locks and parallel shard processing.
///
/// Thread-compatibility matches Replica: this class does no locking itself.
/// Two operations may run concurrently iff they touch different shards; the
/// routed convenience methods below touch exactly one shard unless
/// documented otherwise. The canonical concurrent deployment is the
/// shard-owned task runtime (runtime/scheduler.h): each shard index maps to
/// a scheduler shard whose single-writer section is the only place mutating
/// calls may run, which is why every mutating method here carries
/// REQUIRES_SHARD_CONTEXT (DESIGN.md §11-§12). Single-threaded callers
/// (simulator, benchmarks, tests) compile without enforcement and drive the
/// methods directly.
class ShardedReplica {
 public:
  static constexpr size_t kDefaultShards = 16;

  /// Owning constructor: builds `num_shards` fresh shard engines.
  /// `listener` (optional, must outlive the object) receives conflicts from
  /// every shard; with concurrent shard access it must be thread-safe.
  ShardedReplica(NodeId id, size_t num_nodes,
                 size_t num_shards = kDefaultShards,
                 ConflictListener* listener = nullptr);

  /// Owning constructor over pre-built shard engines (snapshot restore).
  /// All shards must agree on id/num_nodes.
  explicit ShardedReplica(std::vector<std::unique_ptr<Replica>> shards);

  /// Non-owning view over externally owned shard engines (the durable
  /// server: each shard lives inside its own JournaledReplica). All shards
  /// must agree on id/num_nodes and must outlive the view. Mutating routed
  /// calls through a view bypass any journaling the owner performs, so
  /// views are for inspection and the non-journaled protocol steps
  /// (handshake building/serving) only.
  explicit ShardedReplica(std::vector<Replica*> shards);

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
  // Sharded update propagation: one round trip for all shards.

  /// Step (1): every shard's DBVV in one wire-v3 handshake message. The
  /// V3 suffix is kept only because perfbench/src/layers.cc calls it.
  ShardedPropagationRequest BuildPropagationRequestV3() const;

  /// Source side: runs SendPropagation (Fig. 2) per shard; each stale shard
  /// is served zero-copy (HandlePropagationView) and encoded straight into
  /// a v3 segment body — delta IVVs against the shard's DBVV, indexed
  /// tails. Shards the requester is current on are omitted from the reply
  /// and construct nothing at all. Touches every shard. `pool` (nullable)
  /// supplies the segment buffers; bodies are moved into the reply, so
  /// callers that want reuse return them to the pool after the frame is
  /// encoded. The server serves each shard as its own task instead; this
  /// serial form serves single-threaded callers (simulator, benchmarks,
  /// tests).
  ShardedPropagationResponse HandlePropagationRequestV3(
      const ShardedPropagationRequest& req, BufferPool* pool = nullptr)
      REQUIRES_SHARD_CONTEXT;

  /// Recipient side: AcceptPropagation (Fig. 3-4) per received segment,
  /// each decoded zero-copy (views into the segment bytes, applied
  /// directly). Touches the shards named by the response. Applies every
  /// segment even if one fails; returns the first error.
  Status AcceptPropagation(const ShardedPropagationResponse& resp)
      REQUIRES_SHARD_CONTEXT;

  // Per-shard building blocks for callers inside that shard's section.

  /// Fig. 2 for one shard, zero-copy; `req.dbvv` is the requester's DBVV
  /// *of this shard*. The returned view borrows the shard's store and
  /// serve scratch, so it is valid only while the caller holds that
  /// shard's lock and until the shard next mutates or serves.
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
  /// atomic aggregate, callers with striped locks must hold them all.
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

  std::vector<std::unique_ptr<Replica>> owned_;  // empty for views
  std::vector<Replica*> shards_;                 // always size num_shards
};

/// Runs one full sharded anti-entropy exchange (all shards, one logical
/// round trip) pulling from `source` into `recipient`, both in-process,
/// through the real wire-v3 encoding of the per-shard segments: the source
/// serves zero-copy into segment bodies and the recipient applies them
/// through the view decoder. `pool` (nullable) backs the segment buffers.
/// Returns the number of items copied.
Result<size_t> PropagateOnceShardedV3(ShardedReplica& source,
                                      ShardedReplica& recipient,
                                      BufferPool* pool = nullptr)
    REQUIRES_SHARD_CONTEXT;

}  // namespace epidemic

#endif  // EPIDEMIC_CORE_SHARDED_REPLICA_H_
