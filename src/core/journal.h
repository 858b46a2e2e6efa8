#ifndef EPIDEMIC_CORE_JOURNAL_H_
#define EPIDEMIC_CORE_JOURNAL_H_

#include <cstdio>
#include <memory>
#include <string>
#include <string_view>

#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "core/replica.h"
#include "core/sharded_replica.h"

namespace epidemic {

/// Write-ahead journal + deterministic replay recovery.
///
/// A Replica is a deterministic state machine over its *inputs*: user
/// updates/deletes, conflict resolutions, accepted propagation responses,
/// and accepted out-of-bound responses. JournaledReplica wraps a Replica,
/// appends every input to an on-disk journal *before* applying it, and
/// `Recover` rebuilds the exact replica state by replaying the journal
/// through the ordinary code paths — no second set of mutation logic to
/// keep in sync. Every input is appended from the replica's before-apply
/// hook (Replica::BeforeApply): after the replica has checked it, before
/// it changes anything. An input the replica rejects therefore leaves no
/// record, where it would fail replay and stop the node from restarting.
///
/// Pairing with snapshots (snapshot.h): periodically `Checkpoint()` writes
/// a snapshot and truncates the journal, bounding recovery time; recovery
/// is then snapshot load + replay of the journal suffix.
///
/// Record framing: varint length + payload, where the payload is a one-byte
/// record tag followed by the same binary encodings the wire codec uses.
/// A torn final record (crash mid-append) is detected, ignored and cut off
/// before the journal is appended to again.
///
/// ReplayJournalBytes replays a raw journal byte stream (varint-length +
/// payload + CRC-32C frames) into `replica` through the ordinary code
/// paths. A torn or checksum-failing frame ends the replay at the last
/// good prefix — that is the crash-recovery contract, not an error.
/// Returns the number of records applied, or Corruption when a checksummed
/// record fails to apply (a record that passed CRC must replay; anything
/// else means the journal and the code disagree).
///
/// This is the exact loop JournaledReplica::Open runs over journal.log,
/// exposed so recovery tests and the fuzz harness can drive the same
/// decode-then-apply path on arbitrary bytes. `good_prefix`, when given,
/// receives the byte length of the frames replayed; Open truncates the
/// file to it before appending again.
Result<uint64_t> ReplayJournalBytes(Replica& replica, std::string_view data,
                                    size_t* good_prefix = nullptr)
    REQUIRES_SHARD_CONTEXT;

class JournaledReplica {
 public:
  /// Recovers (or freshly creates) a journaled replica backed by the files
  /// `<dir>/journal.log` and `<dir>/snapshot.bin`. The directory must
  /// exist. A file that exists but cannot be opened or read is IOError,
  /// never a fresh start. `listener` may be null and must outlive the
  /// object.
  static Result<std::unique_ptr<JournaledReplica>> Open(
      const std::string& dir, NodeId id, size_t num_nodes,
      ConflictListener* listener = nullptr);

  ~JournaledReplica();

  JournaledReplica(const JournaledReplica&) = delete;
  JournaledReplica& operator=(const JournaledReplica&) = delete;

  // Journaled mutating operations — checked, logged, then applied. A
  // rejected input returns the replica's status and leaves no record.
  Status Update(std::string_view name, std::string_view value)
      REQUIRES_SHARD_CONTEXT;
  Status Delete(std::string_view name) REQUIRES_SHARD_CONTEXT;
  Status ResolveConflict(std::string_view name, const VersionVector& remote_vv,
                         std::string_view value) REQUIRES_SHARD_CONTEXT;
  /// Journaled accept of a borrowed response (a peer replica's
  /// HandlePropagationView): validated, journaled as the same v3 segment
  /// record AcceptPropagationSegmentV3 writes, then applied. A rejected or
  /// you-are-current response leaves no record behind.
  Status AcceptPropagation(const PropagationResponseView& resp)
      REQUIRES_SHARD_CONTEXT;
  /// A not-found reply is refused before the hook, so it leaves no record.
  Status AcceptOobResponse(const OobResponse& resp) REQUIRES_SHARD_CONTEXT;

  /// Journaled accept of a raw wire-v3 segment body: the body is decoded
  /// zero-copy and validated by the replica *before* anything is
  /// journaled, appended verbatim under the propagation record tag, and
  /// applied through the view path, on the live path and on replay.
  Status AcceptPropagationSegmentV3(std::string_view body)
      REQUIRES_SHARD_CONTEXT;

  // Pass-throughs. Read/serve paths touch replica counters/scratch, so
  // they inherit the shard-context requirement of the wrapped methods.
  // A source serves through replica().HandlePropagationView.
  Result<std::string> Read(std::string_view name) REQUIRES_SHARD_CONTEXT {
    return replica_->Read(name);
  }
  PropagationRequest BuildPropagationRequest() const {
    return replica_->BuildPropagationRequest();
  }
  OobRequest BuildOobRequest(std::string_view name) const {
    return replica_->BuildOobRequest(name);
  }
  OobResponse HandleOobRequest(const OobRequest& r) REQUIRES_SHARD_CONTEXT {
    return replica_->HandleOobRequest(r);
  }

  /// Writes a snapshot and truncates the journal. Recovery afterwards is
  /// snapshot + (empty) journal. Requires the shard context: the snapshot
  /// must observe a quiescent replica (no concurrent mutation mid-encode).
  /// On failure the journal stays open for appends. A truncation that fails
  /// after the snapshot was written leaves records the snapshot already
  /// covers, and recovery replays them over it.
  Status Checkpoint() REQUIRES_SHARD_CONTEXT;

  const Replica& replica() const { return *replica_; }
  Replica& replica() { return *replica_; }

  /// Journal records appended since the last checkpoint (for tests and
  /// monitoring).
  uint64_t records_since_checkpoint() const { return records_; }

 private:
  JournaledReplica(std::string dir, std::unique_ptr<Replica> replica);

  Status AppendRecord(std::string payload);

  std::string dir_;
  std::unique_ptr<Replica> replica_;
  std::FILE* journal_ = nullptr;
  uint64_t records_ = 0;
};

/// A sharded replica where every shard is its own JournaledReplica in a
/// `shard-NNN/` subdirectory of `dir`, plus a `shards.meta` file pinning
/// the shard count (the item→shard mapping depends on it, so reopening
/// with a different count is refused rather than silently misrouting).
///
/// Shards journal and checkpoint independently — a full-database fsync
/// barrier never exists, and recovery replays each shard's suffix through
/// the ordinary code paths. Thread-compatibility matches ShardedReplica:
/// no locking here; the server runs each journaled entry point inside the
/// owning shard's single-writer task section (each touches exactly one
/// shard), which is what the REQUIRES_SHARD_CONTEXT annotations check.
class JournaledShardedReplica {
 public:
  /// Recovers (or freshly creates) the sharded state under `dir`, which
  /// must exist; shard subdirectories are created as needed. A shard's
  /// error keeps its code, prefixed with "shard k: ".
  static Result<std::unique_ptr<JournaledShardedReplica>> Open(
      const std::string& dir, NodeId id, size_t num_nodes, size_t num_shards,
      ConflictListener* listener = nullptr);

  JournaledShardedReplica(const JournaledShardedReplica&) = delete;
  JournaledShardedReplica& operator=(const JournaledShardedReplica&) = delete;

  // Journaled mutating operations, each touching exactly one shard.
  Status Update(std::string_view name, std::string_view value)
      REQUIRES_SHARD_CONTEXT {
    return shards_[view_->ShardOf(name)]->Update(name, value);
  }
  Status Delete(std::string_view name) REQUIRES_SHARD_CONTEXT {
    return shards_[view_->ShardOf(name)]->Delete(name);
  }
  Status ResolveConflict(std::string_view name, const VersionVector& remote_vv,
                         std::string_view value) REQUIRES_SHARD_CONTEXT {
    return shards_[view_->ShardOf(name)]->ResolveConflict(name, remote_vv,
                                                          value);
  }
  /// Journaled accept of one shard's raw v3 segment body (see
  /// JournaledReplica::AcceptPropagationSegmentV3).
  Status AcceptShardPropagationSegmentV3(size_t shard, std::string_view body)
      REQUIRES_SHARD_CONTEXT {
    return shards_[shard]->AcceptPropagationSegmentV3(body);
  }
  Status AcceptOobResponse(const OobResponse& resp) REQUIRES_SHARD_CONTEXT {
    return shards_[view_->ShardOf(resp.item_name)]->AcceptOobResponse(resp);
  }

  /// Checkpoints every shard (first error wins, but all are attempted).
  Status Checkpoint() REQUIRES_SHARD_CONTEXT;
  /// Checkpoints one shard; callers inside that shard's task section need
  /// nothing more.
  Status CheckpointShard(size_t shard) REQUIRES_SHARD_CONTEXT {
    return shards_[shard]->Checkpoint();
  }

  /// Journal records appended since the last checkpoint, over all shards.
  uint64_t records_since_checkpoint() const;

  size_t num_shards() const { return shards_.size(); }
  JournaledReplica& shard(size_t k) { return *shards_[k]; }

  /// Non-owning sharded view over the shard engines — use it for reads,
  /// handshake building/serving, and introspection. Mutations MUST go
  /// through the journaled entry points above or they bypass the journal.
  ShardedReplica& view() { return *view_; }
  const ShardedReplica& view() const { return *view_; }

 private:
  explicit JournaledShardedReplica(
      std::vector<std::unique_ptr<JournaledReplica>> shards);

  std::vector<std::unique_ptr<JournaledReplica>> shards_;
  std::unique_ptr<ShardedReplica> view_;  // non-owning over shards_
};

}  // namespace epidemic

#endif  // EPIDEMIC_CORE_JOURNAL_H_
