#ifndef EPIDEMIC_CORE_REPLICA_H_
#define EPIDEMIC_CORE_REPLICA_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "core/conflict.h"
#include "core/messages.h"
#include "log/aux_log.h"
#include "log/log_vector.h"
#include "storage/item_store.h"
#include "vv/version_vector.h"

namespace epidemic {

class Journal;

/// Per-replica protocol counters, primarily for the benchmark harness.
/// "Work" counters (records examined, IVV comparisons) directly measure the
/// complexity claims of §6.
struct ReplicaStats {
  // Anti-entropy.
  uint64_t propagation_requests_served = 0;
  uint64_t you_are_current_replies = 0;
  uint64_t dbvv_comparisons = 0;
  uint64_t log_records_selected = 0;  // records placed into tails D_k
  uint64_t items_shipped = 0;         // |S| across all replies served
  uint64_t item_ivv_comparisons = 0;  // per-item comparisons at recipient
  uint64_t items_adopted = 0;
  uint64_t redundant_items_received = 0;  // received copy equal to local
  uint64_t records_appended = 0;          // AddLogRecord calls at recipient

  // Conflicts.
  uint64_t conflicts_detected = 0;
  uint64_t conflicts_resolved = 0;  // via ResolveConflict

  // User operations.
  uint64_t updates_regular = 0;
  uint64_t updates_aux = 0;
  uint64_t reads = 0;

  // Out-of-bound machinery.
  uint64_t oob_requests_served = 0;
  uint64_t oob_copies_adopted = 0;
  uint64_t oob_copies_ignored = 0;  // received copy was not newer
  uint64_t aux_copies_created = 0;
  uint64_t aux_copies_discarded = 0;
  uint64_t intra_node_ops_applied = 0;

  /// Component-wise sum, used to aggregate counters across shards.
  void Accumulate(const ReplicaStats& o) {
    propagation_requests_served += o.propagation_requests_served;
    you_are_current_replies += o.you_are_current_replies;
    dbvv_comparisons += o.dbvv_comparisons;
    log_records_selected += o.log_records_selected;
    items_shipped += o.items_shipped;
    item_ivv_comparisons += o.item_ivv_comparisons;
    items_adopted += o.items_adopted;
    redundant_items_received += o.redundant_items_received;
    records_appended += o.records_appended;
    conflicts_detected += o.conflicts_detected;
    conflicts_resolved += o.conflicts_resolved;
    updates_regular += o.updates_regular;
    updates_aux += o.updates_aux;
    reads += o.reads;
    oob_requests_served += o.oob_requests_served;
    oob_copies_adopted += o.oob_copies_adopted;
    oob_copies_ignored += o.oob_copies_ignored;
    aux_copies_created += o.aux_copies_created;
    aux_copies_discarded += o.aux_copies_discarded;
    intra_node_ops_applied += o.intra_node_ops_applied;
  }
};

/// A node's replica of the database, implementing the paper's protocol (§5).
///
/// The replica owns the four regular data structures —
///   * the item store (values + IVVs + control state),
///   * the database version vector V_i (§4.1),
///   * the log vector L_i (§4.2),
/// plus the auxiliary structures (auxiliary copies/IVVs inside items and the
/// auxiliary log AUX_i, §4.3–4.4).
///
/// Anti-entropy between replicas i (recipient) and j (source) is a
/// request/response exchange:
///
///   PropagationRequest req = i.BuildPropagationRequest();
///   const PropagationResponseView& resp = j.HandlePropagationView(req);
///   i.AcceptPropagation(resp);              // adopts + intra-node replay
///
/// or, in-process, `PropagateOnce(j, i)`. The response borrows j's store;
/// between processes it travels as a wire-v3 segment body
/// (wire::EncodeShardSegmentBodyV3Into / DecodeShardSegmentBodyV3).
///
/// Thread-compatibility: a Replica is confined to one writer at a time;
/// all methods are non-blocking and never throw. The class deliberately
/// owns no mutex — serialization comes from the owner that drives it: the
/// shard-owned task runtime (runtime/scheduler.h) for shard replicas, or
/// plain single-threaded confinement in tests, reference drivers and
/// `multidb::MultiDbNode`'s per-database instances. Every
/// mutating method carries REQUIRES_SHARD_CONTEXT, so under Clang
/// `-Wthread-safety` a library call chain can only reach one from inside a
/// scheduled task (or an audited single-owner escape) — DESIGN.md §12.
class Replica {
 public:
  /// `id` is this node's index in the fixed replica set of `num_nodes`
  /// servers (§2: the server set is fixed). `listener` may be null; if given
  /// it must outlive the replica.
  Replica(NodeId id, size_t num_nodes, ConflictListener* listener = nullptr);
  ~Replica();

  Replica(const Replica&) = delete;
  Replica& operator=(const Replica&) = delete;

  // ---------------------------------------------------------------------
  // User operations (§5.3).

  /// Applies a user update, writing `value` as the item's new contents.
  /// Uses the auxiliary copy when one exists, the regular copy otherwise.
  Status Update(std::string_view name, std::string_view value)
      REQUIRES_SHARD_CONTEXT;

  /// Deletes the item by writing a tombstone — an ordinary update whose
  /// state is "deleted", so it propagates (and conflicts) exactly like a
  /// value write. The control state persists; a later Update revives the
  /// item.
  Status Delete(std::string_view name) REQUIRES_SHARD_CONTEXT;

  /// User-facing read: auxiliary copy when present (it is never older than
  /// the regular copy), regular otherwise. NotFound for unknown or
  /// tombstoned items. Mutating in the capability sense: it bumps the read
  /// counter, so it still requires the shard context (the server runs it
  /// as a read task on the item's shard).
  Result<std::string> Read(std::string_view name) REQUIRES_SHARD_CONTEXT;

  /// Resolves a detected conflict on `name` by writing `value` as a new
  /// update that *supersedes both branches*: the item's IVV becomes the
  /// component-wise maximum of the local IVV and `remote_vv` (the vector
  /// reported in the ConflictEvent), plus this node's own increment. Once
  /// propagated, the resolution dominates every conflicting copy, so the
  /// conflict disappears system-wide.
  ///
  /// The paper leaves *choosing* the winning value to the application (§2);
  /// this is the mechanism that makes the choice stick. Fails with
  /// InvalidArgument unless `remote_vv` genuinely conflicts with the local
  /// regular copy, and with FailedPrecondition while the item is
  /// out-of-bound (resolve after the auxiliary copy retires).
  Status ResolveConflict(std::string_view name,
                         const VersionVector& remote_vv,
                         std::string_view value) REQUIRES_SHARD_CONTEXT;

  /// Lists live (non-tombstoned) items whose name starts with `prefix`,
  /// sorted by name, with their user-visible values. `limit` 0 = no limit.
  /// O(N log N) — a convenience for clients and tools, not a protocol op.
  std::vector<std::pair<std::string, std::string>> Scan(
      std::string_view prefix, size_t limit = 0) const;

  // ---------------------------------------------------------------------
  // Update propagation (§5.1).

  /// Step (1): the DBVV handshake message this node sends when it wants to
  /// pull updates from a source.
  PropagationRequest BuildPropagationRequest() const;

  /// SendPropagation (Fig. 2), executed at the source. Detects in O(1)
  /// (one DBVV comparison) that the requester is current; otherwise builds
  /// the tail vector D and item set S in time O(m) where m = items shipped,
  /// using the IsSelected flags (§6). The returned response *borrows* —
  /// names and values are views into this replica's store, IVVs are
  /// pointers at live item IVVs, and the vectors live in a scratch area
  /// reused across exchanges (so steady-state serving allocates nothing,
  /// and a you-are-current reply constructs nothing at all). The view is
  /// valid until this replica is next mutated or serves another request;
  /// the caller must finish encoding/applying it before anything else
  /// touches this replica (DESIGN.md §10). Tail records carry
  /// `item_index` into S, ready for the v3 segment encoder.
  const PropagationResponseView& HandlePropagationView(
      const PropagationRequest& req) REQUIRES_SHARD_CONTEXT;

  /// AcceptPropagation (Fig. 3) followed by IntraNodePropagation (Fig. 4)
  /// over the items copied, executed at the recipient, applying a borrowed
  /// response (views into a decode buffer or a peer replica's store). Each
  /// adopted name/value is copied exactly once, into this store; nothing
  /// else is materialized. The backing storage only needs to stay alive
  /// for the duration of the call. Costs O(m + r): one store lookup per
  /// shipped item, O(1) per tail record, plus the r records of L[k] above
  /// the horizon V_i[k] (non-zero only after conflicts dropped records).
  Status AcceptPropagation(const PropagationResponseView& resp)
      REQUIRES_SHARD_CONTEXT;

  /// Runs the Fig. 4 intra-node propagation loop over every out-of-bound
  /// item, not just ones copied by the last exchange: replays auxiliary
  /// redo records whose pre-IVV matches the regular copy and retires
  /// auxiliary copies the regular copy has caught up with. Each replay is
  /// an ordinary local update with full §4.1 bookkeeping, so this is legal
  /// at any point between protocol steps; AcceptPropagation already runs
  /// the same loop for the items it copies. Returns the number of
  /// auxiliary operations replayed. Used by the model checker (epicheck)
  /// as an explicit schedule action and by callers that want auxiliary
  /// copies retired without waiting for the next exchange.
  size_t PumpIntraNode() REQUIRES_SHARD_CONTEXT;

  // ---------------------------------------------------------------------
  // Out-of-bound copying (§5.2).

  OobRequest BuildOobRequest(std::string_view name) const;

  /// Source side: replies with the auxiliary copy if it exists (never older
  /// than the regular one), else the regular copy.
  OobResponse HandleOobRequest(const OobRequest& req) REQUIRES_SHARD_CONTEXT;

  /// Recipient side: adopts the received copy as (new) auxiliary data if it
  /// strictly dominates the local user-visible copy; ignores it otherwise;
  /// reports a conflict when the IVVs are concurrent. Never touches the
  /// DBVV, the log vector, or existing auxiliary-log records.
  Status AcceptOobResponse(const OobResponse& resp) REQUIRES_SHARD_CONTEXT;

  // ---------------------------------------------------------------------
  // Durability (core/journal.h).

  /// The journal this replica appends its inputs to, or null in memory.
  /// Journal::Open attaches it; the replica owns it.
  const Journal* journal() const { return journal_.get(); }

  /// Writes a snapshot and truncates the journal (Journal::Checkpoint).
  /// FailedPrecondition on a replica without a journal.
  Status Checkpoint() REQUIRES_SHARD_CONTEXT;

  // ---------------------------------------------------------------------
  // Introspection.

  NodeId id() const { return id_; }
  size_t num_nodes() const { return num_nodes_; }
  const VersionVector& dbvv() const { return dbvv_; }
  const ItemStore& items() const { return store_; }
  const LogVector& log_vector() const { return logs_; }
  const AuxLog& aux_log() const { return aux_log_; }
  const ReplicaStats& stats() const { return stats_; }
  void ResetStats() REQUIRES_SHARD_CONTEXT { stats_ = ReplicaStats{}; }

  /// Regular copy of an item (ignores auxiliary data); nullptr if absent.
  const Item* FindItem(std::string_view name) const {
    return store_.Find(name);
  }

  /// Human-readable one-stop summary: id, DBVV, item/log/aux counts, and
  /// the protocol counters. For operators and the stats RPC.
  std::string DebugString() const;

  // ---------------------------------------------------------------------
  // Stability tracking (extension).
  //
  // Every propagation request a peer sends us carries its DBVV, so this
  // node passively learns how far each peer has come. The component-wise
  // minimum over all peers' last-known DBVVs (and our own) is the
  // *stability frontier*: updates below it are known to be replicated
  // everywhere — safe to archive, compact, or physically purge offline.
  // Knowledge spreads only through direct requests, so the frontier is
  // conservative (it lags under schedules where some pair never talks).

  /// Last DBVV peer `j` presented to us (zero vector if never heard from).
  const VersionVector& LastKnownDbvvOf(NodeId j) const {
    return peer_dbvv_[j];
  }

  /// Component-wise minimum of every node's known DBVV.
  VersionVector StabilityFrontier() const;

  /// True when every update reflected in the item's regular copy is below
  /// the stability frontier.
  bool IsStable(const Item& item) const;

  /// Counts stable items and stable tombstones (purgable garbage).
  struct StabilityInfo {
    size_t stable_items = 0;
    size_t stable_tombstones = 0;
  };
  StabilityInfo CountStable() const;

  /// Checks the DBVV invariant `V_i[k] == Σ_x ivv_i(x)[k]` (§4.1), the
  /// log invariants (≤ 1 record per item per component, origin-ordered,
  /// P(x) back-pointers consistent), and the §5.2 auxiliary-structure
  /// invariants (the auxiliary IVV is never dominated by the regular one,
  /// redo records replay in origin order below the auxiliary IVV, the
  /// auxiliary log preserves append order). Returns OK or Internal with a
  /// description. The invariant oracle of the model checker (epicheck) and
  /// of tests; O(n·N).
  Status CheckInvariants() const;

  /// Deterministic, creation-order-independent serialization of the
  /// protocol state: DBVV, items sorted by name (value, tombstone, IVV,
  /// auxiliary copy), per-origin logs as (item name, seq) lists, and the
  /// auxiliary log in append order. Two replicas have equal canonical
  /// states iff they are indistinguishable to the protocol. Soft state —
  /// counters and the stability-tracking peer DBVVs, which influence no
  /// protocol decision — is deliberately excluded. Used by the model
  /// checker for state deduplication and convergence comparison.
  std::string CanonicalState() const;

 private:
  /// Shared implementation of Update/Delete (§5.3).
  Status ApplyUserWrite(std::string_view name, std::string_view value,
                        bool deleted) REQUIRES_SHARD_CONTEXT;

  /// Validates a propagation response before any state is touched, so
  /// malformed input is rejected atomically, and resolves each item of S
  /// with one store lookup: `(*resolved)[i]` is the stored copy of
  /// `resp.items[i]`, or nullptr when the name is not stored yet. Changes
  /// nothing but the transient IsSelected marks, cleared on every path.
  Status ValidatePropagationResponse(const PropagationResponseView& resp,
                                     std::vector<Item*>* resolved)
      REQUIRES_SHARD_CONTEXT;

  /// Runs the Fig. 4 loop for one item that was copied by AcceptPropagation.
  void IntraNodePropagation(Item& item) REQUIRES_SHARD_CONTEXT;

  void ReportConflict(const Item& item, const VersionVector& remote,
                      ConflictSource source);

  friend class SnapshotCodec;  // snapshot.cc: serializes/restores privates
  friend class Journal;        // journal.cc: attaches itself after recovery

  NodeId id_;
  size_t num_nodes_;
  ConflictListener* listener_;

  ItemStore store_;
  VersionVector dbvv_;
  LogVector logs_;
  AuxLog aux_log_;

  /// peer_dbvv_[j]: the DBVV node j presented in its most recent
  /// propagation request to us (stability tracking).
  std::vector<VersionVector> peer_dbvv_;

  /// Serve-side scratch reused across exchanges (DESIGN.md §10): the tail
  /// collection buffer, the selected-item list, the ItemId → S-index map
  /// (entries valid only while the item's IsSelected flag is up), and the
  /// response view handed out by HandlePropagationView. Capacities are
  /// retained, so steady-state serving does not touch the allocator.
  struct PropagationScratch {
    std::vector<LogRecord> tail_buf;
    std::vector<Item*> selected;
    std::vector<uint32_t> item_index;
    PropagationResponseView serve_view;
  };
  PropagationScratch scratch_;

  ReplicaStats stats_;

  /// Write-ahead journal of this replica's inputs; null in memory. Each
  /// input is appended after its checks and before it changes anything,
  /// so a rejected input leaves no record.
  std::unique_ptr<Journal> journal_;
};

/// Runs one full anti-entropy exchange pulling updates from `source` into
/// `recipient` (both in-process): the source's response view (borrowing
/// its store) is applied directly by the recipient, with no intermediate
/// owned strings. Both replicas must be confined to the calling thread for
/// the duration. Returns the number of items copied, or an error status.
Result<size_t> PropagateOnce(Replica& source, Replica& recipient)
    REQUIRES_SHARD_CONTEXT;

}  // namespace epidemic

#endif  // EPIDEMIC_CORE_REPLICA_H_
