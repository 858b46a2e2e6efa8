#ifndef EPIDEMIC_CHECK_WORLD_H_
#define EPIDEMIC_CHECK_WORLD_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "check/action.h"
#include "common/buffer_pool.h"
#include "common/result.h"
#include "common/status.h"
#include "core/conflict.h"
#include "core/sharded_replica.h"
#include "server/sharded_exchange.h"
#include "vv/version_vector.h"

namespace epidemic::check {

/// Intentional protocol defects the checker can inject to prove that its
/// oracles actually fire (checker self-test, ISSUE acceptance criterion).
/// Every mutation is a pure function of the schedule, so replaying a trace
/// under the same mutation reproduces the violation deterministically.
enum class Mutation {
  kNone,
  /// Crash recovery "forgets" the snapshot and restarts from pristine empty
  /// state — a node's DBVV regresses, which the monotonicity oracle flags.
  kAmnesia,
  /// Conflict events are silently dropped (no listener), so concurrent
  /// updates diverge with no conflict ever reported — the quiescence oracle
  /// flags divergence without a conflict.
  kMuteConflicts,
  /// A lying source: the first anti-entropy reply segment that ships items
  /// is forged on the wire, its first item's IVV inflated by one (origin =
  /// the source node), and fed to the recipient's own accept. The phantom
  /// update makes replicas later reach equal IVVs with different values.
  kTamperIvv,
};

/// Parses the --mutate spelling ("none", "amnesia", "mute-conflicts",
/// "tamper-ivv").
Result<Mutation> ParseMutation(std::string_view name);
std::string_view MutationName(Mutation mutation);

struct WorldConfig {
  size_t num_nodes = 2;
  size_t num_items = 2;
  /// Shards per replica. Every count, 1 included, drives ShardedReplica
  /// through the daemon's exchange (server::ShardedExchange): the sync is
  /// its serve, wire-v3 reply frame, zero-copy envelope decode and accept;
  /// the oob is its §5.2 request, serve and accept over codec frames.
  size_t num_shards = 1;
  /// Every node's serve budget (server::ShardedExchange). A budget smaller
  /// than a reply makes it partial, and one sync accepts one reply, so
  /// other actions interleave between the steps of a catch-up.
  size_t serve_budget = server::kServeBudgetBytes;
  /// Include tombstone writes in the alphabet.
  bool with_deletes = false;
  Mutation mutation = Mutation::kNone;
};

/// A small cluster of real replicas the checker schedules explicitly. The
/// world applies one Action at a time against the production entry points
/// (`ShardedReplica` behind the daemon's exchange and shard scheduler),
/// collects conflict events, and serializes its full protocol state
/// through the production snapshot codec — which is both how the DFS
/// stores states and how the kCrash action is modeled (recovery at a
/// checkpoint boundary; journal-suffix replay equivalence is covered by
/// journal_test).
class World {
 public:
  /// Fresh cluster: every replica empty.
  explicit World(const WorldConfig& config);

  /// Rebuilds a cluster from per-node snapshot blobs (see SnapshotBlobs).
  /// `tampered` restores the one-shot kTamperIvv trigger state.
  static Result<std::unique_ptr<World>> Restore(
      const WorldConfig& config, const std::vector<std::string>& blobs,
      bool tampered);

  World(const World&) = delete;
  World& operator=(const World&) = delete;

  /// Applies one schedule action. Statuses that are legal protocol
  /// outcomes — an OOB fetch finding nothing or detecting a conflict — are
  /// mapped to OK; anything else non-OK is a genuine protocol error the
  /// checker reports as a violation.
  Status Apply(const Action& action);

  /// Every node's CheckInvariants, first failure wins (prefixed with the
  /// node id).
  Status CheckInvariants() const;

  /// Node `i`'s canonical protocol state (ShardedReplica::CanonicalState).
  std::string NodeCanonicalState(size_t i) const;

  /// Production snapshot blob per node — the DFS's state representation.
  std::vector<std::string> SnapshotBlobs() const;

  /// Conflict events collected since the last drain, across all nodes.
  /// Under kMuteConflicts this is always empty (that is the defect).
  std::vector<ConflictEvent> DrainConflicts();

  /// Node `i`'s whole-database version vector (aggregate over shards).
  VersionVector NodeDbvv(size_t i) const;

  /// Observation of one item at one node for the convergence oracle.
  /// Zero-IVV items without an auxiliary copy read as absent (they are
  /// protocol-invisible, see Replica::CanonicalState).
  struct ItemView {
    bool present = false;
    std::string value;
    bool deleted = false;
    VersionVector ivv;
    bool has_aux = false;
    std::string aux_value;
    bool aux_deleted = false;
    VersionVector aux_ivv;

    bool operator==(const ItemView&) const = default;
  };
  ItemView Observe(size_t node, std::string_view name) const;

  /// True when node `i` holds a user-visible copy of the item (guard for
  /// enumerating useful kOob actions).
  bool NodeHasItem(size_t node, std::string_view name) const;

  /// True when node `i` holds at least one auxiliary copy (guard for
  /// enumerating useful kPump actions).
  bool NodeHasAux(size_t node) const;

  size_t num_nodes() const { return nodes_.size(); }
  const WorldConfig& config() const { return config_; }
  bool tampered() const { return tampered_; }

 private:
  struct Node {
    /// Records conflicts unless the world mutes them. Owned here so
    /// snapshot-restored replicas can be rewired to it.
    RecordingConflictListener listener;
    std::unique_ptr<ShardedReplica> replica;
    /// The daemon's exchange on `replica`, owning a production scheduler
    /// in the daemon's inline mode: driven from the checker's one thread,
    /// it runs every task before the call returns, in call order. Every
    /// mutation and protocol step is such a task, so the checker runs the
    /// server's single-writer discipline, deterministically.
    std::unique_ptr<server::ShardedExchange> exchange;
  };

  World(const WorldConfig& config, bool tampered);

  ConflictListener* listener_for(Node& node);
  /// Installs `replica` as the node's state behind a fresh exchange.
  void Bind(Node& node, std::unique_ptr<ShardedReplica> replica);
  Status ApplySync(size_t recipient, size_t source);
  Status ApplyCrash(size_t node);
  const Item* FindUserItem(size_t node, std::string_view name) const;

  WorldConfig config_;
  /// The reply pieces' pool of every node's exchange, as the server's
  /// buffer pool is for its serves. Declared before the nodes, which
  /// borrow it.
  BufferPool buffer_pool_;
  std::vector<std::unique_ptr<Node>> nodes_;
  /// kTamperIvv fires once per World instance; part of the checker's state
  /// digest so deduplication stays sound under the mutation.
  bool tampered_ = false;
};

}  // namespace epidemic::check

#endif  // EPIDEMIC_CHECK_WORLD_H_
