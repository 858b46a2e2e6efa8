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
#include "core/replica.h"
#include "core/sharded_replica.h"
#include "runtime/scheduler.h"
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
  /// The first anti-entropy reply that ships items has the shipped IVV
  /// inflated by one (origin = the source node), planting a phantom update:
  /// replicas later reach equal IVVs with different values. Only supported
  /// with one shard (the tamper edits the in-memory reply).
  kTamperIvv,
};

/// Parses the --mutate spelling ("none", "amnesia", "mute-conflicts",
/// "tamper-ivv").
Result<Mutation> ParseMutation(std::string_view name);
std::string_view MutationName(Mutation mutation);

struct WorldConfig {
  size_t num_nodes = 2;
  size_t num_items = 2;
  /// 1 = drive the plain Replica core; >1 = drive ShardedReplica through
  /// the daemon's sharded exchange (server::PullSharded): its serve, its
  /// wire-v3 reply frame, its zero-copy envelope decode and its accept.
  size_t num_shards = 1;
  /// Include tombstone writes in the alphabet.
  bool with_deletes = false;
  Mutation mutation = Mutation::kNone;
};

/// A small cluster of real replicas the checker schedules explicitly. The
/// world applies one Action at a time against the production entry points
/// (`Replica`/`ShardedReplica`), collects conflict events, and serializes
/// its full protocol state through the production snapshot codec — which is
/// both how the DFS stores states and how the kCrash action is modeled
/// (recovery at a checkpoint boundary; journal-suffix replay equivalence is
/// covered by journal_test).
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

  /// Node `i`'s canonical protocol state (Replica::CanonicalState, or the
  /// sharded aggregate).
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
    /// Exactly one of the two is set, per config().num_shards.
    std::unique_ptr<Replica> plain;
    std::unique_ptr<ShardedReplica> sharded;
    /// Sharded nodes only: the production shard scheduler in the inline
    /// mode the daemon runs (no owner threads). Driven from the checker's
    /// one thread it never parks and runs every task before the call
    /// returns, in call order. Every mutation and every per-shard
    /// propagation step runs as a scheduler task, so the checker
    /// exercises the same single-writer discipline the server runs under,
    /// deterministically.
    std::unique_ptr<runtime::ShardScheduler> sched;
  };

  World(const WorldConfig& config, bool tampered);

  ConflictListener* listener_for(Node& node);
  Status ApplySync(size_t recipient, size_t source);
  Status ApplyCrash(size_t node);
  const Item* FindUserItem(size_t node, std::string_view name) const;

  WorldConfig config_;
  std::vector<std::unique_ptr<Node>> nodes_;
  /// The reply pieces' pool in the sharded sync path, as the server's
  /// buffer pool is for its serves.
  BufferPool buffer_pool_;
  /// kTamperIvv fires once per World instance; part of the checker's state
  /// digest so deduplication stays sound under the mutation.
  bool tampered_ = false;
};

}  // namespace epidemic::check

#endif  // EPIDEMIC_CHECK_WORLD_H_
