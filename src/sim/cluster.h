#ifndef EPIDEMIC_SIM_CLUSTER_H_
#define EPIDEMIC_SIM_CLUSTER_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "baselines/protocol_node.h"
#include "common/random.h"
#include "common/result.h"
#include "sim/workload.h"

namespace epidemic::sim {

/// Which replication protocol a cluster runs.
enum class ProtocolKind {
  kEpidemicDbvv,   // the paper's protocol
  kLotus,          // §8.1 baseline
  kOraclePush,     // §8.2 baseline
  kPerItemVv,      // §8.3 baseline (Ficus-style reconciliation)
  kWuuBernstein,   // §8.3 baseline (replicated-log gossip, ref [15])
  kMerkle,         // modern comparator: Merkle-tree LWW anti-entropy
};

std::string_view ProtocolKindName(ProtocolKind kind);

/// How a node picks its peer for one anti-entropy round.
enum class Peering {
  kRing,    // node i syncs with (i+1) mod n — deterministic transitive cycle
  kRandom,  // uniform random other node — classic rumor-mongering schedule
};

struct ClusterConfig {
  ProtocolKind protocol = ProtocolKind::kEpidemicDbvv;
  size_t num_nodes = 4;
  Peering peering = Peering::kRing;
  uint64_t seed = 7;
  WorkloadConfig workload;
};

/// Creates a fresh protocol node of the given kind. Exposed so tests and
/// benchmarks can assemble ad-hoc topologies without a Cluster.
std::unique_ptr<ProtocolNode> MakeNode(ProtocolKind kind, NodeId id,
                                       size_t num_nodes);

/// Round-based deterministic simulation harness over any ProtocolNode
/// implementation.
///
/// A "round" performs one sync action per live node against a peer chosen
/// by the peering policy. Crashed nodes neither initiate nor serve syncs.
/// With ring peering and no failures, n-1 rounds always suffice for full
/// (transitive) propagation, matching Theorem 5's scheduling premise.
class Cluster {
 public:
  explicit Cluster(const ClusterConfig& config);

  size_t num_nodes() const { return nodes_.size(); }
  ProtocolNode& node(NodeId id) { return *nodes_[id]; }
  const ProtocolNode& node(NodeId id) const { return *nodes_[id]; }

  // -------------------------------------------------------------------
  // Workload.

  /// Applies `count` generated client updates at live nodes (ops targeting
  /// crashed nodes are re-rolled).
  void ApplyUpdates(size_t count);

  /// Direct client update at a specific node.
  Status UpdateAt(NodeId id, std::string_view item, std::string_view value);

  // -------------------------------------------------------------------
  // Synchronization.

  /// One sync action: `actor` syncs with `peer` (pull for epidemic/Lotus/
  /// per-item-VV, push for Oracle). Fails with Unavailable if either node
  /// is down.
  Status SyncPair(NodeId actor, NodeId peer);

  /// One full round per the peering policy. Returns the number of sync
  /// actions that ran (crashed nodes skip).
  size_t SyncRound();

  /// Runs rounds until all live replicas converge, up to `max_rounds`.
  /// Returns the number of rounds taken, or TimedOut.
  Result<size_t> RunUntilConverged(size_t max_rounds);

  // -------------------------------------------------------------------
  // Failure injection.

  void Crash(NodeId id) { up_[id] = false; }
  void Recover(NodeId id) { up_[id] = true; }
  bool IsUp(NodeId id) const { return up_[id]; }
  size_t LiveCount() const;

  /// Link-level failures: a pair with a severed link cannot sync even when
  /// both endpoints are alive (network partitions, flaky WAN links). Links
  /// are symmetric and default to up.
  void SetLinkUp(NodeId a, NodeId b, bool up);
  bool IsLinkUp(NodeId a, NodeId b) const;

  /// Severs every link between the two groups (a partition). Nodes absent
  /// from both groups keep all their links.
  void Partition(const std::vector<NodeId>& side_a,
                 const std::vector<NodeId>& side_b);

  /// Restores every link.
  void HealAllLinks();

  // -------------------------------------------------------------------
  // Observation.

  /// True when every live node's committed snapshot is identical.
  bool IsConverged() const;

  /// Runs every node's ProtocolNode::CheckInvariants (crashed nodes
  /// included — crashes must not corrupt state). Returns the first failure,
  /// prefixed with the offending node id. Gives simulation tests and the
  /// model checker a one-call structural oracle.
  Status CheckProtocolInvariants() const;

  /// Number of live nodes whose snapshot differs from node `reference`'s.
  size_t CountDivergentFrom(NodeId reference) const;

  /// Aggregated sync statistics over all nodes.
  SyncStats TotalSyncStats() const;

  /// Total conflicts detected across all nodes.
  uint64_t TotalConflicts() const;

  Workload& workload() { return workload_; }
  Rng& rng() { return rng_; }
  const ClusterConfig& config() const { return config_; }

 private:
  ClusterConfig config_;
  Rng rng_;
  Workload workload_;
  std::vector<std::unique_ptr<ProtocolNode>> nodes_;
  std::vector<bool> up_;
  std::vector<std::vector<bool>> link_up_;  // symmetric adjacency
};

}  // namespace epidemic::sim

#endif  // EPIDEMIC_SIM_CLUSTER_H_
