#include "sim/cluster.h"

#include "baselines/epidemic_node.h"
#include "baselines/lotus_node.h"
#include "baselines/merkle_node.h"
#include "baselines/oracle_node.h"
#include "baselines/per_item_vv_node.h"
#include "baselines/wuu_bernstein_node.h"
#include "common/logging.h"

namespace epidemic::sim {

std::string_view ProtocolKindName(ProtocolKind kind) {
  switch (kind) {
    case ProtocolKind::kEpidemicDbvv:
      return "epidemic-dbvv";
    case ProtocolKind::kLotus:
      return "lotus-seqno";
    case ProtocolKind::kOraclePush:
      return "oracle-push";
    case ProtocolKind::kPerItemVv:
      return "per-item-vv";
    case ProtocolKind::kWuuBernstein:
      return "wuu-bernstein";
    case ProtocolKind::kMerkle:
      return "merkle-lww";
  }
  return "unknown";
}

std::unique_ptr<ProtocolNode> MakeNode(ProtocolKind kind, NodeId id,
                                       size_t num_nodes) {
  switch (kind) {
    case ProtocolKind::kEpidemicDbvv:
      return std::make_unique<EpidemicNode>(id, num_nodes);
    case ProtocolKind::kLotus:
      return std::make_unique<LotusNode>(id, num_nodes);
    case ProtocolKind::kOraclePush:
      return std::make_unique<OracleNode>(id, num_nodes);
    case ProtocolKind::kPerItemVv:
      return std::make_unique<PerItemVvNode>(id, num_nodes);
    case ProtocolKind::kWuuBernstein:
      return std::make_unique<WuuBernsteinNode>(id, num_nodes);
    case ProtocolKind::kMerkle:
      return std::make_unique<MerkleNode>(id, num_nodes);
  }
  return nullptr;
}

Cluster::Cluster(const ClusterConfig& config)
    : config_(config),
      rng_(config.seed),
      workload_(config.workload),
      up_(config.num_nodes, true),
      link_up_(config.num_nodes,
               std::vector<bool>(config.num_nodes, true)) {
  EPI_CHECK(config.num_nodes >= 2) << "a cluster needs at least two nodes";
  nodes_.reserve(config.num_nodes);
  for (NodeId i = 0; i < config.num_nodes; ++i) {
    nodes_.push_back(MakeNode(config.protocol, i, config.num_nodes));
  }
}

void Cluster::ApplyUpdates(size_t count) {
  for (size_t i = 0; i < count; ++i) {
    Workload::Op op = workload_.NextUpdate(num_nodes());
    // Clients retarget their update when the chosen replica is down.
    while (!up_[op.node]) {
      op.node = static_cast<NodeId>(rng_.Uniform(num_nodes()));
    }
    Status s = nodes_[op.node]->ClientUpdate(op.item, op.value);
    EPI_CHECK(s.ok()) << "workload update failed: " << s.ToString();
  }
}

Status Cluster::UpdateAt(NodeId id, std::string_view item,
                         std::string_view value) {
  if (!up_[id]) {
    return Status::Unavailable("node " + std::to_string(id) + " is down");
  }
  return nodes_[id]->ClientUpdate(item, value);
}

Status Cluster::SyncPair(NodeId actor, NodeId peer) {
  if (actor == peer) return Status::InvalidArgument("self-sync");
  if (!up_[actor] || !up_[peer]) {
    return Status::Unavailable("sync pair involves a crashed node");
  }
  if (!link_up_[actor][peer]) {
    return Status::Unavailable("link " + std::to_string(actor) + "<->" +
                               std::to_string(peer) + " is severed");
  }
  return nodes_[actor]->SyncWith(*nodes_[peer]);
}

void Cluster::SetLinkUp(NodeId a, NodeId b, bool up) {
  link_up_[a][b] = up;
  link_up_[b][a] = up;
}

bool Cluster::IsLinkUp(NodeId a, NodeId b) const { return link_up_[a][b]; }

void Cluster::Partition(const std::vector<NodeId>& side_a,
                        const std::vector<NodeId>& side_b) {
  for (NodeId a : side_a) {
    for (NodeId b : side_b) SetLinkUp(a, b, false);
  }
}

void Cluster::HealAllLinks() {
  for (auto& row : link_up_) {
    for (size_t j = 0; j < row.size(); ++j) row[j] = true;
  }
}

size_t Cluster::SyncRound() {
  size_t actions = 0;
  for (NodeId i = 0; i < num_nodes(); ++i) {
    if (!up_[i]) continue;
    NodeId peer;
    if (config_.peering == Peering::kRing) {
      peer = static_cast<NodeId>((i + 1) % num_nodes());
      // Ring neighbor unreachable (down or partitioned): skip this round.
      if (!up_[peer] || !link_up_[i][peer]) continue;
    } else {
      // Pick a random live, reachable peer, if any exists.
      bool any_reachable = false;
      for (NodeId j = 0; j < num_nodes() && !any_reachable; ++j) {
        any_reachable = (j != i && up_[j] && link_up_[i][j]);
      }
      if (!any_reachable) continue;
      do {
        peer = static_cast<NodeId>(rng_.Uniform(num_nodes()));
      } while (peer == i || !up_[peer] || !link_up_[i][peer]);
    }
    Status s = nodes_[i]->SyncWith(*nodes_[peer]);
    EPI_CHECK(s.ok()) << "sync failed: " << s.ToString();
    ++actions;
  }
  return actions;
}

Result<size_t> Cluster::RunUntilConverged(size_t max_rounds) {
  if (IsConverged()) return size_t{0};
  for (size_t round = 1; round <= max_rounds; ++round) {
    SyncRound();
    if (IsConverged()) return round;
  }
  return Status::TimedOut("not converged after " +
                          std::to_string(max_rounds) + " rounds");
}

size_t Cluster::LiveCount() const {
  size_t live = 0;
  for (bool up : up_) live += up ? 1 : 0;
  return live;
}

bool Cluster::IsConverged() const { return CountDivergentFrom(0) == 0; }

Status Cluster::CheckProtocolInvariants() const {
  for (NodeId i = 0; i < num_nodes(); ++i) {
    Status s = nodes_[i]->CheckInvariants();
    if (!s.ok()) {
      return Status::Internal("node " + std::to_string(i) + ": " +
                              s.message());
    }
  }
  return Status::OK();
}

size_t Cluster::CountDivergentFrom(NodeId reference) const {
  // Compare committed snapshots against the first live node (or the given
  // reference if it is live).
  NodeId ref = reference;
  if (!up_[ref]) {
    bool found = false;
    for (NodeId i = 0; i < num_nodes(); ++i) {
      if (up_[i]) {
        ref = i;
        found = true;
        break;
      }
    }
    if (!found) return 0;  // nobody is alive; vacuously converged
  }
  auto ref_snapshot = nodes_[ref]->Snapshot();
  size_t divergent = 0;
  for (NodeId i = 0; i < num_nodes(); ++i) {
    if (i == ref || !up_[i]) continue;
    if (nodes_[i]->Snapshot() != ref_snapshot) ++divergent;
  }
  return divergent;
}

SyncStats Cluster::TotalSyncStats() const {
  SyncStats total;
  for (const auto& node : nodes_) {
    const SyncStats& s = node->sync_stats();
    total.exchanges += s.exchanges;
    total.noop_exchanges += s.noop_exchanges;
    total.items_examined += s.items_examined;
    total.version_comparisons += s.version_comparisons;
    total.items_copied += s.items_copied;
    total.records_shipped += s.records_shipped;
    total.control_bytes += s.control_bytes;
    total.data_bytes += s.data_bytes;
  }
  return total;
}

uint64_t Cluster::TotalConflicts() const {
  uint64_t total = 0;
  for (const auto& node : nodes_) total += node->conflicts_detected();
  return total;
}

}  // namespace epidemic::sim
