#include "core/sharded_replica.h"

#include <algorithm>

#include "common/bytes.h"
#include "common/hash.h"
#include "common/logging.h"
#include "core/wire.h"

namespace epidemic {

ShardedReplica::ShardedReplica(NodeId id, size_t num_nodes, size_t num_shards,
                               ConflictListener* listener) {
  EPI_CHECK(num_shards >= 1) << "a replica needs at least one shard";
  shards_.reserve(num_shards);
  for (size_t k = 0; k < num_shards; ++k) {
    shards_.push_back(std::make_unique<Replica>(id, num_nodes, listener));
  }
}

ShardedReplica::ShardedReplica(std::vector<std::unique_ptr<Replica>> shards)
    : shards_(std::move(shards)) {
  EPI_CHECK(!shards_.empty()) << "a replica needs at least one shard";
  for (const auto& shard : shards_) {
    EPI_CHECK(shard != nullptr);
    EPI_CHECK(shard->id() == shards_[0]->id() &&
              shard->num_nodes() == shards_[0]->num_nodes())
        << "shards disagree on node identity";
  }
}

size_t ShardedReplica::ShardOf(std::string_view name, size_t num_shards) {
  if (num_shards <= 1) return 0;
  return Crc32c(name) % num_shards;
}

std::vector<std::pair<std::string, std::string>> ShardedReplica::Scan(
    std::string_view prefix, size_t limit) const {
  std::vector<std::pair<std::string, std::string>> out;
  for (const auto& shard : shards_) {
    auto part = shard->Scan(prefix, /*limit=*/0);
    out.insert(out.end(), std::make_move_iterator(part.begin()),
               std::make_move_iterator(part.end()));
  }
  std::sort(out.begin(), out.end());
  if (limit > 0 && out.size() > limit) out.resize(limit);
  return out;
}

Status ShardedReplica::AcceptShardPropagationSegmentV3(size_t shard,
                                                       std::string_view body) {
  wire::SegmentViewStorage storage;
  PropagationResponseView view;
  EPI_RETURN_NOT_OK(wire::DecodeShardSegmentBodyV3(body, &storage, &view));
  return AcceptShardPropagation(shard, view);
}

ShardedPropagationRequest ShardedReplica::BuildPropagationRequestV3() const {
  ShardedPropagationRequest req;
  req.requester = id();
  req.shard_dbvvs.reserve(shards_.size());
  for (const auto& shard : shards_) {
    req.shard_dbvvs.push_back(shard->dbvv());
  }
  return req;
}

VersionVector ShardedReplica::AggregateDbvv() const {
  VersionVector sum(num_nodes());
  for (const auto& shard : shards_) {
    for (NodeId k = 0; k < num_nodes(); ++k) sum[k] += shard->dbvv()[k];
  }
  return sum;
}

ReplicaStats ShardedReplica::TotalStats() const {
  ReplicaStats total;
  for (const auto& shard : shards_) total.Accumulate(shard->stats());
  return total;
}

void ShardedReplica::ResetStats() {
  for (auto& shard : shards_) shard->ResetStats();
}

size_t ShardedReplica::TotalItems() const {
  size_t n = 0;
  for (const auto& shard : shards_) n += shard->items().size();
  return n;
}

size_t ShardedReplica::PumpIntraNode() {
  size_t applied = 0;
  for (auto& shard : shards_) applied += shard->PumpIntraNode();
  return applied;
}

Status ShardedReplica::CheckInvariants() const {
  VersionVector ivv_sum(num_nodes());
  for (size_t k = 0; k < shards_.size(); ++k) {
    Status s = shards_[k]->CheckInvariants();
    if (!s.ok()) {
      return Status::Internal("shard " + std::to_string(k) + ": " +
                              s.message());
    }
    for (const Item& item : shards_[k]->items()) {
      for (NodeId j = 0; j < num_nodes(); ++j) ivv_sum[j] += item.ivv[j];
    }
  }
  // Aggregate §4.1: the reconstructed whole-database vector must equal the
  // sum of all item IVVs across all shards.
  VersionVector agg = AggregateDbvv();
  if (!(ivv_sum == agg)) {
    return Status::Internal("aggregate DBVV invariant violated: sum of all "
                            "IVVs is " + ivv_sum.ToString() +
                            " but shard DBVVs sum to " + agg.ToString());
  }
  return Status::OK();
}

std::string ShardedReplica::CanonicalState() const {
  ByteWriter w;
  w.PutVarint64(shards_.size());
  for (const auto& shard : shards_) w.PutString(shard->CanonicalState());
  return w.Release();
}

std::string ShardedReplica::DebugString() const {
  size_t tombstones = 0;
  size_t aux_copies = 0;
  size_t log_records = 0;
  size_t aux_records = 0;
  for (const auto& shard : shards_) {
    for (const Item& item : shard->items()) {
      if (item.HasAux()) ++aux_copies;
      if (item.deleted) ++tombstones;
    }
    log_records += shard->log_vector().TotalRecords();
    aux_records += shard->aux_log().size();
  }
  ReplicaStats stats = TotalStats();

  std::string out;
  out += "replica ";
  out += std::to_string(id());
  out += "/";
  out += std::to_string(num_nodes());
  out += " shards=" + std::to_string(shards_.size());
  out += " dbvv=" + AggregateDbvv().ToString();
  out += " items=" + std::to_string(TotalItems());
  out += " tombstones=" + std::to_string(tombstones);
  out += " log_records=" + std::to_string(log_records);
  out += " aux_copies=" + std::to_string(aux_copies);
  out += " aux_records=" + std::to_string(aux_records);
  out += "\nstats:";
  out += " updates=" + std::to_string(stats.updates_regular) + "+" +
         std::to_string(stats.updates_aux) + "aux";
  out += " reads=" + std::to_string(stats.reads);
  out += " prop_served=" + std::to_string(stats.propagation_requests_served);
  out += " current_replies=" + std::to_string(stats.you_are_current_replies);
  out += " items_shipped=" + std::to_string(stats.items_shipped);
  out += " items_adopted=" + std::to_string(stats.items_adopted);
  out += " conflicts=" + std::to_string(stats.conflicts_detected);
  out += " oob_served=" + std::to_string(stats.oob_requests_served);
  out += " intra_node=" + std::to_string(stats.intra_node_ops_applied);
  out += "\nshard items:";
  for (const auto& shard : shards_) {
    out += " ";
    out += std::to_string(shard->items().size());
  }
  return out;
}

}  // namespace epidemic
