#include "baselines/sharded_epidemic_node.h"

#include <algorithm>

#include "common/logging.h"
#include "core/wire.h"

namespace epidemic {

namespace {
uint64_t StringWireSize(std::string_view s) { return 1 + s.size(); }
uint64_t VvWireSize(size_t n) { return 8 * n; }
}  // namespace

ShardedEpidemicNode::ShardedEpidemicNode(NodeId id, size_t num_nodes,
                                         size_t num_shards)
    : replica_(id, num_nodes, num_shards, &listener_) {}

Status ShardedEpidemicNode::SyncWith(ProtocolNode& peer) {
  // Single-owner escape: the simulator harness runs exchanges from one
  // thread, which is the single writer of every shard on both nodes.
  AssertShardContextHeld();
  auto& source = static_cast<ShardedEpidemicNode&>(peer);
  ++sync_stats_.exchanges;

  ShardedPropagationRequest req = replica_.BuildPropagationRequestV3();
  for (const VersionVector& vv : req.shard_dbvvs) {
    sync_stats_.control_bytes += VvWireSize(vv.size());
  }

  ShardedPropagationResponse resp =
      source.replica_.HandlePropagationRequestV3(req);
  if (resp.you_are_current()) {
    ++sync_stats_.noop_exchanges;
    sync_stats_.control_bytes += 2;  // shard count + empty segment list
    return Status::OK();
  }

  // Unchanged shards cost one byte of "nothing here" each; shipped shards
  // are accounted from their decoded per-shard v3 segments, matching the
  // unsharded node's model record for record.
  sync_stats_.control_bytes +=
      resp.num_shards - resp.segments.size();
  wire::SegmentViewStorage storage;
  PropagationResponseView body;
  for (const ShardedPropagationSegment& seg : resp.segments) {
    EPI_RETURN_NOT_OK(
        wire::DecodeShardSegmentBodyV3(seg.body, &storage, &body));
    for (const auto& tail : body.tails) {
      for (const WireLogRecordView& rec : tail) {
        ++sync_stats_.records_shipped;
        sync_stats_.control_bytes += StringWireSize(rec.item_name) + 8;
      }
    }
    for (const WireItemView& item : body.items) {
      ++sync_stats_.items_examined;
      ++sync_stats_.version_comparisons;
      sync_stats_.control_bytes +=
          StringWireSize(item.name) + VvWireSize(item.ivv->size());
      sync_stats_.data_bytes += StringWireSize(item.value);
    }
  }

  uint64_t adopted_before = replica_.TotalStats().items_adopted;
  EPI_RETURN_NOT_OK(replica_.AcceptPropagation(resp));
  sync_stats_.items_copied +=
      replica_.TotalStats().items_adopted - adopted_before;
  return Status::OK();
}

Status ShardedEpidemicNode::OobFetch(ProtocolNode& peer,
                                     std::string_view item) {
  // Single-owner escape: see SyncWith.
  AssertShardContextHeld();
  auto& source = static_cast<ShardedEpidemicNode&>(peer);
  OobRequest req = replica_.BuildOobRequest(item);
  sync_stats_.control_bytes += StringWireSize(req.item_name);
  OobResponse resp = source.replica_.HandleOobRequest(req);
  if (resp.found) {
    sync_stats_.control_bytes +=
        StringWireSize(resp.item_name) + VvWireSize(resp.ivv.size());
    sync_stats_.data_bytes += StringWireSize(resp.value);
  }
  return replica_.AcceptOobResponse(resp);
}

std::vector<std::pair<std::string, std::string>>
ShardedEpidemicNode::Snapshot() const {
  std::vector<std::pair<std::string, std::string>> out;
  for (size_t k = 0; k < replica_.num_shards(); ++k) {
    for (const auto& item : replica_.shard(k).items()) {
      out.emplace_back(item->name, item->value);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace epidemic
