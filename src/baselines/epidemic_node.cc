#include "baselines/epidemic_node.h"

#include <algorithm>

#include "common/logging.h"

namespace epidemic {

namespace {
// Size model mirroring the binary codec: varint length prefix (~1 byte for
// short strings) plus payload.
uint64_t StringWireSize(std::string_view s) { return 1 + s.size(); }
uint64_t VvWireSize(size_t n) { return 8 * n; }
}  // namespace

EpidemicNode::EpidemicNode(NodeId id, size_t num_nodes)
    : replica_(id, num_nodes, &listener_) {}

Status EpidemicNode::SyncWith(ProtocolNode& peer) {
  // Single-owner escape: the simulator harness runs exchanges from one
  // thread, which is the single writer of both replicas in this round.
  AssertShardContextHeld();
  auto& source = static_cast<EpidemicNode&>(peer);
  ++sync_stats_.exchanges;

  PropagationRequest req = replica_.BuildPropagationRequest();
  sync_stats_.control_bytes += VvWireSize(req.dbvv.size());

  // The view borrows the source's store; both replicas stay untouched by
  // anything else until the accept below returns.
  const PropagationResponseView& resp =
      source.replica_.HandlePropagationView(req);
  if (resp.you_are_current) {
    ++sync_stats_.noop_exchanges;
    sync_stats_.control_bytes += 1;  // the "you-are-current" reply
    return Status::OK();
  }

  for (const auto& tail : resp.tails) {
    for (const WireLogRecordView& rec : tail) {
      ++sync_stats_.records_shipped;
      sync_stats_.control_bytes += StringWireSize(rec.item_name) + 8;
    }
  }
  for (const WireItemView& item : resp.items) {
    // One IVV comparison per *shipped* item only — the O(m) property.
    ++sync_stats_.items_examined;
    ++sync_stats_.version_comparisons;
    sync_stats_.control_bytes +=
        StringWireSize(item.name) + VvWireSize(item.ivv->size());
    sync_stats_.data_bytes += StringWireSize(item.value);
  }

  uint64_t adopted_before = replica_.stats().items_adopted;
  EPI_RETURN_NOT_OK(replica_.AcceptPropagation(resp));
  sync_stats_.items_copied += replica_.stats().items_adopted - adopted_before;
  return Status::OK();
}

Status EpidemicNode::OobFetch(ProtocolNode& peer, std::string_view item) {
  // Single-owner escape: see SyncWith.
  AssertShardContextHeld();
  auto& source = static_cast<EpidemicNode&>(peer);
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

std::vector<std::pair<std::string, std::string>> EpidemicNode::Snapshot()
    const {
  std::vector<std::pair<std::string, std::string>> out;
  for (const Item& item : replica_.items()) {
    out.emplace_back(item.name, item.value);
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace epidemic
