#include "check/world.h"

#include <utility>
#include <vector>

#include "common/bytes.h"
#include "core/snapshot.h"
#include "core/wire.h"

namespace epidemic::check {

Result<Mutation> ParseMutation(std::string_view name) {
  if (name == "none") return Mutation::kNone;
  if (name == "amnesia") return Mutation::kAmnesia;
  if (name == "mute-conflicts") return Mutation::kMuteConflicts;
  if (name == "tamper-ivv") return Mutation::kTamperIvv;
  return Status::InvalidArgument(
      "unknown mutation '" + std::string(name) +
      "' (valid: none, amnesia, mute-conflicts, tamper-ivv)");
}

std::string_view MutationName(Mutation mutation) {
  switch (mutation) {
    case Mutation::kNone:
      return "none";
    case Mutation::kAmnesia:
      return "amnesia";
    case Mutation::kMuteConflicts:
      return "mute-conflicts";
    case Mutation::kTamperIvv:
      return "tamper-ivv";
  }
  return "?";
}

World::World(const WorldConfig& config) : World(config, /*tampered=*/false) {
  for (size_t i = 0; i < config_.num_nodes; ++i) {
    auto node = std::make_unique<Node>();
    Bind(*node, std::make_unique<ShardedReplica>(
                    static_cast<NodeId>(i), config_.num_nodes,
                    config_.num_shards, listener_for(*node)));
    nodes_.push_back(std::move(node));
  }
}

World::World(const WorldConfig& config, bool tampered)
    : config_(config), tampered_(tampered) {}

Result<std::unique_ptr<World>> World::Restore(
    const WorldConfig& config, const std::vector<std::string>& blobs,
    bool tampered) {
  if (blobs.size() != config.num_nodes) {
    return Status::InvalidArgument("snapshot blob count mismatch");
  }
  auto world = std::unique_ptr<World>(new World(config, tampered));
  for (const std::string& blob : blobs) {
    auto node = std::make_unique<Node>();
    auto replica = DecodeShardedSnapshot(blob, world->listener_for(*node));
    if (!replica.ok()) return replica.status();
    world->Bind(*node, std::move(*replica));
    world->nodes_.push_back(std::move(node));
  }
  return world;
}

ConflictListener* World::listener_for(Node& node) {
  // Muting the listener IS the kMuteConflicts defect: conflicts still
  // happen, nobody hears about them.
  if (config_.mutation == Mutation::kMuteConflicts) return nullptr;
  return &node.listener;
}

void World::Bind(Node& node, std::unique_ptr<ShardedReplica> replica) {
  node.exchange.reset();  // it borrows the replica being replaced
  node.replica = std::move(replica);
  node.exchange =
      std::make_unique<server::ShardedExchange>(*node.replica, buffer_pool_);
}

Status World::Apply(const Action& action) {
  const size_t n = nodes_.size();
  if (action.a >= n) return Status::InvalidArgument("acting node out of range");
  Node& node = *nodes_[action.a];
  const std::string name = ItemName(action.item);

  switch (action.kind) {
    case ActionKind::kUpdate: {
      if (action.item >= config_.num_items) {
        return Status::InvalidArgument("item index out of range");
      }
      // A fresh, schedule-deterministic value naming the writer and the
      // version, so the convergence oracle can tell versions apart:
      // "u<node>.<item>.<total updates reflected + 1>".
      const Item* item = FindUserItem(action.a, name);
      UpdateCount version = (item ? item->UserIvv().Total() : 0) + 1;
      std::string value = "u";
      value += std::to_string(action.a);
      value += ".";
      value += name;
      value += ".";
      value += std::to_string(version);
      // The update is one task in its shard's single-writer section.
      Status status;
      node.exchange->sched().Execute(
          node.replica->ShardOf(name), runtime::TaskKind::kLocalUpdate,
          /*mutates=*/true, [&](const runtime::ShardToken& token) {
            runtime::AssertShardContext(token);
            status = node.replica->Update(name, value);
          });
      return status;
    }
    case ActionKind::kDelete: {
      if (action.item >= config_.num_items) {
        return Status::InvalidArgument("item index out of range");
      }
      Status status;
      node.exchange->sched().Execute(
          node.replica->ShardOf(name), runtime::TaskKind::kLocalUpdate,
          /*mutates=*/true, [&](const runtime::ShardToken& token) {
            runtime::AssertShardContext(token);
            status = node.replica->Delete(name);
          });
      return status;
    }
    case ActionKind::kSync:
      if (action.b >= n || action.b == action.a) {
        return Status::InvalidArgument("sync peer out of range");
      }
      return ApplySync(action.a, action.b);
    case ActionKind::kOob: {
      if (action.b >= n || action.b == action.a) {
        return Status::InvalidArgument("oob peer out of range");
      }
      if (action.item >= config_.num_items) {
        return Status::InvalidArgument("item index out of range");
      }
      // The daemon's §5.2 steps over the codec frames: the request and the
      // accept on this node, the serve on the source.
      Status s =
          server::PullOob(*node.exchange, *nodes_[action.b]->exchange, name);
      // NotFound (source never heard of the item) and Conflict (reported to
      // the listener) are legal §5.2 outcomes, not protocol errors.
      if (s.IsNotFound() || s.IsConflict()) return Status::OK();
      return s;
    }
    case ActionKind::kPump:
      // Touches every shard: run under the scheduler's cross-shard
      // barrier, like the server's whole-database operations.
      node.exchange->sched().ExecuteExclusive(
          /*mutates=*/true, [&](const runtime::ExclusiveToken& token) {
            runtime::AssertShardContext(token);
            node.replica->PumpIntraNode();
          });
      return Status::OK();
    case ActionKind::kCrash:
      return ApplyCrash(action.a);
  }
  return Status::Internal("unreachable");
}

Status World::ApplySync(size_t recipient, size_t source) {
  // The daemon's exchange (server/sharded_exchange.h) on each node's
  // inline scheduler — the handshake snapshot as one batch on the
  // recipient, the serve as one batch on the source (the real wire-v3
  // reply frame, tag 18), then the envelope decode and one accept batch
  // on the recipient. The inline scheduler runs every batch in the order
  // of its shard list, so the whole exchange is a pure function of the
  // schedule.
  server::ShardedExchange& to = *nodes_[recipient]->exchange;
  server::ShardedExchange& from = *nodes_[source]->exchange;
  if (config_.mutation != Mutation::kTamperIvv || tampered_) {
    return server::PullSharded(to, from).status();
  }
  // kTamperIvv: the source lies on the wire. The first segment that ships
  // items is re-encoded with its first item's IVV raised by one at the
  // source's entry. The delta base, the source shard's DBVV, is raised by
  // the same one, so every complement delta stays non-negative and every
  // other item decodes to its true IVV.
  const std::string frame = from.ServeFrame(to.Handshake());
  wire::ShardedResponseEnvelopeView env;
  EPI_RETURN_NOT_OK(server::DecodeReplyFrame(frame, &env));
  std::string forged;
  for (wire::ShardedSegmentView& seg : env.segments) {
    wire::SegmentViewStorage storage;
    PropagationResponseView view;
    EPI_RETURN_NOT_OK(
        wire::DecodeShardSegmentBodyV3(seg.body, &storage, &view));
    if (view.items.empty()) continue;
    VersionVector base;
    from.sched().Execute(seg.shard, runtime::TaskKind::kSnapshot,
                         /*mutates=*/false,
                         [&](const runtime::ShardToken&) {
                           base = from.replica().shard(seg.shard).dbvv();
                         });
    const NodeId liar = static_cast<NodeId>(source);
    base.Increment(liar);
    VersionVector phantom = *view.items[0].ivv;
    phantom.Increment(liar);
    view.items[0].ivv = &phantom;
    ByteWriter w;
    wire::EncodeShardSegmentBodyV3Into(w, view, base);
    forged = w.Release();
    seg.body = forged;
    tampered_ = true;
    break;
  }
  return to.Accept(env.num_shards, env.segments);
}

Status World::ApplyCrash(size_t index) {
  Node& node = *nodes_[index];
  if (config_.mutation == Mutation::kAmnesia) {
    // The defect: recovery "finds" no snapshot and rejoins empty.
    Bind(node, std::make_unique<ShardedReplica>(
                   static_cast<NodeId>(index), config_.num_nodes,
                   config_.num_shards, listener_for(node)));
    return Status::OK();
  }
  // Honest crash: lose the process, recover from a snapshot of the current
  // state (recovery at a checkpoint boundary; replaying a journal suffix on
  // top is journal_test's concern). Soft state (counters, peer DBVVs, the
  // scheduler) is legitimately lost.
  auto restored = DecodeShardedSnapshot(EncodeShardedSnapshot(*node.replica),
                                        listener_for(node));
  if (!restored.ok()) return restored.status();
  Bind(node, std::move(*restored));
  return Status::OK();
}

Status World::CheckInvariants() const {
  for (size_t i = 0; i < nodes_.size(); ++i) {
    Status s = nodes_[i]->replica->CheckInvariants();
    if (!s.ok()) {
      return Status::Internal("node " + std::to_string(i) + ": " +
                              s.message());
    }
  }
  return Status::OK();
}

std::string World::NodeCanonicalState(size_t i) const {
  return nodes_[i]->replica->CanonicalState();
}

std::vector<std::string> World::SnapshotBlobs() const {
  std::vector<std::string> blobs;
  blobs.reserve(nodes_.size());
  for (const auto& node : nodes_) {
    blobs.push_back(EncodeShardedSnapshot(*node->replica));
  }
  return blobs;
}

std::vector<ConflictEvent> World::DrainConflicts() {
  std::vector<ConflictEvent> events;
  for (const auto& node : nodes_) {
    for (const ConflictEvent& e : node->listener.events()) {
      events.push_back(e);
    }
    node->listener.Clear();
  }
  return events;
}

VersionVector World::NodeDbvv(size_t i) const {
  return nodes_[i]->replica->AggregateDbvv();
}

const Item* World::FindUserItem(size_t index, std::string_view name) const {
  const Item* item = nodes_[index]->replica->FindItem(name);
  if (item == nullptr) return nullptr;
  if (item->ivv.Total() == 0 && !item->HasAux()) return nullptr;
  return item;
}

World::ItemView World::Observe(size_t index, std::string_view name) const {
  ItemView view;
  const Item* item = FindUserItem(index, name);
  if (item == nullptr) return view;
  view.present = true;
  view.value = item->value;
  view.deleted = item->deleted;
  view.ivv = item->ivv;
  view.has_aux = item->HasAux();
  if (item->HasAux()) {
    view.aux_value = item->aux->value;
    view.aux_deleted = item->aux->deleted;
    view.aux_ivv = item->aux->ivv;
  }
  return view;
}

bool World::NodeHasItem(size_t index, std::string_view name) const {
  return FindUserItem(index, name) != nullptr;
}

bool World::NodeHasAux(size_t index) const {
  const ShardedReplica& replica = *nodes_[index]->replica;
  for (size_t k = 0; k < replica.num_shards(); ++k) {
    for (const auto& item : replica.shard(k).items()) {
      if (item->HasAux()) return true;
    }
  }
  return false;
}

}  // namespace epidemic::check
