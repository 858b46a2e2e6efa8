#include "check/world.h"

#include <utility>
#include <vector>

#include "core/snapshot.h"
#include "server/sharded_exchange.h"

namespace epidemic::check {

namespace {

/// Inline scheduler for a sharded node: num_shards single-writer
/// sections and no owner threads, so every task runs on the checker's
/// thread before the scheduler call returns.
std::unique_ptr<runtime::ShardScheduler> MakeInlineScheduler(
    size_t num_shards) {
  runtime::ShardScheduler::Options opts;
  opts.num_shards = num_shards;
  opts.workers = 0;
  return std::make_unique<runtime::ShardScheduler>(opts);
}

}  // namespace

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
    NodeId id = static_cast<NodeId>(i);
    if (config_.num_shards > 1) {
      node->sharded = std::make_unique<ShardedReplica>(
          id, config_.num_nodes, config_.num_shards, listener_for(*node));
      node->sched = MakeInlineScheduler(config_.num_shards);
    } else {
      node->plain = std::make_unique<Replica>(id, config_.num_nodes,
                                              listener_for(*node));
    }
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
    if (config.num_shards > 1) {
      auto replica = DecodeShardedSnapshot(blob, world->listener_for(*node));
      if (!replica.ok()) return replica.status();
      node->sharded = std::move(*replica);
      node->sched = MakeInlineScheduler(config.num_shards);
    } else {
      auto replica = DecodeSnapshot(blob, world->listener_for(*node));
      if (!replica.ok()) return replica.status();
      node->plain = std::move(*replica);
    }
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

Status World::Apply(const Action& action) {
  // Single-owner escape: the checker drives every node from one thread, so
  // that thread IS each plain replica's single writer. Sharded nodes still
  // go through their inline scheduler below, whose tokens re-assert the
  // capability inside each task.
  AssertShardContextHeld();
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
      if (node.plain) return node.plain->Update(name, value);
      // Sharded: the update is one task in its shard's single-writer
      // section, executed by the manual pump inside Execute.
      Status status;
      node.sched->Execute(node.sharded->ShardOf(name),
                          runtime::TaskKind::kLocalUpdate, /*mutates=*/true,
                          [&](const runtime::ShardToken& token) {
                            runtime::AssertShardContext(token);
                            status = node.sharded->Update(name, value);
                          });
      return status;
    }
    case ActionKind::kDelete: {
      if (action.item >= config_.num_items) {
        return Status::InvalidArgument("item index out of range");
      }
      if (node.plain) return node.plain->Delete(name);
      Status status;
      node.sched->Execute(node.sharded->ShardOf(name),
                          runtime::TaskKind::kLocalUpdate, /*mutates=*/true,
                          [&](const runtime::ShardToken& token) {
                            runtime::AssertShardContext(token);
                            status = node.sharded->Delete(name);
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
      Node& source = *nodes_[action.b];
      OobRequest req;
      OobResponse resp;
      Status s;
      if (node.plain) {
        req = node.plain->BuildOobRequest(name);
        resp = source.plain->HandleOobRequest(req);
        s = node.plain->AcceptOobResponse(resp);
      } else {
        // Each §5.2 step is a task on the item's shard — build and accept
        // on the requester, serve on the source — mirroring the server's
        // OobFetch task structure.
        const size_t shard = node.sharded->ShardOf(name);
        node.sched->Execute(shard, runtime::TaskKind::kSnapshot,
                            /*mutates=*/false,
                            [&](const runtime::ShardToken&) {
                              req = node.sharded->BuildOobRequest(name);
                            });
        source.sched->Execute(shard, runtime::TaskKind::kServe,
                              /*mutates=*/false,
                              [&](const runtime::ShardToken& token) {
                                runtime::AssertShardContext(token);
                                resp = source.sharded->HandleOobRequest(req);
                              });
        node.sched->Execute(shard, runtime::TaskKind::kAccept,
                            /*mutates=*/true,
                            [&](const runtime::ShardToken& token) {
                              runtime::AssertShardContext(token);
                              s = node.sharded->AcceptOobResponse(resp);
                            });
      }
      // NotFound (source never heard of the item) and Conflict (reported to
      // the listener) are legal §5.2 outcomes, not protocol errors.
      if (s.IsNotFound() || s.IsConflict()) return Status::OK();
      return s;
    }
    case ActionKind::kPump:
      if (node.plain) {
        node.plain->PumpIntraNode();
      } else {
        // Touches every shard: run under the scheduler's cross-shard
        // barrier, like the server's whole-database operations.
        node.sched->ExecuteExclusive(
            /*mutates=*/true, [&](const runtime::ExclusiveToken& token) {
              runtime::AssertShardContext(token);
              node.sharded->PumpIntraNode();
            });
      }
      return Status::OK();
    case ActionKind::kCrash:
      return ApplyCrash(action.a);
  }
  return Status::Internal("unreachable");
}

Status World::ApplySync(size_t recipient, size_t source) {
  // Single-owner escape: same as Apply — the checker's one driver thread
  // is the single writer of both plain replicas in this exchange.
  AssertShardContextHeld();
  Node& r = *nodes_[recipient];
  Node& s = *nodes_[source];
  if (r.plain) {
    PropagationRequest req = r.plain->BuildPropagationRequest();
    const PropagationResponseView& served =
        s.plain->HandlePropagationView(req);
    if (config_.mutation == Mutation::kTamperIvv && !tampered_ &&
        !served.items.empty()) {
      // Plant one phantom update attributed to the source. The view borrows
      // the source's live IVVs, so the forged one is a local copy.
      PropagationResponseView forged = served;
      VersionVector phantom = *forged.items[0].ivv;
      phantom.Increment(static_cast<NodeId>(source));
      forged.items[0].ivv = &phantom;
      tampered_ = true;
      return r.plain->AcceptPropagation(forged);
    }
    return r.plain->AcceptPropagation(served);
  }
  // Sharded: the daemon's exchange (server/sharded_exchange.h) on each
  // node's inline scheduler — the handshake snapshot as one batch on the
  // recipient, the serve as one batch on the source (the real wire-v3
  // reply frame, tag 18), then the envelope decode and one accept batch
  // on the recipient. The inline scheduler runs every batch in the order
  // of its shard list, so the whole exchange is a pure function of the
  // schedule.
  server::ShardedExchange to(*r.sharded, *r.sched, buffer_pool_);
  server::ShardedExchange from(*s.sharded, *s.sched, buffer_pool_);
  return server::PullSharded(to, from).status();
}

Status World::ApplyCrash(size_t index) {
  Node& node = *nodes_[index];
  NodeId id = static_cast<NodeId>(index);
  if (config_.mutation == Mutation::kAmnesia) {
    // The defect: recovery "finds" no snapshot and rejoins empty.
    if (node.plain) {
      node.plain =
          std::make_unique<Replica>(id, config_.num_nodes, listener_for(node));
    } else {
      node.sharded = std::make_unique<ShardedReplica>(
          id, config_.num_nodes, config_.num_shards, listener_for(node));
    }
    return Status::OK();
  }
  // Honest crash: lose the process, recover from a snapshot of the current
  // state (recovery at a checkpoint boundary; replaying a journal suffix on
  // top is journal_test's concern). Soft state (counters, peer DBVVs) is
  // legitimately lost.
  if (node.plain) {
    std::string blob = EncodeSnapshot(*node.plain);
    auto restored = DecodeSnapshot(blob, listener_for(node));
    if (!restored.ok()) return restored.status();
    node.plain = std::move(*restored);
  } else {
    std::string blob = EncodeShardedSnapshot(*node.sharded);
    auto restored = DecodeShardedSnapshot(blob, listener_for(node));
    if (!restored.ok()) return restored.status();
    node.sharded = std::move(*restored);
  }
  return Status::OK();
}

Status World::CheckInvariants() const {
  for (size_t i = 0; i < nodes_.size(); ++i) {
    const Node& node = *nodes_[i];
    Status s = node.plain ? node.plain->CheckInvariants()
                          : node.sharded->CheckInvariants();
    if (!s.ok()) {
      return Status::Internal("node " + std::to_string(i) + ": " +
                              s.message());
    }
  }
  return Status::OK();
}

std::string World::NodeCanonicalState(size_t i) const {
  const Node& node = *nodes_[i];
  return node.plain ? node.plain->CanonicalState()
                    : node.sharded->CanonicalState();
}

std::vector<std::string> World::SnapshotBlobs() const {
  std::vector<std::string> blobs;
  blobs.reserve(nodes_.size());
  for (const auto& node : nodes_) {
    blobs.push_back(node->plain ? EncodeSnapshot(*node->plain)
                                : EncodeShardedSnapshot(*node->sharded));
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
  const Node& node = *nodes_[i];
  return node.plain ? node.plain->dbvv() : node.sharded->AggregateDbvv();
}

const Item* World::FindUserItem(size_t index, std::string_view name) const {
  const Node& node = *nodes_[index];
  const Item* item = node.plain ? node.plain->FindItem(name)
                                : node.sharded->FindItem(name);
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
  const Node& node = *nodes_[index];
  if (node.plain) {
    for (const auto& item : node.plain->items()) {
      if (item->HasAux()) return true;
    }
    return false;
  }
  for (size_t k = 0; k < node.sharded->num_shards(); ++k) {
    for (const auto& item : node.sharded->shard(k).items()) {
      if (item->HasAux()) return true;
    }
  }
  return false;
}

}  // namespace epidemic::check
