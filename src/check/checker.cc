#include "check/checker.h"

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <unordered_set>
#include <utility>

namespace epidemic::check {
namespace {

/// How many full sync+pump sweeps per shard the quiescence oracle runs
/// before declaring that the system does not quiesce. With n ≤ 3 honest
/// replicas, n-1 sweeps reach every node transitively (Theorem 5's
/// premise) and a couple more retire auxiliary chains; 16 leaves a wide
/// margin, so hitting the cap means a genuine livelock (e.g. an update
/// loop planted by a mutation). Per shard, because a serve budget can
/// make each sync carry a single shard.
constexpr size_t kMaxClosureSweeps = 16;

/// One DFS state: the production snapshot of every node, plus the two
/// pieces of schedule context that protocol state alone does not carry —
/// which items had a conflict reported on this path, and whether the
/// one-shot tamper mutation already fired.
struct Bundle {
  std::vector<std::string> blobs;
  std::set<std::string> conflicted;  // ordered for deterministic digests
  bool tampered = false;
  uint64_t digest = 0;
};

uint64_t Fnv1a(uint64_t h, std::string_view bytes) {
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

Result<std::unique_ptr<World>> RestoreWorld(const WorldConfig& config,
                                            const Bundle& bundle) {
  return World::Restore(config, bundle.blobs, bundle.tampered);
}

uint64_t DigestOf(World& world, const std::set<std::string>& conflicted) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (size_t i = 0; i < world.num_nodes(); ++i) {
    h = Fnv1a(h, world.NodeCanonicalState(i));
    h = Fnv1a(h, "|");
  }
  for (const std::string& name : conflicted) {
    h = Fnv1a(h, name);
    h = Fnv1a(h, ";");
  }
  h = Fnv1a(h, world.tampered() ? "T" : "t");
  return h;
}

Bundle InitialBundle(const WorldConfig& config) {
  World world(config);
  Bundle bundle;
  bundle.blobs = world.SnapshotBlobs();
  bundle.digest = DigestOf(world, bundle.conflicted);
  return bundle;
}

std::string DescribeVv(const VersionVector& vv) { return vv.ToString(); }

/// Applies `action` to a world restored from `from` and runs every
/// per-transition oracle. Returns OK and fills `next` on success; a non-OK
/// status describes the violation (or infrastructure failure, which the
/// checker also treats as a finding — the snapshot codec is under test via
/// kCrash and state transfer).
Status StepChecked(const WorldConfig& config, const Bundle& from,
                   const Action& action, Bundle* next) {
  auto restored = RestoreWorld(config, from);
  if (!restored.ok()) {
    return Status::Internal("state restore failed: " +
                            restored.status().message());
  }
  World& world = **restored;

  // Pre-state observations for the monotonicity oracles.
  std::vector<VersionVector> pre_dbvv;
  std::vector<std::vector<World::ItemView>> pre_items(world.num_nodes());
  for (size_t i = 0; i < world.num_nodes(); ++i) {
    pre_dbvv.push_back(world.NodeDbvv(i));
    for (uint32_t k = 0; k < config.num_items; ++k) {
      pre_items[i].push_back(world.Observe(i, ItemName(k)));
    }
  }

  Status applied = world.Apply(action);
  if (!applied.ok()) {
    return Status::Internal("action '" + FormatAction(action) +
                            "' failed: " + applied.ToString());
  }

  // Oracle 1: structural invariants (§4.1, log discipline, §5.2 aux).
  Status invariants = world.CheckInvariants();
  if (!invariants.ok()) {
    return Status::Internal("after '" + FormatAction(action) +
                            "': " + invariants.message());
  }

  // Oracle 2: conflict soundness — every event fired must name genuinely
  // concurrent vectors (the "if" half of criterion 1; the "only if" half is
  // the quiescence oracle's divergence-without-conflict check).
  std::set<std::string> conflicted = from.conflicted;
  for (const ConflictEvent& event : world.DrainConflicts()) {
    if (!VersionVector::Conflicts(event.local_vv, event.remote_vv)) {
      return Status::Internal(
          "conflict reported for '" + event.item_name +
          "' on comparable vectors " + DescribeVv(event.local_vv) + " vs " +
          DescribeVv(event.remote_vv) + " after '" + FormatAction(action) +
          "'");
    }
    conflicted.insert(event.item_name);
  }

  // Oracle 3: monotonicity — a replica never un-learns updates (DBVV), and
  // an adopted copy is never dominated by the copy it replaced (IVVs).
  for (size_t i = 0; i < world.num_nodes(); ++i) {
    VersionVector dbvv = world.NodeDbvv(i);
    if (!VersionVector::DominatesOrEqual(dbvv, pre_dbvv[i])) {
      return Status::Internal("node " + std::to_string(i) +
                              " DBVV regressed from " +
                              DescribeVv(pre_dbvv[i]) + " to " +
                              DescribeVv(dbvv) + " after '" +
                              FormatAction(action) + "'");
    }
    for (uint32_t k = 0; k < config.num_items; ++k) {
      const World::ItemView& pre = pre_items[i][k];
      if (!pre.present) continue;
      World::ItemView post = world.Observe(i, ItemName(k));
      if (!post.present) {
        return Status::Internal("node " + std::to_string(i) + " lost item " +
                                ItemName(k) + " after '" +
                                FormatAction(action) + "'");
      }
      if (!VersionVector::DominatesOrEqual(post.ivv, pre.ivv)) {
        return Status::Internal(
            "node " + std::to_string(i) + " item " + ItemName(k) +
            " regular IVV regressed from " + DescribeVv(pre.ivv) + " to " +
            DescribeVv(post.ivv) + " after '" + FormatAction(action) + "'");
      }
      const VersionVector& pre_user = pre.has_aux ? pre.aux_ivv : pre.ivv;
      const VersionVector& post_user =
          post.has_aux ? post.aux_ivv : post.ivv;
      if (!VersionVector::DominatesOrEqual(post_user, pre_user)) {
        return Status::Internal(
            "node " + std::to_string(i) + " item " + ItemName(k) +
            " user-visible IVV regressed from " + DescribeVv(pre_user) +
            " to " + DescribeVv(post_user) + " after '" +
            FormatAction(action) + "'");
      }
    }
  }

  next->blobs = world.SnapshotBlobs();
  next->conflicted = std::move(conflicted);
  next->tampered = world.tampered();
  next->digest = DigestOf(world, next->conflicted);
  return Status::OK();
}

/// The quiescence oracle: from `at`, run sync+pump sweeps to a fixpoint and
/// require either full convergence or divergence confined to items with a
/// reported conflict. Returns the violation description, or empty.
std::string CheckQuiescence(const WorldConfig& config, const Bundle& at) {
  auto restored = RestoreWorld(config, at);
  if (!restored.ok()) {
    return "state restore failed: " + restored.status().message();
  }
  World& world = **restored;
  std::set<std::string> conflicted = at.conflicted;

  auto canon_all = [&] {
    std::string all;
    for (size_t i = 0; i < world.num_nodes(); ++i) {
      all += world.NodeCanonicalState(i);
      all += '|';
    }
    return all;
  };

  // A sync accepts one reply, and a partial reply's continuation is the
  // next sync of the same pair, which the source resumes where the last
  // one stopped (server::ShardedExchange::Serve). So S sweeps in a row
  // that change nothing have offered every shard of every source to every
  // recipient, and only then is the closure at its fixpoint. With one
  // shard, or replies that are never partial, that is one quiet sweep.
  const size_t max_sweeps = kMaxClosureSweeps * config.num_shards;
  std::string prev;
  bool fixpoint = false;
  size_t quiet_sweeps = 0;
  for (size_t sweep = 0; sweep < max_sweeps; ++sweep) {
    for (uint32_t a = 0; a < world.num_nodes(); ++a) {
      for (uint32_t b = 0; b < world.num_nodes(); ++b) {
        if (a == b) continue;
        Status s = world.Apply(Action{ActionKind::kSync, a, b, 0});
        if (!s.ok()) return "closure sync failed: " + s.ToString();
      }
    }
    for (uint32_t a = 0; a < world.num_nodes(); ++a) {
      Status s = world.Apply(Action{ActionKind::kPump, a, 0, 0});
      if (!s.ok()) return "closure pump failed: " + s.ToString();
    }
    for (const ConflictEvent& event : world.DrainConflicts()) {
      conflicted.insert(event.item_name);
    }
    std::string canon = canon_all();
    quiet_sweeps = canon == prev ? quiet_sweeps + 1 : 0;
    if (quiet_sweeps == config.num_shards) {
      fixpoint = true;
      break;
    }
    prev = std::move(canon);
  }
  if (!fixpoint) {
    return "no quiescence: sync/pump closure still changing state after " +
           std::to_string(max_sweeps) + " sweeps";
  }

  bool identical = true;
  for (size_t i = 1; i < world.num_nodes(); ++i) {
    if (world.NodeCanonicalState(i) != world.NodeCanonicalState(0)) {
      identical = false;
      break;
    }
  }
  if (identical) return "";

  // Criterion: quiescence ⇒ identical replicas, except for items on which
  // a conflict was reported (those wait for application-level resolution,
  // §2). Divergence anywhere else means an update was silently lost or
  // mis-adopted.
  if (conflicted.empty()) {
    return "replicas differ at quiescence and no conflict was ever "
           "reported";
  }
  for (uint32_t k = 0; k < config.num_items; ++k) {
    std::string name = ItemName(k);
    World::ItemView first = world.Observe(0, name);
    for (size_t i = 1; i < world.num_nodes(); ++i) {
      if (!(world.Observe(i, name) == first)) {
        if (!conflicted.contains(name)) {
          return "item " + name +
                 " diverged at quiescence without a reported conflict";
        }
        break;
      }
    }
  }
  return "";
}

std::vector<Action> EnumerateActions(const CheckerConfig& config,
                                     World& world) {
  const size_t n = world.num_nodes();
  const uint32_t items = static_cast<uint32_t>(config.world.num_items);
  std::vector<Action> out;
  for (uint32_t a = 0; a < n; ++a) {
    for (uint32_t k = 0; k < items; ++k) {
      out.push_back(Action{ActionKind::kUpdate, a, 0, k});
      if (config.world.with_deletes) {
        out.push_back(Action{ActionKind::kDelete, a, 0, k});
      }
    }
  }
  for (uint32_t a = 0; a < n; ++a) {
    for (uint32_t b = 0; b < n; ++b) {
      if (a != b) out.push_back(Action{ActionKind::kSync, a, b, 0});
    }
  }
  if (config.with_oob) {
    for (uint32_t a = 0; a < n; ++a) {
      for (uint32_t b = 0; b < n; ++b) {
        if (a == b) continue;
        for (uint32_t k = 0; k < items; ++k) {
          // Only fetch what the source can serve; an empty-handed OOB is a
          // guaranteed no-op (NotFound) and would just bloat the frontier.
          if (world.NodeHasItem(b, ItemName(k))) {
            out.push_back(Action{ActionKind::kOob, a, b, k});
          }
        }
      }
    }
  }
  if (config.with_pump) {
    for (uint32_t a = 0; a < n; ++a) {
      if (world.NodeHasAux(a)) out.push_back(Action{ActionKind::kPump, a, 0, 0});
    }
  }
  if (config.with_crash) {
    for (uint32_t a = 0; a < n; ++a) {
      out.push_back(Action{ActionKind::kCrash, a, 0, 0});
    }
  }
  return out;
}

struct DfsContext {
  const CheckerConfig& config;
  std::unordered_set<uint64_t> seen;
  CheckReport report;
  std::vector<Action> path;
};

/// Returns true when a violation was recorded (aborts the search).
bool Dfs(DfsContext& ctx, const Bundle& from, size_t depth) {
  if (depth >= ctx.config.max_depth) return false;
  auto restored = RestoreWorld(ctx.config.world, from);
  if (!restored.ok()) {
    ctx.report.violation = ViolationInfo{
        "state restore failed: " + restored.status().message(), ctx.path};
    return true;
  }
  std::vector<Action> actions = EnumerateActions(ctx.config, **restored);
  restored->reset();  // the step rebuilds its own copy

  for (const Action& action : actions) {
    ctx.path.push_back(action);
    ++ctx.report.transitions;
    Bundle next;
    Status s = StepChecked(ctx.config.world, from, action, &next);
    if (!s.ok()) {
      ctx.report.violation = ViolationInfo{s.message(), ctx.path};
      return true;
    }
    if (!ctx.seen.insert(next.digest).second) {
      ++ctx.report.dedup_hits;
      ctx.path.pop_back();
      continue;
    }
    ++ctx.report.states_explored;
    std::string q = CheckQuiescence(ctx.config.world, next);
    if (!q.empty()) {
      ctx.report.violation = ViolationInfo{std::move(q), ctx.path};
      return true;
    }
    if (Dfs(ctx, next, depth + 1)) return true;
    ctx.path.pop_back();
  }
  return false;
}

}  // namespace

CheckReport RunCheck(const CheckerConfig& config) {
  DfsContext ctx{config, {}, {}, {}};
  Bundle root = InitialBundle(config.world);
  ctx.seen.insert(root.digest);
  ctx.report.states_explored = 1;
  std::string q = CheckQuiescence(config.world, root);
  if (!q.empty()) {
    ctx.report.violation = ViolationInfo{std::move(q), {}};
    return ctx.report;
  }
  Dfs(ctx, root, 0);
  return ctx.report;
}

CheckReport ReplayTrace(const WorldConfig& config,
                        const std::vector<Action>& actions) {
  CheckReport report;
  report.states_explored = 1;
  Bundle state = InitialBundle(config);
  std::vector<Action> path;
  for (const Action& action : actions) {
    path.push_back(action);
    ++report.transitions;
    Bundle next;
    Status s = StepChecked(config, state, action, &next);
    if (!s.ok()) {
      report.violation = ViolationInfo{s.message(), path};
      return report;
    }
    ++report.states_explored;
    state = std::move(next);
  }
  std::string q = CheckQuiescence(config, state);
  if (!q.empty()) report.violation = ViolationInfo{std::move(q), path};
  return report;
}

std::vector<Action> MinimizeTrace(const WorldConfig& config,
                                  std::vector<Action> trace) {
  bool shrunk = true;
  while (shrunk) {
    shrunk = false;
    for (size_t i = 0; i < trace.size(); ++i) {
      std::vector<Action> candidate = trace;
      candidate.erase(candidate.begin() + static_cast<ptrdiff_t>(i));
      if (ReplayTrace(config, candidate).violation.has_value()) {
        trace = std::move(candidate);
        shrunk = true;
        break;
      }
    }
  }
  return trace;
}

}  // namespace epidemic::check
