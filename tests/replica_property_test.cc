// Property-based tests driving the protocol through long randomized
// schedules and checking the §2.1 correctness criteria plus the structural
// invariants of §4 after every step.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/replica.h"
#include "core/snapshot.h"

namespace epidemic {
namespace {

Status OobFetch(Replica& source, Replica& dest, std::string_view item) {
  OobRequest req = dest.BuildOobRequest(item);
  OobResponse resp = source.HandleOobRequest(req);
  return dest.AcceptOobResponse(resp);
}

// A conflict-free world: each node writes only its own key range, so every
// pair of copies is always ordered and the system must converge with zero
// conflicts (criteria 2 and 3 of §2.1 in their strongest form).
class ConflictFreeScheduleTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ConflictFreeScheduleTest, RandomScheduleConvergesWithoutConflicts) {
  const uint64_t seed = GetParam();
  Rng rng(seed);
  const size_t n = 2 + rng.Uniform(4);       // 2..5 nodes
  const size_t items_per_node = 1 + rng.Uniform(5);
  const int steps = 300;

  RecordingConflictListener conflicts;
  std::vector<std::unique_ptr<Replica>> nodes;
  for (NodeId i = 0; i < n; ++i) {
    nodes.push_back(std::make_unique<Replica>(i, n, &conflicts));
  }
  // Ground truth: last value written per item.
  std::map<std::string, std::string> truth;

  uint64_t op_counter = 0;
  for (int step = 0; step < steps; ++step) {
    NodeId actor = static_cast<NodeId>(rng.Uniform(n));
    double dice = rng.NextDouble();
    if (dice < 0.42) {
      // Update an item owned by the actor.
      std::string item = "n" + std::to_string(actor) + "-k" +
                         std::to_string(rng.Uniform(items_per_node));
      std::string value = "v" + std::to_string(++op_counter);
      ASSERT_TRUE(nodes[actor]->Update(item, value).ok());
      truth[item] = value;
    } else if (dice < 0.5) {
      // Delete an item owned by the actor (tombstone update).
      std::string item = "n" + std::to_string(actor) + "-k" +
                         std::to_string(rng.Uniform(items_per_node));
      ASSERT_TRUE(nodes[actor]->Delete(item).ok());
      truth.erase(item);
    } else if (dice < 0.9) {
      // Anti-entropy pull from a random peer.
      NodeId peer = static_cast<NodeId>(rng.Uniform(n));
      if (peer == actor) continue;
      ASSERT_TRUE(PropagateOnce(*nodes[peer], *nodes[actor]).ok());
    } else if (dice < 0.96) {
      // Out-of-bound fetch of a random existing item from a random peer.
      NodeId peer = static_cast<NodeId>(rng.Uniform(n));
      if (peer == actor || truth.empty()) continue;
      auto it = truth.begin();
      std::advance(it, static_cast<long>(rng.Uniform(truth.size())));
      Status s = OobFetch(*nodes[peer], *nodes[actor], it->first);
      ASSERT_TRUE(s.ok() || s.IsNotFound()) << s.ToString();
    } else {
      // "Restart" a node through a snapshot round-trip: the recovered
      // replica must carry the schedule forward indistinguishably.
      auto restored =
          DecodeSnapshot(EncodeSnapshot(*nodes[actor]), &conflicts);
      ASSERT_TRUE(restored.ok())
          << "seed=" << seed << " step=" << step << ": "
          << restored.status().ToString();
      nodes[actor] = std::move(*restored);
    }
    // Structural invariants hold after every step.
    for (const auto& node : nodes) {
      ASSERT_TRUE(node->CheckInvariants().ok())
          << "seed=" << seed << " step=" << step << ": "
          << node->CheckInvariants().ToString();
    }
  }

  // Quiesce: update activity stops; schedule transitive propagation (ring
  // passes) until fixpoint. Criterion 3: everything converges.
  for (size_t round = 0; round < 4 * n; ++round) {
    for (NodeId i = 0; i < n; ++i) {
      NodeId src = static_cast<NodeId>((i + 1) % n);
      ASSERT_TRUE(PropagateOnce(*nodes[src], *nodes[i]).ok());
    }
  }

  EXPECT_EQ(conflicts.count(), 0u) << "seed=" << seed;
  for (NodeId i = 0; i < n; ++i) {
    ASSERT_TRUE(nodes[i]->CheckInvariants().ok());
    EXPECT_EQ(nodes[i]->dbvv(), nodes[0]->dbvv()) << "seed=" << seed;
    // No auxiliary leftovers once everything caught up.
    EXPECT_EQ(nodes[i]->aux_log().size(), 0u) << "seed=" << seed;
    for (const auto& [item, value] : truth) {
      auto read = nodes[i]->Read(item);
      ASSERT_TRUE(read.ok()) << "seed=" << seed << " item=" << item;
      EXPECT_EQ(*read, value)
          << "seed=" << seed << " node=" << i << " item=" << item;
    }
    // Every deleted item reads NotFound everywhere (tombstones won).
    for (const Item& item : nodes[0]->items()) {
      if (item.deleted) {
        EXPECT_TRUE(nodes[i]->Read(item.name).status().IsNotFound())
            << "seed=" << seed << " node=" << i << " item=" << item.name;
      }
    }
  }

  // And once converged, every pairwise exchange is a constant-time no-op.
  for (NodeId i = 0; i < n; ++i) {
    for (NodeId j = 0; j < n; ++j) {
      if (i == j) continue;
      nodes[j]->ResetStats();
      auto copied = PropagateOnce(*nodes[j], *nodes[i]);
      ASSERT_TRUE(copied.ok());
      EXPECT_EQ(*copied, 0u);
      EXPECT_EQ(nodes[j]->stats().you_are_current_replies, 1u);
      EXPECT_EQ(nodes[j]->stats().log_records_selected, 0u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConflictFreeScheduleTest,
                         ::testing::Range(uint64_t{1}, uint64_t{13}));

// An adversarial world: all nodes write the same small key space, so
// conflicts are common. The protocol must keep its structural invariants,
// detect (not mask) conflicts, and never adopt a non-dominating copy.
class ConflictingScheduleTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ConflictingScheduleTest, InvariantsHoldAndConflictsAreDetectedNotMasked) {
  const uint64_t seed = GetParam();
  Rng rng(seed * 7919);
  const size_t n = 2 + rng.Uniform(3);
  const int steps = 250;

  RecordingConflictListener conflicts;
  std::vector<std::unique_ptr<Replica>> nodes;
  for (NodeId i = 0; i < n; ++i) {
    nodes.push_back(std::make_unique<Replica>(i, n, &conflicts));
  }
  // All values ever written, for the no-corruption check.
  std::map<std::string, std::vector<std::string>> written;

  uint64_t op_counter = 0;
  for (int step = 0; step < steps; ++step) {
    NodeId actor = static_cast<NodeId>(rng.Uniform(n));
    if (rng.NextDouble() < 0.45) {
      std::string item = "k" + std::to_string(rng.Uniform(3));  // tiny space
      std::string value = "v" + std::to_string(++op_counter) + "@" +
                          std::to_string(actor);
      ASSERT_TRUE(nodes[actor]->Update(item, value).ok());
      written[item].push_back(value);
    } else {
      NodeId peer = static_cast<NodeId>(rng.Uniform(n));
      if (peer == actor) continue;
      ASSERT_TRUE(PropagateOnce(*nodes[peer], *nodes[actor]).ok());
    }
    for (const auto& node : nodes) {
      ASSERT_TRUE(node->CheckInvariants().ok())
          << "seed=" << seed << " step=" << step;
    }
  }

  // Every visible value must be something some client actually wrote —
  // update propagation can reorder visibility but never invent data.
  for (const auto& node : nodes) {
    for (const auto& [item, values] : written) {
      auto read = node->Read(item);
      if (!read.ok()) continue;  // node may not have heard of the item
      if (read->empty()) continue;  // never-updated regular copy
      bool known = false;
      for (const auto& v : values) known |= (v == *read);
      EXPECT_TRUE(known) << "seed=" << seed << " item=" << item
                         << " phantom value '" << *read << "'";
    }
  }

  // With this much same-key concurrency, conflicts must have been detected
  // (never silently merged) in at least one schedule step.
  if (n >= 2) {
    EXPECT_GT(conflicts.count() + 0u, 0u) << "seed=" << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConflictingScheduleTest,
                         ::testing::Range(uint64_t{1}, uint64_t{9}));

}  // namespace
}  // namespace epidemic
