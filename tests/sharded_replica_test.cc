// ShardedReplica: routing, the S=1 equivalence property (a sharded replica
// with one shard must be observably identical to a plain Replica on any
// workload), multi-shard convergence, the sharded snapshot container, the
// sharded wire messages, and durable per-shard journaling. Every sharded
// exchange here is the daemon's (server::ShardedExchange) on an inline
// scheduler, so the replies are the frames an epidemicd sends.

#include "core/sharded_replica.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "core/conflict.h"
#include "core/journal.h"
#include "core/replica.h"
#include "core/snapshot.h"
#include "core/wire.h"
#include "net/codec.h"
#include "server/sharded_exchange.h"

namespace epidemic {
namespace {

using server::DecodeReplyFrame;
using server::kServeBudgetBytes;
using server::PullSharded;
using server::ShardedExchange;

// ---------------------------------------------------------------------------
// Routing.

TEST(ShardOfTest, StableInRangeAndDegenerateForOneShard) {
  for (int i = 0; i < 1000; ++i) {
    std::string name = "item-" + std::to_string(i);
    size_t shard = ShardedReplica::ShardOf(name, 16);
    EXPECT_LT(shard, 16u);
    EXPECT_EQ(shard, ShardedReplica::ShardOf(name, 16));  // deterministic
    EXPECT_EQ(ShardedReplica::ShardOf(name, 1), 0u);
  }
}

// The shard map decides which shard directory and snapshot section holds
// an item, so it must never change: these are the values the table CRC-32C
// gave before Crc32c used the SSE4.2 instruction.
TEST(ShardOfTest, ShardMapIsPinned) {
  const std::vector<std::pair<std::string, size_t>> pinned = {
      {"a", 0},
      {"greet", 14},
      {"x", 3},
      {"hot", 11},
      {"k0", 4},
      {"q.k0", 14},
      {"q.k1", 13},
      {"q.k99999", 11},
      {"b.k1234", 9},
      {"z.k42", 11},
      {"item-7", 0},
      {"123456789", 3},
      {"a-name-longer-than-fifteen-bytes", 11},
      {"a name of exactly 24 B..", 10},
  };
  for (const auto& [name, shard] : pinned) {
    EXPECT_EQ(ShardedReplica::ShardOf(name, 16), shard) << name;
  }
}

TEST(ShardOfTest, SpreadsKeysAcrossAllShards) {
  constexpr size_t kShards = 16;
  std::vector<size_t> count(kShards, 0);
  for (int i = 0; i < 2000; ++i) {
    ++count[ShardedReplica::ShardOf("key/" + std::to_string(i), kShards)];
  }
  for (size_t k = 0; k < kShards; ++k) {
    // Very loose bound — we only care that the hash is not degenerate.
    EXPECT_GT(count[k], 2000u / kShards / 4) << "shard " << k << " starved";
  }
}

// ---------------------------------------------------------------------------
// Equivalence property: drive a plain 2-node Replica pair and a sharded
// pair through the same random workload and assert every observable
// matches. With S=1 the sharded replica *is* one engine behind a router;
// with S>1 the observables must still match because shards partition the
// item space and each item's protocol history is untouched.

class EquivalenceHarness {
 public:
  explicit EquivalenceHarness(size_t num_shards)
      : strict_conflicts_(num_shards == 1),
        plain_{Replica(0, 2, &plain_listener_[0]),
               Replica(1, 2, &plain_listener_[1])},
        sharded_{ShardedReplica(0, 2, num_shards, &sharded_listener_[0]),
                 ShardedReplica(1, 2, num_shards, &sharded_listener_[1])},
        exchange_{{sharded_[0], pool_}, {sharded_[1], pool_}} {}

  void Update(int node, const std::string& name, const std::string& value) {
    Status a = plain_[node].Update(name, value);
    Status b = sharded_[node].Update(name, value);
    ASSERT_EQ(a.ToString(), b.ToString());
  }

  void Delete(int node, const std::string& name) {
    Status a = plain_[node].Delete(name);
    Status b = sharded_[node].Delete(name);
    ASSERT_EQ(a.ToString(), b.ToString());
  }

  void CompareRead(int node, const std::string& name) {
    Result<std::string> a = plain_[node].Read(name);
    Result<std::string> b = sharded_[node].Read(name);
    ASSERT_EQ(a.ok(), b.ok()) << name;
    if (a.ok()) {
      EXPECT_EQ(*a, *b) << name;
    } else {
      EXPECT_EQ(a.status().ToString(), b.status().ToString()) << name;
    }
  }

  void Propagate(int source, int recipient) {
    auto a = PropagateOnce(plain_[source], plain_[recipient]);
    auto b = PullSharded(exchange_[recipient], exchange_[source]);
    ASSERT_EQ(a.ok(), b.ok());
    if (a.ok()) {
      EXPECT_EQ(*a, *b) << "items copied diverged";
    }
  }

  void CompareEverything() {
    for (int node = 0; node < 2; ++node) {
      Replica& p = plain_[node];
      ShardedReplica& s = sharded_[node];
      ASSERT_TRUE(p.CheckInvariants().ok());
      ASSERT_TRUE(s.CheckInvariants().ok()) << s.DebugString();
      EXPECT_EQ(s.AggregateDbvv(), p.dbvv());
      EXPECT_EQ(s.Scan(""), p.Scan(""));
      EXPECT_EQ(s.Scan("item-1", 3), p.Scan("item-1", 3));
      EXPECT_EQ(s.TotalItems(), p.items().size());
      EXPECT_EQ(s.TotalStats().items_adopted, p.stats().items_adopted);
      EXPECT_EQ(s.TotalStats().updates_regular, p.stats().updates_regular);
      if (strict_conflicts_) {
        EXPECT_EQ(s.TotalStats().conflicts_detected,
                  p.stats().conflicts_detected);
        EXPECT_EQ(sharded_listener_[node].events().size(),
                  plain_listener_[node].events().size());
      } else {
        // With S>1 the per-shard DBVVs are finer-grained: a conflicting
        // item whose dropped log record gets masked (in the plain replica)
        // by later adoptions of the same origin is legitimately re-shipped
        // and re-*detected* by the sharded one. The database state stays
        // identical; only the detection count can be higher.
        EXPECT_GE(s.TotalStats().conflicts_detected,
                  p.stats().conflicts_detected);
        EXPECT_GE(sharded_listener_[node].events().size(),
                  plain_listener_[node].events().size());
      }
    }
  }

  /// Resolves, at node 0 on each twin, every conflict reported since the
  /// last call, with a value determined by the item name alone. Each twin
  /// drains its own event list (with S>1 the sharded twin may have re-
  /// detections); stale events fail as no-ops, and since the workload has
  /// stopped by resolution time, each item resolves successfully at most
  /// once per twin with identical IVV arithmetic — so the twins still end
  /// in the same state.
  void ResolveNewConflicts() {
    const auto& pe = plain_listener_[0].events();
    const auto& se = sharded_listener_[0].events();
    for (; plain_resolved_ < pe.size(); ++plain_resolved_) {
      const ConflictEvent& e = pe[plain_resolved_];
      (void)plain_[0].ResolveConflict(e.item_name, e.remote_vv,
                                      "merged:" + e.item_name);
    }
    for (; sharded_resolved_ < se.size(); ++sharded_resolved_) {
      const ConflictEvent& e = se[sharded_resolved_];
      (void)sharded_[0].ResolveConflict(e.item_name, e.remote_vv,
                                        "merged:" + e.item_name);
    }
  }

  Replica& plain(int node) { return plain_[node]; }
  ShardedReplica& sharded(int node) { return sharded_[node]; }

 private:
  const bool strict_conflicts_;
  size_t plain_resolved_ = 0;    // events already resolved at plain node 0
  size_t sharded_resolved_ = 0;  // events already resolved at sharded node 0
  RecordingConflictListener plain_listener_[2];
  RecordingConflictListener sharded_listener_[2];
  Replica plain_[2];
  ShardedReplica sharded_[2];
  BufferPool pool_;
  ShardedExchange exchange_[2];
};

void RunRandomWorkload(EquivalenceHarness& h, uint32_t seed) {
  std::mt19937 rng(seed);
  auto pick_name = [&rng] {
    return "item-" + std::to_string(rng() % 24);
  };
  for (int op = 0; op < 300; ++op) {
    int node = static_cast<int>(rng() % 2);
    switch (rng() % 10) {
      case 0:
      case 1:
      case 2:
      case 3:  // 40% update
        h.Update(node, pick_name(), "v" + std::to_string(rng() % 1000));
        break;
      case 4:  // 10% delete
        h.Delete(node, pick_name());
        break;
      case 5:
      case 6:  // 20% read
        h.CompareRead(node, pick_name());
        break;
      case 7:
      case 8:  // 20% anti-entropy in a random direction
        h.Propagate(node, 1 - node);
        break;
      default:  // 10% full observable comparison mid-flight
        h.CompareEverything();
        break;
    }
    if (::testing::Test::HasFatalFailure()) return;
  }
  // Converge: exchange until quiet, resolving surviving conflicts at node
  // 0 (a resolution dominates both branches, so it sticks system-wide once
  // shipped), then do the final deep comparison.
  for (int round = 0; round < 20; ++round) {
    h.Propagate(0, 1);
    h.Propagate(1, 0);
    h.ResolveNewConflicts();
    if (::testing::Test::HasFatalFailure()) return;
  }
  h.Propagate(0, 1);
  h.Propagate(1, 0);
  h.CompareEverything();
  EXPECT_EQ(h.sharded(0).AggregateDbvv(), h.sharded(1).AggregateDbvv());
  EXPECT_EQ(h.sharded(0).Scan(""), h.sharded(1).Scan(""));
}

TEST(ShardedEquivalenceTest, SingleShardMatchesPlainReplicaOnRandomWorkloads) {
  for (uint32_t seed : {7u, 21u, 99u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    EquivalenceHarness h(/*num_shards=*/1);
    RunRandomWorkload(h, seed);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(ShardedEquivalenceTest, FourShardsMatchPlainReplicaOnRandomWorkloads) {
  for (uint32_t seed : {13u, 42u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    EquivalenceHarness h(/*num_shards=*/4);
    RunRandomWorkload(h, seed);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// ---------------------------------------------------------------------------
// Multi-shard behaviour in its own right.

TEST(ShardedReplicaTest, SixteenShardTwoNodeConvergence) {
  ShardedReplica a(0, 2, 16), b(1, 2, 16);
  BufferPool pool;
  ShardedExchange ea(a, pool), eb(b, pool);
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(a.Update("a/" + std::to_string(i), "va" + std::to_string(i))
                    .ok());
  }
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(b.Update("b/" + std::to_string(i), "vb" + std::to_string(i))
                    .ok());
  }
  auto copied_ab = PullSharded(eb, ea);
  ASSERT_TRUE(copied_ab.ok()) << copied_ab.status().ToString();
  EXPECT_EQ(*copied_ab, 200u);
  auto copied_ba = PullSharded(ea, eb);
  ASSERT_TRUE(copied_ba.ok());
  EXPECT_EQ(*copied_ba, 100u);

  EXPECT_EQ(a.AggregateDbvv(), b.AggregateDbvv());
  EXPECT_EQ(a.TotalItems(), 300u);
  EXPECT_EQ(a.Scan(""), b.Scan(""));
  // Per-shard §4.1 invariants, shard by shard, then the aggregate check.
  for (size_t k = 0; k < a.num_shards(); ++k) {
    EXPECT_TRUE(a.shard(k).CheckInvariants().ok()) << "shard " << k;
    EXPECT_TRUE(b.shard(k).CheckInvariants().ok()) << "shard " << k;
    EXPECT_EQ(a.shard(k).dbvv(), b.shard(k).dbvv()) << "shard " << k;
  }
  EXPECT_TRUE(a.CheckInvariants().ok());
  EXPECT_TRUE(b.CheckInvariants().ok());

  // A second exchange finds every shard current: the reply carries zero
  // segments (the O(S) handshake short-circuit).
  const std::string frame = ea.ServeFrame(eb.Handshake());
  wire::ShardedResponseEnvelopeView env;
  ASSERT_TRUE(DecodeReplyFrame(frame, &env).ok());
  EXPECT_TRUE(env.segments.empty());
}

TEST(ShardedReplicaTest, UnchangedShardsAreOmittedFromTheReply) {
  ShardedReplica a(0, 2, 8), b(1, 2, 8);
  BufferPool pool;
  ShardedExchange ea(a, pool), eb(b, pool);
  ASSERT_TRUE(PullSharded(eb, ea).ok());
  // One fresh update dirties exactly one shard.
  ASSERT_TRUE(a.Update("solo", "v").ok());
  const std::string frame = ea.ServeFrame(eb.Handshake());
  wire::ShardedResponseEnvelopeView env;
  ASSERT_TRUE(DecodeReplyFrame(frame, &env).ok());
  ASSERT_EQ(env.segments.size(), 1u);
  EXPECT_EQ(env.segments[0].shard, static_cast<uint32_t>(a.ShardOf("solo")));
}

// ---------------------------------------------------------------------------
// The serve budget: replies carry whole shards and continue.

// Accepts one reply of `source` to `recipient`'s handshake and checks it
// against the budget: every segment is a whole shard (its shard at the
// recipient ends equal to the source's), and the pieces before the last
// stay below `budget`. Returns the reply's partial flag.
bool AcceptOneBudgetedReply(ShardedExchange& recipient,
                            ShardedExchange& source, size_t budget) {
  const std::string frame = source.ServeFrame(recipient.Handshake());
  wire::ShardedResponseEnvelopeView env;
  EXPECT_TRUE(DecodeReplyFrame(frame, &env).ok());
  EXPECT_FALSE(env.segments.empty());
  size_t before_last = 0;
  for (size_t i = 0; i + 1 < env.segments.size(); ++i) {
    // A piece is [shard varint][5-byte padded length][body].
    before_last += 1 + 5 + env.segments[i].body.size();
  }
  EXPECT_LT(before_last, budget);
  EXPECT_TRUE(recipient.Accept(env.num_shards, env.segments).ok());
  for (const wire::ShardedSegmentView& seg : env.segments) {
    EXPECT_EQ(recipient.replica().shard(seg.shard).dbvv(),
              source.replica().shard(seg.shard).dbvv())
        << "shard " << seg.shard << " arrived in part";
  }
  EXPECT_TRUE(recipient.replica().CheckInvariants().ok());
  return env.partial();
}

TEST(ServeBudgetTest, OneByteBudgetShipsOneWholeShardPerReply) {
  ShardedReplica a(0, 2, 16), b(1, 2, 16);
  BufferPool pool;
  ShardedExchange ea(a, pool, /*serve_budget=*/1), eb(b, pool);
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(a.Update("a/" + std::to_string(i), "v").ok());
  }
  size_t stale = 0;
  for (size_t k = 0; k < a.num_shards(); ++k) {
    if (a.shard(k).dbvv() != b.shard(k).dbvv()) ++stale;
  }
  ASSERT_GT(stale, 1u);
  // Every reply but the last is partial and carries exactly one segment.
  size_t replies = 0;
  bool partial = true;
  while (partial) {
    ASSERT_LT(replies, stale) << "more replies than stale shards";
    const std::string frame = ea.ServeFrame(eb.Handshake());
    wire::ShardedResponseEnvelopeView env;
    ASSERT_TRUE(DecodeReplyFrame(frame, &env).ok());
    ASSERT_EQ(env.segments.size(), 1u);
    ASSERT_TRUE(eb.Accept(env.num_shards, env.segments).ok());
    ASSERT_TRUE(b.CheckInvariants().ok());
    partial = env.partial();
    ++replies;
  }
  EXPECT_EQ(replies, stale);
  EXPECT_EQ(a.AggregateDbvv(), b.AggregateDbvv());
  EXPECT_EQ(a.Scan(""), b.Scan(""));

  // PullSharded continues on its own: one call is one complete pull.
  ShardedReplica c(1, 2, 16);
  ShardedExchange ec(c, pool);
  auto copied = PullSharded(ec, ea);
  ASSERT_TRUE(copied.ok()) << copied.status().ToString();
  EXPECT_EQ(*copied, 200u);
  EXPECT_EQ(c.Scan(""), a.Scan(""));
}

TEST(ServeBudgetTest, LargeCatchUpRepliesStayWithinTheDefaultBudget) {
  // 100 000 items of 256 B: about 27 MB of tails, so the default budget
  // splits the catch-up into several replies.
  ShardedReplica a(0, 3, 16), b(1, 3, 16);
  BufferPool pool;
  ShardedExchange ea(a, pool), eb(b, pool);
  const std::string value(256, 'v');
  for (int i = 0; i < 100000; ++i) {
    ASSERT_TRUE(a.Update("q.k" + std::to_string(i), value).ok());
  }
  size_t replies = 0;
  bool partial = true;
  while (partial) {
    ASSERT_LT(replies, a.num_shards());
    partial = AcceptOneBudgetedReply(eb, ea, kServeBudgetBytes);
    if (::testing::Test::HasFailure()) return;
    ++replies;
  }
  EXPECT_GT(replies, 1u);
  EXPECT_EQ(a.AggregateDbvv(), b.AggregateDbvv());
  EXPECT_EQ(b.TotalItems(), 100000u);
}

TEST(ServeBudgetTest, SkippedShardsWaitForTheNextHandshake) {
  // A shard written between two steps is served by a later step: the
  // budget only delays it.
  ShardedReplica a(0, 2, 4), b(1, 2, 4);
  BufferPool pool;
  ShardedExchange ea(a, pool, /*serve_budget=*/1), eb(b, pool);
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(a.Update("k" + std::to_string(i), "v1").ok());
  }
  ASSERT_TRUE(AcceptOneBudgetedReply(eb, ea, 1));
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(a.Update("k" + std::to_string(i), "v2").ok());
  }
  ASSERT_TRUE(PullSharded(eb, ea).ok());
  EXPECT_EQ(a.AggregateDbvv(), b.AggregateDbvv());
  EXPECT_EQ(a.Scan(""), b.Scan(""));
  EXPECT_TRUE(b.CheckInvariants().ok());
}

// A shard that stays stale however often it ships — an unresolved
// conflict (Fig. 3) — does not starve the shards after it: the next serve
// to the same requester resumes where the partial reply stopped.
TEST(ServeBudgetTest, ConflictedShardDoesNotStarveTheShardsAfterIt) {
  ShardedReplica a(0, 2, 16), b(1, 2, 16);
  BufferPool pool;
  ShardedExchange ea(a, pool, /*serve_budget=*/1), eb(b, pool);
  ASSERT_EQ(a.ShardOf("a"), 0u);
  ASSERT_EQ(a.ShardOf("x"), 3u);
  ASSERT_TRUE(a.Update("a", "from-a").ok());
  ASSERT_TRUE(b.Update("a", "from-b").ok());  // concurrent: a conflict
  ASSERT_TRUE(a.Update("x", "v").ok());
  auto copied = PullSharded(eb, ea);
  ASSERT_TRUE(copied.ok()) << copied.status().ToString();
  EXPECT_EQ(*copied, 1u);
  EXPECT_EQ(*b.Read("x"), "v");
  EXPECT_EQ(*b.Read("a"), "from-b");
  EXPECT_GT(b.TotalStats().conflicts_detected, 0u);
  EXPECT_TRUE(b.CheckInvariants().ok());
}

// ---------------------------------------------------------------------------
// Sharded wire messages through the codec.

TEST(ShardedWireTest, MismatchedShardCountIsRejectedBeforeAnyStateChanges) {
  ShardedReplica four(0, 2, 4), eight(1, 2, 8);
  BufferPool pool;
  ShardedExchange e4(four, pool), e8(eight, pool);
  ASSERT_TRUE(eight.Update("x", "v").ok());
  // `four` asks `eight`: the source notices the shard-count mismatch and
  // replies with its own count and no segments; the requester refuses it.
  const std::string frame = e8.ServeFrame(e4.Handshake());
  wire::ShardedResponseEnvelopeView env;
  ASSERT_TRUE(DecodeReplyFrame(frame, &env).ok());
  EXPECT_EQ(env.num_shards, 8u);
  EXPECT_TRUE(env.segments.empty());
  Status s = e4.AcceptFrame(frame);
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
  EXPECT_TRUE(PullSharded(e4, e8).status().IsInvalidArgument());
  EXPECT_EQ(four.TotalItems(), 0u);
  EXPECT_TRUE(four.CheckInvariants().ok());
}

TEST(ShardedWireTest, RequestAndResponseSurviveTheCodec) {
  // The full exchange over tags 17/18.
  ShardedReplica a(0, 3, 4), b(1, 3, 4);
  BufferPool pool;
  ShardedExchange ea(a, pool), eb(b, pool);
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(
        b.Update("k" + std::to_string(i), "v" + std::to_string(i)).ok());
  }
  std::string req_wire = net::Encode(net::Message(ea.Handshake()));
  auto req = net::Decode(req_wire);
  ASSERT_TRUE(req.ok()) << req.status().ToString();
  const auto& decoded_req = std::get<ShardedPropagationRequest>(*req);
  EXPECT_EQ(decoded_req.flags, 0);

  // The served frame decodes through the owned codec too (padded count and
  // lengths included), and applies through the zero-copy accept.
  const std::string frame = eb.ServeFrame(decoded_req);
  auto resp = net::Decode(frame);
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(std::get<ShardedPropagationResponse>(*resp).segments.size(), 4u);
  ASSERT_TRUE(ea.AcceptFrame(frame).ok());
  EXPECT_EQ(a.AggregateDbvv(), b.AggregateDbvv());
  EXPECT_EQ(a.Scan(""), b.Scan(""));
  EXPECT_TRUE(a.CheckInvariants().ok());
}

TEST(ShardedWireV3Test, BufferPoolIsRecycledAcrossRounds) {
  ShardedReplica a(0, 2, 4), b(1, 2, 4);
  BufferPool pool;
  ShardedExchange ea(a, pool), eb(b, pool);
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 8; ++i) {
      ASSERT_TRUE(
          a.Update("r" + std::to_string(round) + "/" + std::to_string(i), "v")
              .ok());
    }
    ASSERT_TRUE(PullSharded(eb, ea).ok());
  }
  // Rounds after the first reuse the returned reply pieces.
  EXPECT_GT(pool.stats().hits, 0u);
  EXPECT_GT(pool.stats().returns, 0u);
  EXPECT_EQ(a.Scan(""), b.Scan(""));
}

// ---------------------------------------------------------------------------
// Sharded snapshots.

TEST(ShardedSnapshotTest, RoundTripRestoresEveryShard) {
  RecordingConflictListener listener;
  ShardedReplica original(2, 3, 8);
  for (int i = 0; i < 120; ++i) {
    ASSERT_TRUE(original
                    .Update("snap/" + std::to_string(i),
                            "v" + std::to_string(i))
                    .ok());
  }
  ASSERT_TRUE(original.Delete("snap/7").ok());
  original.ResetStats();  // counters are not part of a snapshot

  std::string blob = EncodeShardedSnapshot(original);
  auto restored = DecodeShardedSnapshot(blob, &listener);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ((*restored)->num_shards(), 8u);
  EXPECT_EQ((*restored)->id(), original.id());
  EXPECT_EQ((*restored)->AggregateDbvv(), original.AggregateDbvv());
  EXPECT_EQ((*restored)->Scan(""), original.Scan(""));
  EXPECT_EQ((*restored)->TotalItems(), original.TotalItems());
  EXPECT_TRUE((*restored)->CheckInvariants().ok());
  EXPECT_EQ((*restored)->DebugString(), original.DebugString());
}

TEST(ShardedSnapshotTest, CorruptionAndTruncationAreDetected) {
  ShardedReplica original(0, 2, 4);
  ASSERT_TRUE(original.Update("x", "value").ok());
  std::string blob = EncodeShardedSnapshot(original);

  std::string flipped = blob;
  flipped[flipped.size() / 2] ^= 0x20;
  EXPECT_FALSE(DecodeShardedSnapshot(flipped).ok());

  EXPECT_FALSE(DecodeShardedSnapshot(blob.substr(0, blob.size() - 3)).ok());
  EXPECT_FALSE(DecodeShardedSnapshot("EPISNAP1not-sharded").ok());
}

// ---------------------------------------------------------------------------
// Durable sharded replica: per-shard journals under one directory.

class JournaledShardedTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/journaled_sharded_test_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string dir_;
};

TEST_F(JournaledShardedTest, UpdatesAcrossShardsSurviveRestart) {
  {
    auto db = ShardedReplica::Open(dir_, 0, 2, 4);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    for (int i = 0; i < 40; ++i) {
      ASSERT_TRUE(
          (*db)->Update("d" + std::to_string(i), "v" + std::to_string(i))
              .ok());
    }
    ASSERT_TRUE((*db)->Delete("d3").ok());
  }  // crash: no checkpoint

  auto recovered = ShardedReplica::Open(dir_, 0, 2, 4);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(*(*recovered)->Read("d5"), "v5");
  EXPECT_FALSE((*recovered)->Read("d3").ok());  // tombstoned
  EXPECT_EQ((*recovered)->TotalItems(), 40u);   // tombstone counts
  EXPECT_TRUE((*recovered)->CheckInvariants().ok());
}

TEST_F(JournaledShardedTest, CheckpointTruncatesAndRecoveryStillWorks) {
  {
    auto db = ShardedReplica::Open(dir_, 0, 2, 4);
    ASSERT_TRUE(db.ok());
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE((*db)->Update("c" + std::to_string(i), "v1").ok());
    }
    for (size_t k = 0; k < (*db)->num_shards(); ++k) {
      ASSERT_TRUE((*db)->shard(k).Checkpoint().ok());
      EXPECT_EQ((*db)->shard(k).journal()->records_since_checkpoint(), 0u);
    }
    ASSERT_TRUE((*db)->Update("c0", "v2").ok());  // post-checkpoint tail
  }
  auto recovered = ShardedReplica::Open(dir_, 0, 2, 4);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(*(*recovered)->Read("c0"), "v2");
  EXPECT_EQ(*(*recovered)->Read("c19"), "v1");
  EXPECT_TRUE((*recovered)->CheckInvariants().ok());
}

TEST_F(JournaledShardedTest, ReopeningWithADifferentShardCountIsRefused) {
  {
    auto db = ShardedReplica::Open(dir_, 0, 2, 4);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->Update("x", "v").ok());
  }
  auto wrong = ShardedReplica::Open(dir_, 0, 2, 8);
  EXPECT_TRUE(wrong.status().IsInvalidArgument())
      << wrong.status().ToString();
  // The pinned count still opens fine.
  auto right = ShardedReplica::Open(dir_, 0, 2, 4);
  ASSERT_TRUE(right.ok()) << right.status().ToString();
  EXPECT_EQ(*(*right)->Read("x"), "v");
}

TEST_F(JournaledShardedTest, JournaledResolveConflictSurvivesRestart) {
  // Manufacture a genuine conflict: a concurrent remote copy arrives for an
  // item this node also wrote, then the conflict is resolved and the
  // journal replayed.
  {
    RecordingConflictListener listener;
    auto db = ShardedReplica::Open(dir_, 0, 2, 2, &listener);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    ASSERT_TRUE((*db)->Update("doc", "local").ok());

    Replica remote(1, 2);
    ASSERT_TRUE(remote.Update("doc", "remote").ok());
    size_t shard = (*db)->ShardOf("doc");
    const PropagationResponseView& view = remote.HandlePropagationView(
        (*db)->shard(shard).BuildPropagationRequest());
    ByteWriter segment;
    wire::EncodeShardSegmentBodyV3Into(segment, view, remote.dbvv());
    ASSERT_TRUE(
        (*db)->AcceptShardPropagationSegmentV3(shard, segment.data()).ok());
    ASSERT_EQ(listener.events().size(), 1u);

    Status resolved = (*db)->ResolveConflict(
        "doc", listener.events()[0].remote_vv, "merged");
    ASSERT_TRUE(resolved.ok()) << resolved.ToString();
    EXPECT_EQ(*(*db)->Read("doc"), "merged");
  }
  auto recovered = ShardedReplica::Open(dir_, 0, 2, 2);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(*(*recovered)->Read("doc"), "merged");
  EXPECT_TRUE((*recovered)->CheckInvariants().ok());
}

}  // namespace
}  // namespace epidemic
