// Equivalence property: the shard-owned task runtime is a scheduling
// change, not a semantic one. The same deterministic action sequence is
// applied to a bare ShardedReplica (the pre-runtime baseline) and to a
// ReplicaServer running the sequence as scheduler tasks; the resulting
// CanonicalState must be byte-identical — at S=1 and S=16, each with
// inline gates (workers=0, the old striped configuration) and with owner
// worker threads (workers=2). Read results are compared op-by-op too, and
// so are the bytes of one full sharded serve: the one serve path must
// produce the same frame in every scheduler mode.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "common/random.h"
#include "core/sharded_replica.h"
#include "net/codec.h"
#include "net/inproc_transport.h"
#include "server/replica_server.h"

namespace epidemic::server {
namespace {

constexpr size_t kNumNodes = 3;
constexpr uint64_t kSeed = 0xeb1d0c5eedULL;

enum class OpKind { kUpdate, kDelete, kRead };

struct Op {
  OpKind kind;
  std::string key;
  std::string value;
};

/// Deterministic workload: a fixed seed over a small key pool, weighted
/// toward updates so deletes hit both live and absent items.
std::vector<Op> MakeWorkload(size_t num_ops) {
  Rng rng(kSeed);
  std::vector<Op> ops;
  ops.reserve(num_ops);
  for (size_t i = 0; i < num_ops; ++i) {
    Op op;
    op.key = "item-" + std::to_string(rng.Uniform(32));
    const uint64_t roll = rng.Uniform(10);
    if (roll < 6) {
      op.kind = OpKind::kUpdate;
      op.value = op.key + "=v" + std::to_string(i);
    } else if (roll < 8) {
      op.kind = OpKind::kDelete;
    } else {
      op.kind = OpKind::kRead;
    }
    ops.push_back(std::move(op));
  }
  return ops;
}

/// Runs the workload against the bare core and returns its CanonicalState
/// plus every read outcome ("<value>" or "" for not-found).
std::string RunBaseline(const std::vector<Op>& ops, size_t num_shards,
                        std::vector<std::string>* reads) {
  ShardedReplica replica(/*id=*/0, kNumNodes, num_shards);
  for (const Op& op : ops) {
    switch (op.kind) {
      case OpKind::kUpdate:
        EXPECT_TRUE(replica.Update(op.key, op.value).ok()) << op.key;
        break;
      case OpKind::kDelete: {
        Status s = replica.Delete(op.key);
        EXPECT_TRUE(s.ok() || s.IsNotFound()) << s.ToString();
        break;
      }
      case OpKind::kRead: {
        Result<std::string> r = replica.Read(op.key);
        reads->push_back(r.ok() ? *r : "");
        break;
      }
    }
  }
  return replica.CanonicalState();
}

/// Runs the same workload through a ReplicaServer (every op, reads
/// included, a scheduler task), then serves one fixed full handshake — a
/// requester holding nothing — into `serve_reply`.
std::string RunServer(const std::vector<Op>& ops, size_t num_shards,
                      size_t workers, std::vector<std::string>* reads,
                      std::string* serve_reply) {
  net::InProcHub hub(kNumNodes);
  net::InProcTransport transport(&hub);
  ReplicaServer::Options options;
  options.num_shards = num_shards;
  options.ae_workers = workers;
  ReplicaServer server(/*id=*/0, kNumNodes, &transport, options);

  for (const Op& op : ops) {
    switch (op.kind) {
      case OpKind::kUpdate:
        EXPECT_TRUE(server.Update(op.key, op.value).ok()) << op.key;
        break;
      case OpKind::kDelete: {
        Status s = server.Delete(op.key);
        EXPECT_TRUE(s.ok() || s.IsNotFound()) << s.ToString();
        break;
      }
      case OpKind::kRead: {
        Result<std::string> r = server.Read(op.key);
        reads->push_back(r.ok() ? *r : "");
        break;
      }
    }
  }

  ShardedPropagationRequest full;
  full.requester = 1;
  full.shard_dbvvs.assign(num_shards, VersionVector(kNumNodes));
  *serve_reply = server.HandleRequest(net::Encode(net::Message(full)));

  std::string state;
  server.WithReplica(
      [&state](const ShardedReplica& r) { state = r.CanonicalState(); });
  return state;
}

class SchedulerEquivalenceTest : public ::testing::TestWithParam<size_t> {};

TEST_P(SchedulerEquivalenceTest, ServerMatchesBareCoreAcrossConfigs) {
  const size_t num_shards = GetParam();
  const std::vector<Op> ops = MakeWorkload(600);

  std::vector<std::string> baseline_reads;
  const std::string baseline = RunBaseline(ops, num_shards, &baseline_reads);
  ASSERT_FALSE(baseline.empty());

  struct Config {
    size_t workers;
    const char* label;
  };
  const Config configs[] = {
      {0, "inline gates (striped-equivalent)"},
      {2, "owner workers"},
  };
  std::string first_reply;
  for (const Config& config : configs) {
    std::vector<std::string> server_reads;
    std::string serve_reply;
    const std::string state =
        RunServer(ops, num_shards, config.workers, &server_reads,
                  &serve_reply);
    EXPECT_EQ(state, baseline) << config.label;
    EXPECT_EQ(server_reads, baseline_reads) << config.label;
    if (first_reply.empty()) {
      Result<net::Message> decoded = net::Decode(serve_reply);
      ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
      const auto* resp = std::get_if<ShardedPropagationResponse>(&*decoded);
      ASSERT_NE(resp, nullptr) << config.label;
      EXPECT_FALSE(resp->segments.empty()) << config.label;
      first_reply = serve_reply;
    } else {
      EXPECT_EQ(serve_reply, first_reply) << config.label;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, SchedulerEquivalenceTest,
                         ::testing::Values(1, 16),
                         [](const ::testing::TestParamInfo<size_t>& info) {
                           return "S" + std::to_string(info.param);
                         });

// Convergence equivalence: after cross-server anti-entropy, both servers'
// canonical states are identical to each other and carry every update —
// the batch fan-out serve/accept path produces the same merged state no
// matter which side's scheduler ran the tasks.
TEST(SchedulerEquivalenceTest, PullConvergesToIdenticalCanonicalState) {
  net::InProcHub hub(kNumNodes);
  net::InProcTransport transport(&hub);
  std::vector<std::unique_ptr<ReplicaServer>> servers;
  for (NodeId i = 0; i < 2; ++i) {
    ReplicaServer::Options options;
    options.num_shards = 16;
    options.ae_workers = (i == 0) ? 0 : 2;  // mixed configs must interop
    servers.push_back(std::make_unique<ReplicaServer>(i, kNumNodes,
                                                      &transport, options));
    hub.Register(i, servers.back().get());
  }

  // Disjoint key ranges (node 0 even, node 1 odd): conflict-free by
  // construction, so full convergence — identical values everywhere — is
  // the only legal outcome.
  Rng rng(kSeed);
  for (int i = 0; i < 200; ++i) {
    const NodeId writer = static_cast<NodeId>(rng.Uniform(2));
    const std::string key =
        "item-" + std::to_string(2 * rng.Uniform(32) + writer);
    ASSERT_TRUE(
        servers[writer]->Update(key, key + "#" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(servers[0]->PullFrom(1).ok());
  ASSERT_TRUE(servers[1]->PullFrom(0).ok());
  ASSERT_TRUE(servers[0]->PullFrom(1).ok());  // ship 0's merge back

  std::string state0;
  std::string state1;
  servers[0]->WithReplica(
      [&state0](const ShardedReplica& r) { state0 = r.CanonicalState(); });
  servers[1]->WithReplica(
      [&state1](const ShardedReplica& r) { state1 = r.CanonicalState(); });
  EXPECT_EQ(state0, state1);
  servers[0]->WithReplica([](const ShardedReplica& r) {
    EXPECT_TRUE(r.CheckInvariants().ok());
  });

  hub.Register(0, nullptr);
  hub.Register(1, nullptr);
}

}  // namespace
}  // namespace epidemic::server
