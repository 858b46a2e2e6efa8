// Cross-module integration tests: full workloads through the simulator,
// and the codec/server stack replicating real protocol state end-to-end.

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "net/codec.h"
#include "net/inproc_transport.h"
#include "server/replica_server.h"
#include "server/sharded_exchange.h"
#include "sim/cluster.h"

namespace epidemic {
namespace {

// ---------------------------------------------------------------------------
// Scenario: the paper's target workload — a large database with a small hot
// set — across several epidemic rounds, checking that total anti-entropy
// work tracks the hot set and not the database size.

TEST(ScenarioTest, HotSetWorkloadWorkTracksDirtyItemsNotDatabaseSize) {
  sim::ClusterConfig config;
  config.protocol = sim::ProtocolKind::kEpidemicDbvv;
  config.num_nodes = 4;
  config.workload.num_items = 20000;
  config.workload.zipf_s = 1.2;  // strongly skewed: small hot set
  config.workload.seed = 21;
  sim::Cluster cluster(config);

  // Preload: one pass creating a large database everywhere (each node gets
  // the items through propagation).
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(cluster
                    .UpdateAt(0, sim::Workload::ItemName(i),
                              "init" + std::to_string(i))
                    .ok());
  }
  auto preload_rounds = cluster.RunUntilConverged(10);
  ASSERT_TRUE(preload_rounds.ok());

  // Steady state: skewed single-writer updates (node 1 writes), then one
  // propagation pass. Counters reset so only steady-state work is measured.
  for (NodeId i = 0; i < 4; ++i) cluster.node(i).ResetSyncStats();
  std::set<std::string> dirty;
  for (int i = 0; i < 100; ++i) {
    std::string item = sim::Workload::ItemName(cluster.workload().SampleItem());
    ASSERT_TRUE(cluster.UpdateAt(1, item, "hot" + std::to_string(i)).ok());
    dirty.insert(item);
  }
  auto rounds = cluster.RunUntilConverged(10);
  ASSERT_TRUE(rounds.ok());

  SyncStats total = cluster.TotalSyncStats();
  // Items examined across the whole convergence is proportional to the
  // dirty set times rounds/nodes — and far below the database size that a
  // per-item protocol would pay *per exchange*.
  EXPECT_GT(total.items_examined, 0u);
  EXPECT_LT(total.items_examined,
            dirty.size() * 4 * (*rounds + 1));
  EXPECT_LT(total.items_examined, 2000u);  // << 2000-item database
}

// ---------------------------------------------------------------------------
// Scenario: week of dial-up style connectivity — nodes sync rarely, updates
// bundle into few exchanges, everything still converges (epidemic property).

TEST(ScenarioTest, InfrequentSyncBundlesManyUpdates) {
  sim::ClusterConfig config;
  config.protocol = sim::ProtocolKind::kEpidemicDbvv;
  config.num_nodes = 3;
  sim::Cluster cluster(config);

  // 50 updates to the same item between syncs: one item crosses the wire.
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(cluster.UpdateAt(0, "doc", "rev" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(cluster.SyncPair(1, 0).ok());
  const SyncStats& s = cluster.node(1).sync_stats();
  EXPECT_EQ(s.items_copied, 1u);
  EXPECT_EQ(s.records_shipped, 1u);  // only the latest record (§4.2)
  auto v = cluster.node(1).ClientRead("doc");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, "rev49");
}

// ---------------------------------------------------------------------------
// Scenario: originator failure — the §8.2 story, full size.

TEST(ScenarioTest, FailureStoryOracleStaysStaleEpidemicHeals) {
  constexpr size_t kNodes = 6;

  // Oracle: originator pushes to two peers, crashes. The other three stay
  // obsolete no matter how many rounds pass.
  sim::ClusterConfig oracle_config;
  oracle_config.protocol = sim::ProtocolKind::kOraclePush;
  oracle_config.num_nodes = kNodes;
  sim::Cluster oracle(oracle_config);
  ASSERT_TRUE(oracle.UpdateAt(0, "x", "v").ok());
  ASSERT_TRUE(oracle.SyncPair(0, 1).ok());
  ASSERT_TRUE(oracle.SyncPair(0, 2).ok());
  oracle.Crash(0);
  for (int round = 0; round < 10; ++round) oracle.SyncRound();
  EXPECT_EQ(oracle.CountDivergentFrom(1), 3u);  // nodes 3,4,5 stale

  // Epidemic: same crash point; survivors forward and heal.
  sim::ClusterConfig epi_config;
  epi_config.protocol = sim::ProtocolKind::kEpidemicDbvv;
  epi_config.num_nodes = kNodes;
  epi_config.peering = sim::Peering::kRandom;
  epi_config.seed = 17;
  sim::Cluster epidemic(epi_config);
  ASSERT_TRUE(epidemic.UpdateAt(0, "x", "v").ok());
  ASSERT_TRUE(epidemic.SyncPair(1, 0).ok());
  ASSERT_TRUE(epidemic.SyncPair(2, 0).ok());
  epidemic.Crash(0);
  auto rounds = epidemic.RunUntilConverged(50);
  ASSERT_TRUE(rounds.ok()) << rounds.status().ToString();
  EXPECT_EQ(epidemic.CountDivergentFrom(1), 0u);
  auto v = epidemic.node(5).ClientRead("x");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, "v");
}

// ---------------------------------------------------------------------------
// Scenario: protocol messages survive a encode/decode cycle with real state
// (the server stack uses exactly this path).

TEST(ScenarioTest, PropagationThroughCodecMatchesDirectPropagation) {
  Replica direct_a(0, 3), direct_b(1, 3);
  ShardedReplica node_a(0, 3, /*num_shards=*/1), node_b(1, 3, 1);
  Replica& coded_a = node_a.shard(0);
  Replica& coded_b = node_b.shard(0);
  for (int i = 0; i < 20; ++i) {
    std::string item = "k" + std::to_string(i % 7);
    std::string value = "v" + std::to_string(i);
    ASSERT_TRUE(direct_b.Update(item, value).ok());
    ASSERT_TRUE(coded_b.Update(item, value).ok());
  }

  // Direct path.
  ASSERT_TRUE(PropagateOnce(direct_b, direct_a).ok());

  // Codec path: request and response cross a serialization boundary as
  // the daemon's wire-v3 exchange (tags 17/18) of two one-shard nodes: the
  // request through the codec, the reply as the frame an epidemicd sends.
  BufferPool pool;
  server::ShardedExchange exchange_a(node_a, pool), exchange_b(node_b, pool);
  auto req = net::Decode(net::Encode(net::Message(exchange_a.Handshake())));
  ASSERT_TRUE(req.ok());
  const std::string frame =
      exchange_b.ServeFrame(std::get<ShardedPropagationRequest>(*req));
  wire::ShardedResponseEnvelopeView env;
  ASSERT_TRUE(server::DecodeReplyFrame(frame, &env).ok());
  ASSERT_EQ(env.segments.size(), 1u);
  ASSERT_TRUE(exchange_a.AcceptFrame(frame).ok());

  EXPECT_EQ(coded_a.dbvv(), direct_a.dbvv());
  for (int i = 0; i < 7; ++i) {
    std::string item = "k" + std::to_string(i);
    EXPECT_EQ(*coded_a.Read(item), *direct_a.Read(item));
  }
  EXPECT_TRUE(coded_a.CheckInvariants().ok());
}

// ---------------------------------------------------------------------------
// Scenario: a served cluster with mixed client traffic, OOB priority reads,
// and scheduled pulls, ending fully consistent.

TEST(ScenarioTest, ServedClusterMixedTraffic) {
  constexpr size_t kNodes = 3;
  net::InProcHub hub(kNodes);
  net::InProcTransport transport(&hub);
  std::vector<std::unique_ptr<server::ReplicaServer>> servers;
  for (NodeId i = 0; i < kNodes; ++i) {
    servers.push_back(std::make_unique<server::ReplicaServer>(
        i, kNodes, &transport, server::ReplicaServer::Options{}));
    hub.Register(i, servers.back().get());
  }

  server::ReplicaClient c0(&transport, 0), c1(&transport, 1),
      c2(&transport, 2);

  // Clients write to their local servers (disjoint keys).
  ASSERT_TRUE(c0.Update("a", "1").ok());
  ASSERT_TRUE(c1.Update("b", "2").ok());
  ASSERT_TRUE(c2.Update("c", "3").ok());

  // Priority read: client at node 0 needs "b" *now*, before anti-entropy.
  auto hot = c0.OobRead(/*from_peer=*/1, "b");
  ASSERT_TRUE(hot.ok());
  EXPECT_EQ(*hot, "2");

  // Scheduled pulls (ring, two passes = transitive closure for 3 nodes).
  for (int pass = 0; pass < 2; ++pass) {
    for (NodeId i = 0; i < kNodes; ++i) {
      ASSERT_TRUE(servers[i]->PullFrom((i + 1) % kNodes).ok());
    }
  }

  for (auto* client : {&c0, &c1, &c2}) {
    EXPECT_EQ(*client->Read("a"), "1");
    EXPECT_EQ(*client->Read("b"), "2");
    EXPECT_EQ(*client->Read("c"), "3");
  }
  // All replicas structurally sound and identical.
  VersionVector dbvv0;
  servers[0]->WithReplica([&dbvv0](const ShardedReplica& r) {
    EXPECT_TRUE(r.CheckInvariants().ok());
    dbvv0 = r.AggregateDbvv();
  });
  for (NodeId i = 1; i < kNodes; ++i) {
    servers[i]->WithReplica([&dbvv0](const ShardedReplica& r) {
      EXPECT_TRUE(r.CheckInvariants().ok());
      EXPECT_EQ(r.AggregateDbvv(), dbvv0);
    });
  }
  for (NodeId i = 0; i < kNodes; ++i) hub.Register(i, nullptr);
}

}  // namespace
}  // namespace epidemic
