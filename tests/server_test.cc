#include "server/replica_server.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "net/codec.h"
#include "net/inproc_transport.h"
#include "net/tcp_transport.h"

namespace epidemic::server {
namespace {

/// Counts Call()s, so tests can pin the number of round trips a pull takes.
class CountingTransport : public net::Transport {
 public:
  explicit CountingTransport(net::Transport* inner) : inner_(inner) {}
  Result<std::string> Call(NodeId dest, std::string_view request) override {
    calls_.fetch_add(1);
    return inner_->Call(dest, request);
  }
  uint64_t calls() const { return calls_.load(); }
  void Reset() { calls_.store(0); }

 private:
  net::Transport* inner_;
  std::atomic<uint64_t> calls_{0};
};

/// Three replica servers wired through an in-process hub.
class InProcClusterTest : public ::testing::Test {
 protected:
  static constexpr size_t kNodes = 3;

  InProcClusterTest() : hub_(kNodes), transport_(&hub_) {
    for (NodeId i = 0; i < kNodes; ++i) {
      ReplicaServer::Options options;
      for (NodeId p = 0; p < kNodes; ++p) {
        if (p != i) options.peers.push_back(p);
      }
      servers_.push_back(std::make_unique<ReplicaServer>(
          i, kNodes, &transport_, options));
      hub_.Register(i, servers_.back().get());
    }
  }

  net::InProcHub hub_;
  net::InProcTransport transport_;
  std::vector<std::unique_ptr<ReplicaServer>> servers_;
};

TEST_F(InProcClusterTest, LocalUpdateAndRead) {
  ASSERT_TRUE(servers_[0]->Update("x", "v").ok());
  auto v = servers_[0]->Read("x");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, "v");
  EXPECT_TRUE(servers_[1]->Read("x").status().IsNotFound());
}

TEST_F(InProcClusterTest, ManualPullPropagates) {
  ASSERT_TRUE(servers_[0]->Update("x", "v").ok());
  ASSERT_TRUE(servers_[1]->PullFrom(0).ok());
  EXPECT_EQ(*servers_[1]->Read("x"), "v");
  // Transitive: node 2 learns from node 1.
  ASSERT_TRUE(servers_[2]->PullFrom(1).ok());
  EXPECT_EQ(*servers_[2]->Read("x"), "v");
}

TEST_F(InProcClusterTest, PullFromDownPeerIsUnavailable) {
  hub_.SetNodeUp(0, false);
  EXPECT_TRUE(servers_[1]->PullFrom(0).IsUnavailable());
}

TEST_F(InProcClusterTest, OobFetchThroughTransport) {
  ASSERT_TRUE(servers_[0]->Update("hot", "fresh").ok());
  ASSERT_TRUE(servers_[1]->OobFetch(0, "hot").ok());
  EXPECT_EQ(*servers_[1]->Read("hot"), "fresh");
  // Regular state untouched on node 1 (it was an OOB copy).
  servers_[1]->WithReplica([](const ShardedReplica& r) {
    EXPECT_EQ(r.AggregateDbvv().Total(), 0u);
    EXPECT_TRUE(r.FindItem("hot")->HasAux());
  });
}

TEST_F(InProcClusterTest, ClientRpcPath) {
  ReplicaClient client(&transport_, /*server=*/0);
  ASSERT_TRUE(client.Update("x", "v").ok());
  auto v = client.Read("x");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, "v");
  EXPECT_TRUE(client.Read("ghost").status().IsNotFound());
}

TEST_F(InProcClusterTest, ClientDeleteRpcAndTombstoneReplication) {
  ReplicaClient client0(&transport_, 0);
  ReplicaClient client1(&transport_, 1);
  ASSERT_TRUE(client0.Update("doomed", "v").ok());
  ASSERT_TRUE(servers_[1]->PullFrom(0).ok());
  ASSERT_TRUE(client1.Read("doomed").ok());

  ASSERT_TRUE(client0.Delete("doomed").ok());
  EXPECT_TRUE(client0.Read("doomed").status().IsNotFound());
  // The tombstone replicates like any update.
  ASSERT_TRUE(servers_[1]->PullFrom(0).ok());
  EXPECT_TRUE(client1.Read("doomed").status().IsNotFound());
  // Deleting an unknown item just writes a tombstone (no error).
  EXPECT_TRUE(client0.Delete("never-existed").ok());
}

TEST_F(InProcClusterTest, ClientOobReadFetchesFromPeer) {
  ReplicaClient client0(&transport_, 0);
  ReplicaClient client1(&transport_, 1);
  ASSERT_TRUE(client0.Update("doc", "v7").ok());
  // Node 1 does not have the item; OobRead makes it fetch from node 0.
  auto v = client1.OobRead(/*from_peer=*/0, "doc");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, "v7");
}

TEST_F(InProcClusterTest, BackgroundAntiEntropyConverges) {
  // Rebuild server 1 and 2 with a fast anti-entropy loop.
  for (NodeId i = 0; i < kNodes; ++i) hub_.Register(i, nullptr);
  std::vector<std::unique_ptr<ReplicaServer>> servers;
  for (NodeId i = 0; i < kNodes; ++i) {
    ReplicaServer::Options options;
    for (NodeId p = 0; p < kNodes; ++p) {
      if (p != i) options.peers.push_back(p);
    }
    options.anti_entropy_interval_micros = 2000;  // 2 ms
    servers.push_back(std::make_unique<ReplicaServer>(
        i, kNodes, &transport_, options));
    hub_.Register(i, servers.back().get());
  }
  for (auto& s : servers) s->Start();

  ASSERT_TRUE(servers[0]->Update("x", "v").ok());
  // Wait (bounded) for the update to spread to all nodes.
  bool spread = false;
  for (int attempt = 0; attempt < 500 && !spread; ++attempt) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    spread = servers[1]->Read("x").ok() && servers[2]->Read("x").ok();
  }
  EXPECT_TRUE(spread);
  for (auto& s : servers) s->Stop();
  for (NodeId i = 0; i < kNodes; ++i) hub_.Register(i, nullptr);
  if (spread) {
    EXPECT_EQ(*servers[1]->Read("x"), "v");
    EXPECT_EQ(*servers[2]->Read("x"), "v");
  }
}

TEST_F(InProcClusterTest, ScanAndStatsRpc) {
  ReplicaClient client(&transport_, 0);
  ASSERT_TRUE(client.Update("a/1", "x").ok());
  ASSERT_TRUE(client.Update("a/2", "y").ok());
  ASSERT_TRUE(client.Update("b/1", "z").ok());

  auto listed = client.Scan("a/");
  ASSERT_TRUE(listed.ok()) << listed.status().ToString();
  ASSERT_EQ(listed->size(), 2u);
  EXPECT_EQ((*listed)[0].first, "a/1");
  EXPECT_EQ((*listed)[1].second, "y");

  auto limited = client.Scan("", 1);
  ASSERT_TRUE(limited.ok());
  EXPECT_EQ(limited->size(), 1u);

  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_NE(stats->find("replica 0/3"), std::string::npos);
  EXPECT_NE(stats->find("items=3"), std::string::npos);
}

TEST_F(InProcClusterTest, AdminSyncRpcPullsOnDemand) {
  ReplicaClient client0(&transport_, 0);
  ReplicaClient client1(&transport_, 1);
  ASSERT_TRUE(client0.Update("x", "v").ok());
  EXPECT_TRUE(client1.Read("x").status().IsNotFound());
  // Admin-triggered pull: node 1 syncs from node 0 immediately.
  ASSERT_TRUE(client1.TriggerSync(0).ok());
  EXPECT_EQ(*client1.Read("x"), "v");
  // Self-sync rejected; checkpoint rejected on an in-memory server.
  EXPECT_TRUE(client1.TriggerSync(1).IsInvalidArgument());
  EXPECT_TRUE(client1.TriggerCheckpoint().IsFailedPrecondition());
}

TEST_F(InProcClusterTest, MalformedRequestYieldsErrorReply) {
  auto wire = transport_.Call(0, "garbage-bytes");
  ASSERT_TRUE(wire.ok());  // transport succeeded; reply is an error message
  auto decoded = net::Decode(*wire);
  ASSERT_TRUE(decoded.ok());
  auto* reply = std::get_if<net::ClientReply>(&*decoded);
  ASSERT_NE(reply, nullptr);
  EXPECT_NE(reply->code, 0);
}

// Every mutating entry point of a durable server (update, delete, a pulled
// segment, an out-of-bound copy and a conflict resolution) reaches its
// shard's journal: the recovered protocol state equals the state before
// the crash, not only the values read back.
TEST(DurableServerTest, SurvivesRestartWithReplicatedState) {
  const std::string dir = ::testing::TempDir() + "/durable_server_test";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  net::InProcHub hub(2);
  net::InProcTransport transport(&hub);
  ReplicaServer peer(1, 2, &transport, {});
  hub.Register(1, &peer);
  ASSERT_TRUE(peer.Update("remote", "from-peer").ok());
  const auto canonical_state = [](const ReplicaServer& server) {
    std::string state;
    server.WithReplica(
        [&state](const ShardedReplica& r) { state = r.CanonicalState(); });
    return state;
  };

  std::string state_at_crash;
  {
    LockedConflictListener conflicts;
    auto durable = ShardedReplica::Open(
        dir, 0, 2, ShardedReplica::kDefaultShards, &conflicts);
    ASSERT_TRUE(durable.ok());
    ReplicaServer server(std::move(*durable), &transport, {});
    EXPECT_TRUE(server.is_durable());
    EXPECT_EQ(server.num_shards(), ShardedReplica::kDefaultShards);
    hub.Register(0, &server);
    ASSERT_TRUE(server.Update("local", "mine").ok());
    ASSERT_TRUE(server.PullFrom(1).ok());
    EXPECT_EQ(*server.Read("remote"), "from-peer");
    ASSERT_TRUE(peer.Update("hot", "fetched").ok());
    ASSERT_TRUE(server.OobFetch(1, "hot").ok());
    EXPECT_EQ(*server.Read("hot"), "fetched");
    ASSERT_TRUE(server.Update("gone", "soon").ok());
    ASSERT_TRUE(server.Delete("gone").ok());
    // Concurrent updates of "doc": the pull reports the conflict through
    // the listener given to Open, and the resolution supersedes both.
    ASSERT_TRUE(server.Update("doc", "local").ok());
    ASSERT_TRUE(peer.Update("doc", "remote").ok());
    ASSERT_TRUE(server.PullFrom(1).ok());
    const std::vector<ConflictEvent> events = conflicts.Take();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].item_name, "doc");
    ASSERT_TRUE(
        server.ResolveConflict("doc", events[0].remote_vv, "merged").ok());
    state_at_crash = canonical_state(server);
    hub.Register(0, nullptr);
  }  // crash without checkpoint

  {
    auto recovered =
        ShardedReplica::Open(dir, 0, 2, ShardedReplica::kDefaultShards);
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    ReplicaServer server(std::move(*recovered), &transport, {});
    hub.Register(0, &server);
    EXPECT_EQ(canonical_state(server), state_at_crash);
    EXPECT_EQ(*server.Read("local"), "mine");
    EXPECT_EQ(*server.Read("remote"), "from-peer");
    EXPECT_EQ(*server.Read("hot"), "fetched");
    EXPECT_TRUE(server.Read("gone").status().IsNotFound());
    EXPECT_EQ(*server.Read("doc"), "merged");
    // Checkpoint then keep operating.
    ASSERT_TRUE(server.Checkpoint().ok());
    ASSERT_TRUE(server.Update("post", "cp").ok());
    state_at_crash = canonical_state(server);
    hub.Register(0, nullptr);
  }

  {
    auto again =
        ShardedReplica::Open(dir, 0, 2, ShardedReplica::kDefaultShards);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ((*again)->CanonicalState(), state_at_crash);
    EXPECT_EQ(*(*again)->Read("post"), "cp");
    EXPECT_EQ(*(*again)->Read("doc"), "merged");
    // The shard count is pinned: reopening with a different one is refused.
    EXPECT_TRUE(
        ShardedReplica::Open(dir, 0, 2, 3).status().IsInvalidArgument());
  }
  std::filesystem::remove_all(dir);
}

// A client write the replica rejects must not reach the journal: replay
// would reject it again, and the node could not restart.
TEST(DurableServerTest, RejectedClientUpdateDoesNotBlockRestart) {
  const std::string dir = ::testing::TempDir() + "/durable_rejected_update";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  net::InProcHub hub(1);
  net::InProcTransport transport(&hub);
  {
    auto durable = ShardedReplica::Open(
        dir, 0, 1, ShardedReplica::kDefaultShards);
    ASSERT_TRUE(durable.ok());
    ReplicaServer server(std::move(*durable), &transport, {});
    hub.Register(0, &server);
    ReplicaClient client(&transport, 0);
    ASSERT_TRUE(client.Update("kept", "v").ok());
    EXPECT_TRUE(client.Update("", "v").IsInvalidArgument());
    hub.Register(0, nullptr);
  }

  auto reopened = ShardedReplica::Open(
      dir, 0, 1, ShardedReplica::kDefaultShards);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(*(*reopened)->Read("kept"), "v");
  std::filesystem::remove_all(dir);
}

TEST(DurableServerTest, InMemoryServerRejectsCheckpoint) {
  net::InProcHub hub(2);
  net::InProcTransport transport(&hub);
  ReplicaServer server(0, 2, &transport, {});
  EXPECT_FALSE(server.is_durable());
  EXPECT_TRUE(server.Checkpoint().IsFailedPrecondition());
}

TEST(ShardedServerTest, MismatchedShardCountsRefuseToSync) {
  net::InProcHub hub(2);
  net::InProcTransport transport(&hub);
  ReplicaServer::Options o4, o8;
  o4.num_shards = 4;
  o8.num_shards = 8;
  ReplicaServer s0(0, 2, &transport, o4);
  ReplicaServer s1(1, 2, &transport, o8);
  hub.Register(0, &s0);
  hub.Register(1, &s1);

  ASSERT_TRUE(s0.Update("x", "v").ok());
  // The handshake echoes the peer's shard count; the mismatch is rejected
  // before any state is touched.
  EXPECT_TRUE(s1.PullFrom(0).IsInvalidArgument());
  EXPECT_TRUE(s1.Read("x").status().IsNotFound());
  hub.Register(0, nullptr);
  hub.Register(1, nullptr);
}

// A peer that refuses the handshake answers with an error ClientReply; the
// pull returns that status in one round trip and changes nothing sticky,
// so the next pull is again one round trip with the same answer.
TEST(ShardedServerTest, PeerRefusalIsReturnedInOneCall) {
  net::InProcHub hub(3);
  net::InProcTransport inner(&hub);
  CountingTransport transport(&inner);
  ReplicaServer two(0, /*num_nodes=*/2, &transport, {});
  ReplicaServer three(1, /*num_nodes=*/3, &transport, {});
  hub.Register(0, &two);
  hub.Register(1, &three);

  ASSERT_TRUE(two.Update("x", "v").ok());
  for (int pull = 0; pull < 2; ++pull) {
    transport.Reset();
    Status s = three.PullFrom(0);
    EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
    EXPECT_EQ(s.message(), "shard DBVV of wrong width");
    EXPECT_EQ(transport.calls(), 1u) << "pull " << pull;
  }
  EXPECT_TRUE(three.Read("x").status().IsNotFound());
  hub.Register(0, nullptr);
  hub.Register(1, nullptr);
}

// "Resend" is only a valid answer to an epoch probe. A peer that answers
// the full handshake with it gets a Corruption after one round trip
// instead of an endless resend loop.
TEST(ShardedServerTest, ResendAnsweringAFullHandshakeIsRejected) {
  class ResendForever : public net::RequestHandler {
   public:
    std::string HandleRequest(std::string_view) override {
      ShardedPropagationResponse resend;
      resend.num_shards = ShardedReplica::kDefaultShards;
      resend.resp_flags = kPropRespFlagResend;
      resend.epoch = 5;
      return net::Encode(net::Message(resend));
    }
  };
  net::InProcHub hub(2);
  net::InProcTransport inner(&hub);
  CountingTransport transport(&inner);
  ResendForever liar;
  ReplicaServer puller(1, 2, &transport, {});
  hub.Register(0, &liar);

  Status s = puller.PullFrom(0);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  EXPECT_EQ(transport.calls(), 1u);
  hub.Register(0, nullptr);
}

// A pull is one round trip, served by the zero-copy view serve (the only
// Fig. 2 serve there is).
TEST(ShardedServerTest, ServesZeroCopyInOneCall) {
  net::InProcHub hub(2);
  net::InProcTransport inner(&hub);
  CountingTransport transport(&inner);
  ReplicaServer::Options opts;
  opts.num_shards = 4;
  ReplicaServer a(0, 2, &transport, opts);
  ReplicaServer b(1, 2, &transport, opts);
  hub.Register(0, &a);
  hub.Register(1, &b);

  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(a.Update("item" + std::to_string(i), "value").ok());
  }
  transport.Reset();
  ASSERT_TRUE(b.PullFrom(0).ok());
  EXPECT_EQ(transport.calls(), 1u);

  EXPECT_GT(a.TotalStats().items_shipped, 0u);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(*b.Read("item" + std::to_string(i)), "value");
  }
  hub.Register(0, nullptr);
  hub.Register(1, nullptr);
}

// Numbers 1 and 2 (the retired whole-database v1 exchange) are unknown
// tags on every server, single-shard ones included: the frames the v1
// encoders wrote get an error reply, and 1-shard servers replicate over
// v3 like every other server.
TEST(ShardedServerTest, SingleShardServerSpeaksOnlyV3) {
  net::InProcHub hub(2);
  net::InProcTransport transport(&hub);
  ReplicaServer::Options opts;
  opts.num_shards = 1;
  ReplicaServer s0(0, 2, &transport, opts);
  ReplicaServer s1(1, 2, &transport, opts);
  hub.Register(0, &s0);
  hub.Register(1, &s1);
  ASSERT_TRUE(s0.Update("legacy", "payload").ok());

  ByteWriter v1_request;  // requester 1, all-zero DBVV of width 2
  v1_request.PutU8(1);
  v1_request.PutVarint64(1);
  EncodeVersionVector(&v1_request, VersionVector(2));
  const std::string v1_current("\x02\x01", 2);  // "you are current"
  for (const std::string& frame : {v1_request.data(), v1_current}) {
    auto wire = transport.Call(0, frame);
    ASSERT_TRUE(wire.ok());
    auto decoded = net::Decode(*wire);
    ASSERT_TRUE(decoded.ok());
    auto* reply = std::get_if<net::ClientReply>(&*decoded);
    ASSERT_NE(reply, nullptr) << "tag " << int{frame[0]};
    EXPECT_EQ(reply->code, static_cast<uint8_t>(StatusCode::kCorruption));
    EXPECT_NE(reply->payload.find("unknown message tag"), std::string::npos)
        << reply->payload;
  }

  ASSERT_TRUE(s1.Update("fresh", "v3").ok());
  ASSERT_TRUE(s1.PullFrom(0).ok());
  ASSERT_TRUE(s0.PullFrom(1).ok());
  EXPECT_EQ(*s1.Read("legacy"), "payload");
  EXPECT_EQ(s0.Scan(""), s1.Scan(""));
  hub.Register(0, nullptr);
  hub.Register(1, nullptr);
}

// The fan-out serve cache works in every scheduler mode: with owner
// workers, two pullers asking for the same tail at the same epoch cost one
// serve and one replay.
TEST(ShardedServerTest, ServeCacheHitsWithOwnerWorkers) {
  net::InProcHub hub(3);
  net::InProcTransport transport(&hub);
  ReplicaServer::Options source_opts;
  source_opts.ae_workers = 4;
  ReplicaServer source(0, 3, &transport, source_opts);
  ReplicaServer p1(1, 3, &transport, {});
  ReplicaServer p2(2, 3, &transport, {});
  hub.Register(0, &source);

  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(source.Update("k" + std::to_string(i), "v").ok());
  }
  Status s1 = p1.PullFrom(0);
  ASSERT_TRUE(s1.ok()) << s1.ToString();
  Status s2 = p2.PullFrom(0);
  ASSERT_TRUE(s2.ok()) << s2.ToString();
  const std::string stats = source.Stats();
  EXPECT_NE(stats.find("serve_cache: hits=1 misses=1"), std::string::npos)
      << stats;
  EXPECT_EQ(p1.Scan(""), source.Scan(""));
  EXPECT_EQ(p2.Scan(""), source.Scan(""));
  hub.Register(0, nullptr);
}

TEST(ShardedServerTest, StatsResetRpcIsAtomic) {
  net::InProcHub hub(1);
  net::InProcTransport transport(&hub);
  ReplicaServer server(0, 1, &transport, {});
  hub.Register(0, &server);
  ReplicaClient client(&transport, 0);

  ASSERT_TRUE(client.Update("a", "1").ok());
  ASSERT_TRUE(client.Update("b", "2").ok());
  auto snapshot = client.ResetStats();
  ASSERT_TRUE(snapshot.ok());
  EXPECT_NE(snapshot->find("updates=2+0aux"), std::string::npos) << *snapshot;
  // Counters were zeroed in the same critical section.
  auto after = client.Stats();
  ASSERT_TRUE(after.ok());
  EXPECT_NE(after->find("updates=0+0aux"), std::string::npos) << *after;
  EXPECT_EQ(server.TotalStats().updates_regular, 0u);
  hub.Register(0, nullptr);
}

/// The line of `summary` that starts with `prefix`, or "".
std::string LineStarting(const std::string& summary,
                         const std::string& prefix) {
  size_t at = 0;
  while (at < summary.size()) {
    const size_t end = std::min(summary.find('\n', at), summary.size());
    if (summary.compare(at, prefix.size(), prefix) == 0) {
      return summary.substr(at, end - at);
    }
    at = end + 1;
  }
  return "";
}

/// The decimal counter after " key=" on `line`; nullopt when the key is
/// missing or no digit follows it.
std::optional<uint64_t> Counter(const std::string& line,
                                const std::string& key) {
  const std::string needle = " " + key + "=";
  const size_t at = line.find(needle);
  if (at == std::string::npos) return std::nullopt;
  const size_t digits = at + needle.size();
  if (digits >= line.size() || line[digits] < '0' || line[digits] > '9') {
    return std::nullopt;
  }
  return std::strtoull(line.c_str() + digits, nullptr, 10);
}

// perfbench (DaemonCounters::Parse in perfbench/src/cluster.cc) reads
// these keys from every daemon's stats reply, and a run that cannot parse
// one fails. Pin them here, so a renamed or dropped key fails this suite
// before it breaks the benchmark.
TEST(ShardedServerTest, StatsCarriesEveryKeyPerfbenchParses) {
  net::InProcHub hub(2);
  net::InProcTransport transport(&hub);
  ReplicaServer source(0, 2, &transport, {});
  ReplicaServer puller(1, 2, &transport, {});
  hub.Register(0, &source);
  ASSERT_TRUE(source.Update("a", "1").ok());
  ASSERT_TRUE(source.Update("b", "2").ok());
  for (const char* item : {"a", "a", "b"}) {
    ASSERT_TRUE(source.Read(item).ok()) << item;
  }
  ASSERT_TRUE(puller.PullFrom(0).ok());

  const std::string summary = source.Stats();
  EXPECT_NE(LineStarting(summary, "replica ").find(" dbvv=["),
            std::string::npos)
      << summary;
  const struct {
    const char* line;
    std::vector<const char*> keys;
  } expected[] = {
      {"stats:",
       {"updates", "reads", "prop_served", "current_replies", "items_shipped",
        "items_adopted", "conflicts"}},
      {"sched:", {"tasks", "fast_path", "queue_peak", "opt_read_hits"}},
      {"net:",
       {"calls", "opened", "reconnects", "backoff_skips", "bytes_sent",
        "bytes_received"}},
      {"serve_cache:", {"hits", "misses"}},
  };
  for (const auto& [line, keys] : expected) {
    const std::string text = LineStarting(summary, line);
    for (const char* key : keys) {
      EXPECT_TRUE(Counter(text, key).has_value())
          << line << " " << key << " missing from:\n" << summary;
    }
  }
  // Every read is a shard task, so `reads` counts all three and the
  // optimistic-hit key stays 0.
  EXPECT_EQ(Counter(LineStarting(summary, "stats:"), "reads"), 3u);
  EXPECT_EQ(Counter(LineStarting(summary, "sched:"), "opt_read_hits"), 0u);
  hub.Register(0, nullptr);
}

TEST(ShardedServerTest, ParallelShardWorkersConverge) {
  constexpr size_t kNodes = 2;
  net::InProcHub hub(kNodes);
  net::InProcTransport transport(&hub);
  ReplicaServer::Options opts;
  opts.num_shards = 8;
  opts.ae_workers = 3;  // per-shard serve/accept run on a pool
  ReplicaServer s0(0, kNodes, &transport, opts);
  ReplicaServer s1(1, kNodes, &transport, opts);
  hub.Register(0, &s0);
  hub.Register(1, &s1);

  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(
        s0.Update("item-" + std::to_string(i), "v" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(s1.PullFrom(0).ok());
  for (int i = 0; i < 100; ++i) {
    auto v = s1.Read("item-" + std::to_string(i));
    ASSERT_TRUE(v.ok());
    EXPECT_EQ(*v, "v" + std::to_string(i));
  }
  s0.WithReplica([](const ShardedReplica& r) {
    EXPECT_TRUE(r.CheckInvariants().ok());
  });
  s1.WithReplica([&s0](const ShardedReplica& r1) {
    EXPECT_TRUE(r1.CheckInvariants().ok());
    s0.WithReplica([&r1](const ShardedReplica& r0) {
      EXPECT_EQ(r0.AggregateDbvv(), r1.AggregateDbvv());
    });
  });
  // A second pull is a no-op round: every shard replies "you are current".
  ASSERT_TRUE(s1.PullFrom(0).ok());
  hub.Register(0, nullptr);
  hub.Register(1, nullptr);
}

TEST(ShardedServerTest, EpochProbeSkipsQuiescentRounds) {
  using runtime::TaskKind;
  net::InProcHub hub(2);
  net::InProcTransport transport(&hub);
  ReplicaServer::Options opts;
  opts.num_shards = 8;
  ReplicaServer s0(0, 2, &transport, opts);
  ReplicaServer s1(1, 2, &transport, opts);
  hub.Register(0, &s0);
  hub.Register(1, &s1);

  ASSERT_TRUE(s0.Update("a", "1").ok());
  // First pull runs the full handshake and caches the source's epoch.
  ASSERT_TRUE(s1.PullFrom(0).ok());
  EXPECT_EQ(*s1.Read("a"), "1");

  const auto serve_kind = static_cast<size_t>(TaskKind::kServe);
  const auto snap_kind = static_cast<size_t>(TaskKind::kSnapshot);
  const uint64_t serves = s0.SchedulerHealth().tasks_by_kind[serve_kind];
  const uint64_t snaps = s1.SchedulerHealth().tasks_by_kind[snap_kind];

  // Quiescent round: the epoch probe matches, so neither side touches a
  // single shard — no snapshot tasks at the requester, no serve tasks at
  // the source.
  ASSERT_TRUE(s1.PullFrom(0).ok());
  EXPECT_EQ(s0.SchedulerHealth().tasks_by_kind[serve_kind], serves);
  EXPECT_EQ(s1.SchedulerHealth().tasks_by_kind[snap_kind], snaps);

  // A write bumps the source epoch: the probe misses, the requester
  // resends the full handshake, and the update still arrives.
  ASSERT_TRUE(s0.Update("late", "2").ok());
  ASSERT_TRUE(s1.PullFrom(0).ok());
  EXPECT_EQ(*s1.Read("late"), "2");
  EXPECT_GT(s0.SchedulerHealth().tasks_by_kind[serve_kind], serves);

  hub.Register(0, nullptr);
  hub.Register(1, nullptr);
}

// ---------------------------------------------------------------------------
// The same server stack over real TCP sockets.

TEST(TcpClusterTest, EndToEndReplicationOverSockets) {
  constexpr size_t kNodes = 2;
  net::TcpTransport transport(kNodes);

  ReplicaServer::Options opts0, opts1;
  opts0.peers = {1};
  opts1.peers = {0};
  ReplicaServer s0(0, kNodes, &transport, opts0);
  ReplicaServer s1(1, kNodes, &transport, opts1);

  net::TcpServer tcp0(&s0), tcp1(&s1);
  ASSERT_TRUE(tcp0.Start(0).ok());
  ASSERT_TRUE(tcp1.Start(0).ok());
  transport.SetPeerPort(0, tcp0.port());
  transport.SetPeerPort(1, tcp1.port());

  ReplicaClient client0(&transport, 0);
  ASSERT_TRUE(client0.Update("k", "over-tcp").ok());

  ASSERT_TRUE(s1.PullFrom(0).ok());
  ReplicaClient client1(&transport, 1);
  auto v = client1.Read("k");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, "over-tcp");

  // Identical replicas: another pull is a no-op and leaves state equal.
  ASSERT_TRUE(s1.PullFrom(0).ok());
  s0.WithReplica([&s1](const ShardedReplica& r0) {
    s1.WithReplica([&r0](const ShardedReplica& r1) {
      EXPECT_EQ(r0.AggregateDbvv(), r1.AggregateDbvv());
    });
  });

  tcp0.Stop();
  tcp1.Stop();
}

TEST(TcpClusterTest, OobFetchOverSockets) {
  constexpr size_t kNodes = 2;
  net::TcpTransport transport(kNodes);
  ReplicaServer s0(0, kNodes, &transport, {});
  ReplicaServer s1(1, kNodes, &transport, {});
  net::TcpServer tcp0(&s0), tcp1(&s1);
  ASSERT_TRUE(tcp0.Start(0).ok());
  ASSERT_TRUE(tcp1.Start(0).ok());
  transport.SetPeerPort(0, tcp0.port());
  transport.SetPeerPort(1, tcp1.port());

  ASSERT_TRUE(s0.Update("doc", "payload").ok());
  ASSERT_TRUE(s1.OobFetch(0, "doc").ok());
  EXPECT_EQ(*s1.Read("doc"), "payload");

  tcp0.Stop();
  tcp1.Stop();
}

}  // namespace
}  // namespace epidemic::server
