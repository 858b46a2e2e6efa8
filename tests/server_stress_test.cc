// Concurrency stress: client threads hammer a served cluster while the
// background anti-entropy threads run; after quiescing, every replica must
// be structurally sound and fully converged.
//
// Two workloads run concurrently against the striped-lock server:
//   * disjoint writers — every (node, writer) pair owns its key range, so
//     the workload is conflict-free and must converge byte-identically;
//   * overlapping writers — every node writes the same small key set, so
//     cross-node conflicts are guaranteed; a designated resolver node
//     settles them and the resolutions must propagate and stick.
// Readers run throughout and assert no torn reads: every value is
// self-describing ("<key>=<tag>"), so a read that returns bytes from two
// different writes is detectable.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/inproc_transport.h"
#include "server/replica_server.h"

namespace epidemic::server {
namespace {

constexpr size_t kNodes = 3;

class StressCluster {
 public:
  explicit StressCluster(size_t num_shards, size_t ae_workers)
      : hub_(kNodes), transport_(&hub_) {
    for (NodeId i = 0; i < kNodes; ++i) {
      ReplicaServer::Options options;
      for (NodeId p = 0; p < kNodes; ++p) {
        if (p != i) options.peers.push_back(p);
      }
      options.anti_entropy_interval_micros = 500;  // aggressive
      options.num_shards = num_shards;
      options.ae_workers = ae_workers;
      servers_.push_back(
          std::make_unique<ReplicaServer>(i, kNodes, &transport_, options));
      hub_.Register(i, servers_.back().get());
    }
    for (auto& s : servers_) s->Start();
  }

  ~StressCluster() {
    for (auto& s : servers_) s->Stop();
    for (NodeId i = 0; i < kNodes; ++i) hub_.Register(i, nullptr);
  }

  ReplicaServer& server(NodeId i) { return *servers_[i]; }
  net::InProcTransport& transport() { return transport_; }

  /// Joins the background gossip threads; serving and explicit pulls keep
  /// working. Lets a test stage guaranteed-concurrent writes.
  void StopAntiEntropy() {
    for (auto& s : servers_) s->Stop();
  }

  /// Drives explicit pulls (on top of the background threads) until all
  /// aggregate DBVVs match and the listings are byte-identical. Node 0
  /// resolves any conflicts that surface; other nodes discard theirs
  /// (a resolution dominates both branches once it propagates, so one
  /// resolver is enough and concurrent resolutions cannot ping-pong).
  bool Quiesce(bool resolve_conflicts) {
    for (int attempt = 0; attempt < 300; ++attempt) {
      for (NodeId i = 0; i < kNodes; ++i) {
        for (NodeId p = 0; p < kNodes; ++p) {
          if (p != i) (void)servers_[i]->PullFrom(p);
        }
      }
      for (NodeId i = 0; i < kNodes; ++i) {
        std::vector<ConflictEvent> conflicts = servers_[i]->TakeConflicts();
        if (!resolve_conflicts || i != 0) continue;
        for (const ConflictEvent& c : conflicts) {
          // Failures are expected (stale vector after another adoption);
          // the next round re-reports anything still concurrent.
          (void)servers_[0]->ResolveConflict(c.item_name, c.remote_vv,
                                             "resolved:" + c.item_name);
        }
      }
      if (Converged()) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return false;
  }

  bool Converged() {
    VersionVector dbvv0;
    servers_[0]->WithReplica(
        [&dbvv0](const ShardedReplica& r) { dbvv0 = r.AggregateDbvv(); });
    for (NodeId i = 1; i < kNodes; ++i) {
      bool equal = false;
      servers_[i]->WithReplica([&dbvv0, &equal](const ShardedReplica& r) {
        equal = (r.AggregateDbvv() == dbvv0);
      });
      if (!equal) return false;
    }
    auto listing0 = servers_[0]->Scan("");
    for (NodeId i = 1; i < kNodes; ++i) {
      if (servers_[i]->Scan("") != listing0) return false;
    }
    return true;
  }

  void CheckInvariantsEverywhere() {
    for (auto& s : servers_) {
      s->WithReplica([](const ShardedReplica& r) {
        EXPECT_TRUE(r.CheckInvariants().ok());
      });
    }
  }

 private:
  net::InProcHub hub_;
  net::InProcTransport transport_;
  std::vector<std::unique_ptr<ReplicaServer>> servers_;
};

/// A value is torn if it is not exactly "<key>=<tag>" for its key.
void AssertUntorn(const std::string& key, const std::string& value) {
  ASSERT_EQ(value.rfind(key + "=", 0), 0u)
      << "torn read: key '" << key << "' returned '" << value << "'";
}

TEST(ServerStressTest, DisjointWritersConvergeWithoutConflicts) {
  constexpr int kWritersPerNode = 2;
  constexpr int kUpdatesPerWriter = 150;
  StressCluster cluster(/*num_shards=*/16, /*ae_workers=*/2);

  std::atomic<bool> stop_readers{false};
  std::vector<std::thread> writers;
  for (NodeId node = 0; node < kNodes; ++node) {
    for (int w = 0; w < kWritersPerNode; ++w) {
      writers.emplace_back([&cluster, node, w] {
        ReplicaClient client(&cluster.transport(), node);
        std::string prefix =
            "n" + std::to_string(node) + "w" + std::to_string(w) + "-";
        for (int u = 0; u < kUpdatesPerWriter; ++u) {
          std::string key = prefix + std::to_string(u % 10);
          ASSERT_TRUE(
              client.Update(key, key + "=" + std::to_string(u)).ok());
        }
      });
    }
  }
  std::thread reader([&cluster, &stop_readers] {
    ReplicaClient client(&cluster.transport(), 1);
    while (!stop_readers.load()) {
      auto v = client.Read("n0w0-3");
      if (v.ok()) AssertUntorn("n0w0-3", *v);
      auto listed = client.Scan("n2", 5);
      if (listed.ok()) {
        for (const auto& [key, value] : *listed) AssertUntorn(key, value);
      }
      (void)client.Stats();
    }
  });

  for (auto& t : writers) t.join();
  stop_readers.store(true);
  reader.join();

  EXPECT_TRUE(cluster.Quiesce(/*resolve_conflicts=*/false));
  cluster.CheckInvariantsEverywhere();
  for (NodeId i = 0; i < kNodes; ++i) {
    cluster.server(i).WithReplica([](const ShardedReplica& r) {
      // All six writers' key ranges present, and the workload was
      // conflict-free by construction.
      EXPECT_EQ(r.TotalItems(), 3u * 2u * 10u);
      EXPECT_EQ(r.TotalStats().conflicts_detected, 0u);
    });
  }
}

// Two pulls from the same source racing on one node: the later accept
// meets records the earlier one applied after the later request was built.
// Those re-shipped records are skipped, so every pull must succeed.
TEST(ServerStressTest, ConcurrentPullsOnOneNodeAllSucceed) {
  constexpr int kPullsPerThread = 300;
  StressCluster cluster(/*num_shards=*/4, /*ae_workers=*/2);
  cluster.StopAntiEntropy();

  std::atomic<bool> pulling{true};
  std::thread writer([&cluster, &pulling] {
    ReplicaClient client(&cluster.transport(), 0);
    for (int u = 0; pulling.load(); ++u) {
      const std::string key = "k" + std::to_string(u % 40);
      EXPECT_TRUE(client.Update(key, key + "=" + std::to_string(u)).ok());
    }
  });
  std::vector<std::thread> pullers;
  for (int t = 0; t < 2; ++t) {
    pullers.emplace_back([&cluster] {
      for (int p = 0; p < kPullsPerThread; ++p) {
        const Status s = cluster.server(1).PullFrom(0);
        ASSERT_TRUE(s.ok()) << "pull " << p << ": " << s.ToString();
      }
    });
  }
  for (auto& t : pullers) t.join();
  pulling.store(false);
  writer.join();

  ASSERT_TRUE(cluster.server(1).PullFrom(0).ok());
  VersionVector source, puller;
  cluster.server(0).WithReplica(
      [&source](const ShardedReplica& r) { source = r.AggregateDbvv(); });
  cluster.server(1).WithReplica(
      [&puller](const ShardedReplica& r) { puller = r.AggregateDbvv(); });
  EXPECT_EQ(puller, source);
  EXPECT_EQ(cluster.server(1).Scan(""), cluster.server(0).Scan(""));
  cluster.CheckInvariantsEverywhere();
}

TEST(ServerStressTest, OverlappingWritersConflictAndResolve) {
  constexpr int kUpdatesPerWriter = 60;
  constexpr int kSharedKeys = 5;
  StressCluster cluster(/*num_shards=*/16, /*ae_workers=*/2);

  // Every node hammers the same five keys while anti-entropy gossips the
  // concurrent versions around: cross-node conflicts are guaranteed.
  std::atomic<bool> stop_readers{false};
  std::vector<std::thread> writers;
  for (NodeId node = 0; node < kNodes; ++node) {
    writers.emplace_back([&cluster, node] {
      ReplicaClient client(&cluster.transport(), node);
      for (int u = 0; u < kUpdatesPerWriter; ++u) {
        std::string key = "shared-" + std::to_string(u % kSharedKeys);
        std::string tag = "n" + std::to_string(node) + "u" + std::to_string(u);
        ASSERT_TRUE(client.Update(key, key + "=" + tag).ok());
      }
    });
  }
  std::thread reader([&cluster, &stop_readers] {
    ReplicaClient client(&cluster.transport(), 2);
    while (!stop_readers.load()) {
      for (int k = 0; k < kSharedKeys; ++k) {
        std::string key = "shared-" + std::to_string(k);
        auto v = client.Read(key);
        if (v.ok()) {
          // Any complete write (or a complete resolution) is fine; a
          // mixture of two writes is not.
          if (v->rfind("resolved:", 0) != 0) AssertUntorn(key, *v);
        }
      }
    }
  });

  for (auto& t : writers) t.join();
  stop_readers.store(true);
  reader.join();

  // A one-core scheduler can serialize the writers so thoroughly that
  // gossip orders every version — a legal, conflict-free outcome that
  // would make the assertion below flaky. Pin it: with the background
  // gossip stopped, two writes to a fresh key are concurrent by
  // construction, so quiescing must detect at least that conflict.
  cluster.StopAntiEntropy();
  {
    ReplicaClient c0(&cluster.transport(), 0);
    ReplicaClient c1(&cluster.transport(), 1);
    ASSERT_TRUE(c0.Update("shared-seeded", "shared-seeded=n0").ok());
    ASSERT_TRUE(c1.Update("shared-seeded", "shared-seeded=n1").ok());
  }

  EXPECT_TRUE(cluster.Quiesce(/*resolve_conflicts=*/true));
  cluster.CheckInvariantsEverywhere();
  uint64_t conflicts = 0;
  for (NodeId i = 0; i < kNodes; ++i) {
    cluster.server(i).WithReplica([&conflicts](const ShardedReplica& r) {
      EXPECT_EQ(r.TotalItems(), static_cast<size_t>(kSharedKeys) + 1);
      conflicts += r.TotalStats().conflicts_detected;
    });
  }
  // The whole point of the overlap: the protocol must have noticed.
  EXPECT_GT(conflicts, 0u);
}

/// The counter `key` on the summary line that starts with `line` (never
/// the first line), or 0.
uint64_t SummaryCounter(const std::string& summary, const std::string& line,
                        const std::string& key) {
  const size_t start = summary.find("\n" + line);
  const size_t at = summary.find(" " + key + "=", start);
  if (at == std::string::npos || at > summary.find('\n', start + 1)) {
    return 0;
  }
  return std::strtoull(summary.c_str() + at + key.size() + 2, nullptr, 10);
}

// ResetStats zeroes exactly what it reports: while readers hammer the
// lock-free read path, every read lands in exactly one summary, counted
// either as a shard read or as an optimistic hit.
TEST(ServerStressTest, StatsResetReportsEveryRead) {
  constexpr int kReaders = 3;
  constexpr int kResets = 200;
  constexpr int kKeys = 4;
  StressCluster cluster(/*num_shards=*/4, /*ae_workers=*/2);
  cluster.StopAntiEntropy();
  ReplicaServer& server = cluster.server(0);
  for (int k = 0; k < kKeys; ++k) {
    const std::string key = "hot-" + std::to_string(k);
    ASSERT_TRUE(server.Update(key, key + "=v").ok());
  }

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> issued{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&server, &stop, &issued, r] {
      for (int i = r; !stop.load(); ++i) {
        const std::string key = "hot-" + std::to_string(i % kKeys);
        EXPECT_TRUE(server.Read(key).ok());
        issued.fetch_add(1);
      }
    });
  }
  while (issued.load() < 1000) std::this_thread::yield();

  ReplicaClient client(&cluster.transport(), 0);
  uint64_t reported = 0;
  const auto add = [&reported](const std::string& summary) {
    reported += SummaryCounter(summary, "stats:", "reads") +
                SummaryCounter(summary, "sched:", "opt_read_hits");
  };
  for (int i = 0; i < kResets; ++i) {
    Result<std::string> summary = client.ResetStats();
    EXPECT_TRUE(summary.ok()) << summary.status().ToString();
    if (summary.ok()) add(*summary);
    // Hand the cores to the readers between resets, so each reset lands
    // in the middle of a read stream even on a host with fewer free cores
    // than threads.
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  stop.store(true);
  for (auto& t : readers) t.join();
  Result<std::string> last = client.Stats();
  ASSERT_TRUE(last.ok());
  add(*last);
  EXPECT_EQ(reported, issued.load());
}

}  // namespace
}  // namespace epidemic::server
