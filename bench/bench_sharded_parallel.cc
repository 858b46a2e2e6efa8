// Sharded anti-entropy under write contention.
//
// Two served replicas; the destination pulls from the source in a tight
// loop while writer threads hammer the source's local API. With one shard
// (the old single-mutex shape) every writer and every per-shard propagation
// step convoy on the same lock; with 16 shards on the shard-owner scheduler
// (runtime/scheduler.h) each operation is one task in its shard's
// single-writer section and an anti-entropy round is one batch fan-out, so
// writers and the serve path only meet when they touch the same shard. The
// table reports anti-entropy rounds/second, concurrent writer throughput,
// and p50/p95/p99 latency for both, per configuration.
//
// Note on parallelism: on a single-core host the gain comes from removing
// the lock convoy (the scheduler's inline fast path costs one CAS, and
// writers no longer serialize the whole serve path), not from CPU-parallel
// shard processing — results carry hardware_concurrency and the build type
// so the artifact is self-describing.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/inproc_transport.h"
#include "server/replica_server.h"

#ifndef EPI_BUILD_TYPE
#define EPI_BUILD_TYPE "unknown"
#endif

namespace {

using epidemic::NodeId;
using epidemic::server::ReplicaServer;

struct Percentiles {
  double p50 = 0;
  double p95 = 0;
  double p99 = 0;
};

/// Nearest-rank percentiles over microsecond samples (destructive sort).
Percentiles ComputePercentiles(std::vector<double>& samples_us) {
  Percentiles p;
  if (samples_us.empty()) return p;
  std::sort(samples_us.begin(), samples_us.end());
  auto at = [&samples_us](double q) {
    const size_t idx = static_cast<size_t>(
        q * static_cast<double>(samples_us.size() - 1) + 0.5);
    return samples_us[std::min(idx, samples_us.size() - 1)];
  };
  p.p50 = at(0.50);
  p.p95 = at(0.95);
  p.p99 = at(0.99);
  return p;
}

struct RowResult {
  double rounds_per_sec = 0;
  double full_rounds_per_sec = 0;  // rounds that ran the per-shard handshake
  double writes_per_sec = 0;
  Percentiles round_us;   // one anti-entropy pull, all shards
  Percentiles update_us;  // one client Update under load
};

size_t g_payload_bytes = 16 * 1024;
size_t g_keys_per_writer = 32;

RowResult RunRow(size_t num_shards, size_t ae_workers, size_t writer_threads,
                 double seconds) {
  epidemic::net::InProcHub hub(2);
  epidemic::net::InProcTransport transport(&hub);
  ReplicaServer::Options options;
  options.num_shards = num_shards;
  options.ae_workers = ae_workers;
  ReplicaServer src(0, 2, &transport, options);
  ReplicaServer dst(1, 2, &transport, options);
  hub.Register(0, &src);
  hub.Register(1, &dst);

  // Preload a working set so every round has per-shard state to compare,
  // and warm the destination with one full transfer.
  for (int i = 0; i < 512; ++i) {
    (void)src.Update("pre/" + std::to_string(i), "x");
  }
  (void)dst.PullFrom(0);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> writes{0};
  std::vector<std::thread> writers;
  std::vector<std::vector<double>> writer_lat_us(writer_threads);
  for (size_t w = 0; w < writer_threads; ++w) {
    writer_lat_us[w].reserve(1 << 18);
    writers.emplace_back([&src, &stop, &writes, &writer_lat_us, w] {
      // Direct local API: every update is one task in its shard's
      // single-writer section, contending exactly like a co-located
      // client thread. Values are sized like real documents so each task
      // occupies its shard for a meaningful stretch — with one shard
      // that serializes the whole serve path.
      std::string prefix = "w" + std::to_string(w) + "/";
      const std::string payload(g_payload_bytes, 'x');
      std::vector<double>& lat = writer_lat_us[w];
      for (uint64_t n = 0; !stop.load(std::memory_order_relaxed); ++n) {
        auto t0 = std::chrono::steady_clock::now();
        (void)src.Update(prefix + std::to_string(n % g_keys_per_writer),
                         payload);
        lat.push_back(std::chrono::duration<double, std::micro>(
                          std::chrono::steady_clock::now() - t0)
                          .count());
        writes.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  uint64_t rounds = 0;
  // Full (non-probe) rounds snapshot every shard's DBVV at the requester;
  // counting those tasks separates O(1) epoch-probe rounds from rounds
  // that ran the per-shard handshake.
  const auto snapshot_tasks = [&dst] {
    return dst.SchedulerHealth()
        .tasks_by_kind[static_cast<size_t>(
            epidemic::runtime::TaskKind::kSnapshot)];
  };
  const uint64_t snapshots_before = snapshot_tasks();
  std::vector<double> round_lat_us;
  round_lat_us.reserve(1 << 16);
  auto start = std::chrono::steady_clock::now();
  auto deadline = start + std::chrono::duration<double>(seconds);
  while (std::chrono::steady_clock::now() < deadline) {
    auto t0 = std::chrono::steady_clock::now();
    if (dst.PullFrom(0).ok()) {
      ++rounds;
      round_lat_us.push_back(std::chrono::duration<double, std::micro>(
                                 std::chrono::steady_clock::now() - t0)
                                 .count());
    }
  }
  auto elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  const uint64_t full_rounds =
      (snapshot_tasks() - snapshots_before) / num_shards;
  stop.store(true);
  for (auto& t : writers) t.join();

  hub.Register(0, nullptr);
  hub.Register(1, nullptr);
  RowResult result;
  result.rounds_per_sec = static_cast<double>(rounds) / elapsed;
  result.full_rounds_per_sec = static_cast<double>(full_rounds) / elapsed;
  result.writes_per_sec = static_cast<double>(writes.load()) / elapsed;
  result.round_us = ComputePercentiles(round_lat_us);
  std::vector<double> all_updates_us;
  for (auto& lat : writer_lat_us) {
    all_updates_us.insert(all_updates_us.end(), lat.begin(), lat.end());
  }
  result.update_us = ComputePercentiles(all_updates_us);
  return result;
}

/// Second experiment: worst-case client-operation stall while a large
/// serve is in flight. With one shard the serve encodes the entire dirty
/// database inside the single lock, so a concurrent Read waits for all of
/// it; with striped locks it waits only for its own shard's segment. This
/// is the lock-convoy component in isolation — visible even on one core,
/// where rounds/sec is dominated by CPU scheduling instead.
double MaxReadStallMicros(size_t num_shards, int num_items) {
  epidemic::net::InProcHub hub(2);
  epidemic::net::InProcTransport transport(&hub);
  ReplicaServer::Options options;
  options.num_shards = num_shards;
  ReplicaServer src(0, 2, &transport, options);
  ReplicaServer dst(1, 2, &transport, options);
  hub.Register(0, &src);
  hub.Register(1, &dst);

  const std::string payload(1024, 'x');
  for (int i = 0; i < num_items; ++i) {
    (void)src.Update("pre/" + std::to_string(i), payload);
  }

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> max_stall_us{0};
  std::thread reader([&src, &stop, &max_stall_us] {
    while (!stop.load(std::memory_order_relaxed)) {
      auto t0 = std::chrono::steady_clock::now();
      (void)src.Read("pre/0");
      auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
      uint64_t prev = max_stall_us.load(std::memory_order_relaxed);
      while (static_cast<uint64_t>(us) > prev &&
             !max_stall_us.compare_exchange_weak(prev,
                                                 static_cast<uint64_t>(us))) {
      }
    }
  });

  // Give the reader a moment to start, then run full transfers.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < num_items; i += 7) {  // re-dirty a large subset
      (void)src.Update("pre/" + std::to_string(i), payload);
    }
    (void)dst.PullFrom(0);
  }
  stop.store(true);
  reader.join();
  hub.Register(0, nullptr);
  hub.Register(1, nullptr);
  return static_cast<double>(max_stall_us.load());
}

}  // namespace

int main(int argc, char** argv) {
  // Positional args (seconds, payload bytes, keys/writer) plus an optional
  // `--json` anywhere: machine-readable output for scripts/run_benchmarks.sh.
  bool json = false;
  double seconds = 1.0;
  int pos = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
      continue;
    }
    ++pos;
    if (pos == 1) seconds = std::atof(argv[i]);
    if (pos == 2) g_payload_bytes = static_cast<size_t>(std::atol(argv[i]));
    if (pos == 3) g_keys_per_writer = static_cast<size_t>(std::atol(argv[i]));
  }

  if (json) {
    std::printf("{\n  \"build_type\": \"%s\",\n", EPI_BUILD_TYPE);
    std::printf("  \"hardware_concurrency\": %u,\n  \"seconds\": %.3f,\n",
                std::thread::hardware_concurrency(), seconds);
    std::printf("  \"trials_per_row\": 3,\n");
    std::printf("  \"rows\": [\n");
    // Loaded pair plus the unloaded pair for the raw round cost. Each row
    // is the median-of-3 trial by rounds/s: individual trials swing with
    // CFS timeslice luck, and the median discards the outlier runs the
    // same way for every config. `rounds_per_sec` counts O(1) epoch
    // probes that found nothing to pull; `full_rounds_per_sec` counts
    // only rounds that ran the per-shard handshake.
    const size_t shard_configs[][3] = {
        {1, 0, 0}, {16, 4, 0}, {1, 0, 4}, {16, 4, 4}};
    for (size_t i = 0; i < 4; ++i) {
      const auto& c = shard_configs[i];
      RowResult trials[3];
      for (auto& t : trials) t = RunRow(c[0], c[1], c[2], seconds);
      std::sort(std::begin(trials), std::end(trials),
                [](const RowResult& a, const RowResult& b) {
                  return a.rounds_per_sec < b.rounds_per_sec;
                });
      const RowResult& r = trials[1];
      std::printf(
          "%s    {\"shards\": %zu, \"workers\": %zu, \"writers\": %zu, "
          "\"rounds_per_sec\": %.2f, \"full_rounds_per_sec\": %.2f, "
          "\"writes_per_sec\": %.0f,\n"
          "     \"round_p50_us\": %.1f, \"round_p95_us\": %.1f, "
          "\"round_p99_us\": %.1f,\n"
          "     \"update_p50_us\": %.1f, \"update_p95_us\": %.1f, "
          "\"update_p99_us\": %.1f}",
          i == 0 ? "" : ",\n", c[0], c[1], c[2], r.rounds_per_sec,
          r.full_rounds_per_sec, r.writes_per_sec, r.round_us.p50,
          r.round_us.p95, r.round_us.p99, r.update_us.p50, r.update_us.p95,
          r.update_us.p99);
    }
    std::printf("\n  ]\n}\n");
    return 0;
  }

  std::printf(
      "Sharded parallel anti-entropy: pull rounds/sec while writers hit the "
      "source\n(build=%s hardware_concurrency=%u payload=%zuB "
      "keys/writer=%zu)\n\n",
      EPI_BUILD_TYPE, std::thread::hardware_concurrency(), g_payload_bytes,
      g_keys_per_writer);
  std::printf("%7s %8s %8s %12s %9s %12s %10s %10s %11s %11s\n", "shards",
              "workers", "writers", "rounds/s", "fulls/s", "writes/s",
              "rnd p50us", "rnd p99us", "upd p50us", "upd p99us");

  struct Config {
    size_t shards, workers, writers;
  };
  const Config configs[] = {
      {1, 0, 0},   // unsharded, unloaded: raw round cost
      {16, 0, 0},  // sharded, serial: handshake overhead of S shards
      {16, 4, 0},  // sharded, owner threads: dispatch overhead
      {1, 0, 4},   // unsharded + writers: the single-mutex convoy
      {16, 0, 4},  // sharded + writers, callers inline behind the gates
      {16, 4, 4},  // sharded + writers: shard-owner scheduler, full config
  };
  for (const Config& c : configs) {
    RowResult r = RunRow(c.shards, c.workers, c.writers, seconds);
    std::printf(
        "%7zu %8zu %8zu %12.1f %9.1f %12.0f %10.1f %10.1f %11.1f %11.1f\n",
        c.shards, c.workers, c.writers, r.rounds_per_sec,
        r.full_rounds_per_sec, r.writes_per_sec, r.round_us.p50,
        r.round_us.p99, r.update_us.p50, r.update_us.p99);
  }

  std::printf(
      "\nWorst-case client read stall during full-database serves\n"
      "(the lock-convoy component in isolation; 1 KiB values)\n\n");
  std::printf("%7s %8s %15s\n", "shards", "items", "max stall (us)");
  const int kStallItems = 20000;
  double stall1 = MaxReadStallMicros(1, kStallItems);
  std::printf("%7d %8d %15.0f\n", 1, kStallItems, stall1);
  double stall16 = MaxReadStallMicros(16, kStallItems);
  std::printf("%7d %8d %15.0f\n", 16, kStallItems, stall16);
  if (stall16 > 0) {
    std::printf("\nstall reduction (1 shard / 16 shards): %.1fx\n",
                stall1 / stall16);
  }
  return 0;
}
