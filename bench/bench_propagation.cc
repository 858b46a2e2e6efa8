// Experiment E2 (DESIGN.md): update-propagation cost is O(m) in the number
// of data items actually copied, independent of the database size N (§6).
//
// Part A fixes N = 65536 items and sweeps m (dirty items per exchange).
// Part B fixes m = 64 and sweeps N: the paper's protocol must stay flat,
// while a per-item pass grows with N.
//
// Parts A and B run the in-process zero-copy exchange (PropagateOnce: the
// source's response view applied directly). Part C (wire v3, DESIGN.md
// §10) measures the daemon's sharded exchange (server/sharded_exchange.h)
// through the frame bytes an epidemicd sends.

#include <benchmark/benchmark.h>

#include <string>
#include <utility>
#include <vector>

#include "core/replica.h"
#include "core/sharded_replica.h"
#include "net/codec.h"
#include "server/sharded_exchange.h"

#ifndef EPI_BUILD_TYPE
#define EPI_BUILD_TYPE "unknown"
#endif

namespace {

using epidemic::BufferPool;
using epidemic::PropagateOnce;
using epidemic::Replica;
using epidemic::ShardedPropagationRequest;
using epidemic::ShardedReplica;
using epidemic::server::ShardedExchange;

// Values sized like small real documents (matches bench_message_size's
// convention); big enough to defeat SSO so every copy into the store is a
// real allocation.
constexpr size_t kValueLen = 256;

// Builds two converged replicas holding `n` items.
void Preload(Replica& src, Replica& dst, int64_t n) {
  const std::string value(kValueLen, 'a');
  for (int64_t i = 0; i < n; ++i) {
    (void)src.Update("k" + std::to_string(i), value);
  }
  (void)PropagateOnce(src, dst);
}

// Measures one exchange that ships exactly `m` dirty items.
void MeasureExchange(benchmark::State& state, int64_t n, int64_t m) {
  ShardedReplica src_node(0, 2, /*num_shards=*/1), dst_node(1, 2, 1);
  Replica& src = src_node.shard(0);
  Replica& dst = dst_node.shard(0);
  Preload(src, dst, n);
  src.ResetStats();
  int tick = 0;

  for (auto _ : state) {
    state.PauseTiming();
    ++tick;
    const std::string value(kValueLen, static_cast<char>('a' + tick % 26));
    for (int64_t i = 0; i < m; ++i) {
      (void)src.Update("k" + std::to_string(i), value);
    }
    state.ResumeTiming();
    benchmark::DoNotOptimize(PropagateOnce(src, dst));
  }

  state.counters["N_items"] = static_cast<double>(n);
  state.counters["m_dirty"] = static_cast<double>(m);
  state.counters["records_selected"] = benchmark::Counter(
      static_cast<double>(src.stats().log_records_selected),
      benchmark::Counter::kAvgIterations);
  state.counters["items_shipped"] = benchmark::Counter(
      static_cast<double>(src.stats().items_shipped),
      benchmark::Counter::kAvgIterations);

  // Untimed: the wire frame one such exchange would produce, so these rows
  // report frame_bytes like the sharded-wire rows do — the one-shard v3
  // reply (tag 18) the daemon's serve writes for the two one-shard nodes.
  // The exchanges' scheduler ran no mutating task, so the
  // envelope carries epoch 1, one or two bytes shorter than a daemon's.
  // Dirty the same m items again — the replicas are converged after the
  // loop, so a fresh burst reproduces the shape.
  {
    const std::string value(kValueLen, 'z');
    for (int64_t i = 0; i < m; ++i) {
      (void)src.Update("k" + std::to_string(i), value);
    }
    BufferPool pool;
    ShardedExchange from(src_node, pool), to(dst_node, pool);
    const std::string frame = from.ServeFrame(to.Handshake());
    state.counters["frame_bytes"] = static_cast<double>(frame.size());
  }
}

void BM_SweepDirtyItems(benchmark::State& state) {
  MeasureExchange(state, /*n=*/65536, /*m=*/state.range(0));
}

void BM_SweepDatabaseSize(benchmark::State& state) {
  MeasureExchange(state, /*n=*/state.range(0), /*m=*/64);
}

// A local update as a task on its shard, the way ReplicaServer::Update
// runs it, so the mutation epoch the reply envelope carries counts it.
void UpdateInTask(ShardedExchange& node, const std::string& name,
                  const std::string& value) {
  using epidemic::runtime::ShardToken;
  ShardedReplica& rep = node.replica();
  node.sched().Execute(rep.ShardOf(name),
                       epidemic::runtime::TaskKind::kLocalUpdate,
                       /*mutates=*/true, [&](const ShardToken&) {
                         (void)rep.Update(name, value);
                       });
}

// One sharded anti-entropy exchange as the daemons run it: the handshake
// snapshot, its request frame through the codec, the serve into the reply
// frame an epidemicd sends, the zero-copy envelope decode and the accept
// (tags 17/18: delta segments, one task per shard on each side).
void BM_ShardedWireExchangeV3(benchmark::State& state) {
  constexpr int64_t kDbItems = 65536;  // database size N
  constexpr int64_t kDirty = 4096;     // m dirty items per exchange
  constexpr size_t kShards = 8;
  constexpr size_t kNodes = 16;  // wide IVVs: where delta encoding pays
  ShardedReplica src(0, kNodes, kShards), dst(1, kNodes, kShards);
  BufferPool pool;
  ShardedExchange from(src, pool), to(dst, pool);
  const std::string preload_value(kValueLen, 'a');
  for (int64_t i = 0; i < kDbItems; ++i) {
    UpdateInTask(from, "k" + std::to_string(i), preload_value);
  }
  (void)epidemic::server::PullSharded(to, from);
  int tick = 0;
  uint64_t bytes = 0;
  uint64_t exchanges = 0;

  for (auto _ : state) {
    state.PauseTiming();
    ++tick;
    const std::string value(kValueLen, static_cast<char>('a' + tick % 26));
    for (int64_t i = 0; i < kDirty; ++i) {
      UpdateInTask(from, "k" + std::to_string(i), value);
    }
    state.ResumeTiming();

    auto req = epidemic::net::Decode(
        epidemic::net::Encode(epidemic::net::Message(to.Handshake())));
    const std::string frame =
        from.ServeFrame(std::get<ShardedPropagationRequest>(*req));
    bytes += frame.size();
    ++exchanges;
    benchmark::DoNotOptimize(to.AcceptFrame(frame));
  }

  state.counters["N_items"] = static_cast<double>(kDbItems);
  state.counters["m_dirty"] = static_cast<double>(kDirty);
  state.counters["frame_bytes"] = exchanges > 0
      ? static_cast<double>(bytes) / static_cast<double>(exchanges)
      : 0.0;
}

}  // namespace

BENCHMARK(BM_SweepDirtyItems)
    ->RangeMultiplier(4)
    ->Range(1, 1 << 12)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_SweepDatabaseSize)
    ->RangeMultiplier(8)
    ->Range(1 << 10, 1 << 18)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_ShardedWireExchangeV3)->Unit(benchmark::kMicrosecond);

// Custom main so the JSON context says what build produced OUR code. The
// google-benchmark *library* build type is reported separately by the
// library itself (library_build_type) — see the note in
// scripts/run_benchmarks.sh about the distro-prebuilt library.
int main(int argc, char** argv) {
  benchmark::AddCustomContext("epi_build_type", EPI_BUILD_TYPE);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
