// Persistence substrate benchmark: snapshot encode/decode and journal
// append/replay throughput as the replica grows. Not a paper experiment —
// it sizes the durability machinery added on top (DESIGN.md §6 extensions)
// so checkpoint cadence can be chosen sensibly.

#include <benchmark/benchmark.h>

#include <filesystem>
#include <string>

#include "core/journal.h"
#include "core/replica.h"
#include "core/snapshot.h"

namespace {

using epidemic::DecodeSnapshot;
using epidemic::EncodeSnapshot;
using epidemic::Journal;
using epidemic::Replica;

void Populate(Replica& r, int64_t items) {
  for (int64_t i = 0; i < items; ++i) {
    (void)r.Update("item" + std::to_string(i), std::string(64, 'x'));
  }
}

void BM_SnapshotEncode(benchmark::State& state) {
  Replica r(0, 4);
  Populate(r, state.range(0));
  size_t bytes = 0;
  for (auto _ : state) {
    std::string blob = EncodeSnapshot(r);
    bytes = blob.size();
    benchmark::DoNotOptimize(blob);
  }
  state.counters["items"] = static_cast<double>(state.range(0));
  state.counters["snapshot_bytes"] = static_cast<double>(bytes);
  state.SetBytesProcessed(static_cast<int64_t>(bytes) * state.iterations());
}

void BM_SnapshotDecode(benchmark::State& state) {
  Replica r(0, 4);
  Populate(r, state.range(0));
  std::string blob = EncodeSnapshot(r);
  for (auto _ : state) {
    auto restored = DecodeSnapshot(blob);
    benchmark::DoNotOptimize(restored.ok());
  }
  state.counters["items"] = static_cast<double>(state.range(0));
  state.SetBytesProcessed(static_cast<int64_t>(blob.size()) *
                          state.iterations());
}

void BM_JournaledUpdate(benchmark::State& state) {
  const std::string dir = "/tmp/epidemic_bench_journal";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  auto jr = Journal::Open(dir, 0, 4);
  if (!jr.ok()) {
    state.SkipWithError("cannot open journal dir");
    return;
  }
  int64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        (*jr)->Update("item" + std::to_string(i++ % 128), "value"));
  }
  state.SetItemsProcessed(state.iterations());
  std::filesystem::remove_all(dir);
}

void BM_JournalRecovery(benchmark::State& state) {
  const std::string dir = "/tmp/epidemic_bench_recovery";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  {
    auto jr = Journal::Open(dir, 0, 4);
    if (!jr.ok()) {
      state.SkipWithError("cannot open journal dir");
      return;
    }
    for (int64_t i = 0; i < state.range(0); ++i) {
      (void)(*jr)->Update("item" + std::to_string(i % 128), "value");
    }
  }
  for (auto _ : state) {
    auto recovered = Journal::Open(dir, 0, 4);
    benchmark::DoNotOptimize(recovered.ok());
  }
  state.counters["journal_records"] = static_cast<double>(state.range(0));
  std::filesystem::remove_all(dir);
}

}  // namespace

BENCHMARK(BM_SnapshotEncode)
    ->RangeMultiplier(16)
    ->Range(1 << 8, 1 << 16)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_SnapshotDecode)
    ->RangeMultiplier(16)
    ->Range(1 << 8, 1 << 16)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_JournaledUpdate)->Iterations(1 << 14);
BENCHMARK(BM_JournalRecovery)
    ->RangeMultiplier(8)
    ->Range(1 << 10, 1 << 16)
    ->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
