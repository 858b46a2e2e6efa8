// Experiment E3 (DESIGN.md): the per-update bookkeeping the protocol adds
// on top of applying the update itself is constant — IVV increment, DBVV
// increment, and the O(1) AddLogRecord of §4.2 / Fig. 1 — regardless of
// database size or how many updates the log has absorbed.

#include <benchmark/benchmark.h>

#include <string>

#include "core/replica.h"
#include "log/log_vector.h"

namespace {

using epidemic::ItemId;
using epidemic::OriginLog;
using epidemic::Replica;

// Full user-update path at a replica whose database already holds
// `range(0)` items: must be flat across sizes.
void BM_UpdateExistingItem(benchmark::State& state) {
  const int64_t num_items = state.range(0);
  Replica r(0, 4);
  for (int64_t i = 0; i < num_items; ++i) {
    (void)r.Update("k" + std::to_string(i), "v");
  }
  int64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        r.Update("k" + std::to_string(i++ % num_items), "w"));
  }
  state.counters["N_items"] = static_cast<double>(num_items);
  state.SetItemsProcessed(state.iterations());
}

// Raw AddLogRecord: replacing the latest record for one of `range(0)`
// items, O(1) by construction (a splice through x's slot P(x)).
void BM_AddLogRecord(benchmark::State& state) {
  const int64_t num_items = state.range(0);
  OriginLog log;
  epidemic::UpdateCount seq = 0;
  ItemId item = 0;
  for (auto _ : state) {
    log.AddLogRecord(item, ++seq);
    item = static_cast<ItemId>((item + 1) % num_items);
  }
  state.counters["N_items"] = static_cast<double>(num_items);
  state.SetItemsProcessed(state.iterations());
}

// Update of the same item over and over: the log must not grow (one
// record), so neither time nor memory depends on update count.
void BM_RepeatedSameItem(benchmark::State& state) {
  Replica r(0, 4);
  (void)r.Update("hot", "v");
  for (auto _ : state) {
    benchmark::DoNotOptimize(r.Update("hot", "w"));
  }
  state.counters["log_records_total"] =
      static_cast<double>(r.log_vector().TotalRecords());
  state.SetItemsProcessed(state.iterations());
}

}  // namespace

BENCHMARK(BM_UpdateExistingItem)
    ->RangeMultiplier(16)
    ->Range(1 << 8, 1 << 20);
BENCHMARK(BM_AddLogRecord)->RangeMultiplier(16)->Range(1 << 8, 1 << 20);
BENCHMARK(BM_RepeatedSameItem);

BENCHMARK_MAIN();
