// Ablation A2: computing the item set S with the paper's IsSelected flag
// (§6) vs a general-purpose hash set.
//
// SendPropagation must union the items referenced by all tails D_k. The
// paper stores a flag in each item's control state (reachable for free from
// the log record), making the union O(1) per record with zero allocation.
// The obvious alternative — an unordered_set of item ids built per request —
// allocates and hashes. This benchmark measures the dedup step in isolation
// on identical tail shapes.

#include <benchmark/benchmark.h>

#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "common/random.h"
#include "core/replica.h"

namespace {

using epidemic::NodeId;
using epidemic::PropagationRequest;
using epidemic::PropagationResponseView;
using epidemic::Replica;
using epidemic::Rng;

// Builds a source replica whose next propagation response will reference
// `dirty` items from `origins` different origins (so the same item appears
// in several tails and the dedup step actually has duplicates to remove).
struct Fixture {
  std::unique_ptr<Replica> src;
  PropagationRequest req;

  Fixture(int64_t dirty, size_t origins) {
    const size_t n = origins + 1;
    std::vector<std::unique_ptr<Replica>> writers;
    for (NodeId i = 0; i < origins; ++i) {
      writers.push_back(std::make_unique<Replica>(i, n));
    }
    src = std::make_unique<Replica>(static_cast<NodeId>(origins), n);

    // Each origin in turn syncs with the hub, rewrites every dirty item,
    // and hands the batch back — sequenced through propagation so the
    // writes never conflict. Afterwards the hub's log references every
    // item once per origin, so a cold requester's tails carry `origins`
    // duplicates of each item for the dedup step to collapse.
    for (NodeId i = 0; i < origins; ++i) {
      (void)epidemic::PropagateOnce(*src, *writers[i]);
      for (int64_t k = 0; k < dirty; ++k) {
        (void)writers[i]->Update("k" + std::to_string(k), "v");
      }
      (void)epidemic::PropagateOnce(*writers[i], *src);
    }
    req = PropagationRequest{0, epidemic::VersionVector(n)};
  }
};

// The real SendPropagation (IsSelected flags).
void BM_SelectedFlag(benchmark::State& state) {
  Fixture fx(state.range(0), /*origins=*/4);
  for (auto _ : state) {
    const PropagationResponseView& resp =
        fx.src->HandlePropagationView(fx.req);
    benchmark::DoNotOptimize(resp.items.size());
  }
  state.counters["dirty_items"] = static_cast<double>(state.range(0));
}

// The ablation: identical tail walk, but S computed with a hash set.
void BM_HashSetDedup(benchmark::State& state) {
  Fixture fx(state.range(0), /*origins=*/4);
  for (auto _ : state) {
    // Collect the tails exactly as SendPropagation would...
    const PropagationResponseView& resp =
        fx.src->HandlePropagationView(fx.req);
    // ...then redo the union with a hash set over item names, the way a
    // protocol without per-item control-state flags must.
    std::unordered_set<std::string_view> selected;
    size_t items = 0;
    for (const auto& tail : resp.tails) {
      for (const auto& rec : tail) {
        if (selected.insert(rec.item_name).second) ++items;
      }
    }
    benchmark::DoNotOptimize(items);
  }
  state.counters["dirty_items"] = static_cast<double>(state.range(0));
}

}  // namespace

BENCHMARK(BM_SelectedFlag)
    ->RangeMultiplier(8)
    ->Range(64, 1 << 14)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_HashSetDedup)
    ->RangeMultiplier(8)
    ->Range(64, 1 << 14)
    ->Unit(benchmark::kMicrosecond);

BENCHMARK_MAIN();
