// Experiment E4 (DESIGN.md): the log vector's memory is bounded by
// n · N records no matter how many updates flow through the system (§4.2):
// each component L_ij keeps only the latest record per data item.
//
// A naive append-only log grows with the update count; this table shows the
// paper's log staying at its bound while updates grow by orders of
// magnitude.
//
// A second table measures what the per-item control state costs in bytes:
// the resident-set growth per item, minus the value itself, of a sharded
// node loaded with 100k items. A third row measures a catch-up: the peak
// resident set of copying those 100k items into an empty node with one
// complete pull, per item beyond the value — the recipient's store plus
// whatever the pull holds at once (the reply pieces and the frame). `--json`
// prints only these two, as JSON, for scripts/run_benchmarks.sh (which
// gates the n = 3 row and the catch-up row).

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "common/buffer_pool.h"
#include "common/random.h"
#include "core/replica.h"
#include "core/sharded_replica.h"
#include "runtime/task.h"
#include "server/sharded_exchange.h"

namespace {

using epidemic::PropagateOnce;
using epidemic::Replica;
using epidemic::Rng;

void RunRow(uint64_t total_updates, uint64_t num_items, size_t num_nodes) {
  // All nodes update a shared item space and gossip on a ring, so every
  // node's log vector sees records from every origin.
  std::vector<std::unique_ptr<Replica>> nodes;
  for (epidemic::NodeId i = 0; i < num_nodes; ++i) {
    nodes.push_back(std::make_unique<Replica>(i, num_nodes));
  }
  Rng rng(13);
  for (uint64_t u = 0; u < total_updates; ++u) {
    // Single-writer key ranges to keep the run conflict-free: item k is
    // owned by node k mod n.
    uint64_t k = rng.Uniform(num_items);
    epidemic::NodeId owner = static_cast<epidemic::NodeId>(k % num_nodes);
    (void)nodes[owner]->Update("k" + std::to_string(k),
                               "v" + std::to_string(u));
    if (u % 64 == 0) {
      epidemic::NodeId i =
          static_cast<epidemic::NodeId>(rng.Uniform(num_nodes));
      (void)PropagateOnce(*nodes[(i + 1) % num_nodes], *nodes[i]);
    }
  }
  // Converge so logs are maximally populated.
  for (size_t pass = 0; pass < num_nodes; ++pass) {
    for (epidemic::NodeId i = 0; i < num_nodes; ++i) {
      (void)PropagateOnce(*nodes[(i + 1) % num_nodes], *nodes[i]);
    }
  }

  size_t max_records = 0;
  for (const auto& node : nodes) {
    max_records = std::max(max_records, node->log_vector().TotalRecords());
  }
  const uint64_t bound = num_items * num_nodes;
  std::printf("%12llu %10llu %8zu %16zu %14llu %9s\n",
              static_cast<unsigned long long>(total_updates),
              static_cast<unsigned long long>(num_items), num_nodes,
              max_records, static_cast<unsigned long long>(bound),
              max_records <= bound ? "yes" : "NO");
}

// The value of `key` ("VmRSS:", "VmHWM:") in /proc/self/status, in
// bytes, or -1 when unavailable.
long StatusBytes(const char* key) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return -1;
  char line[256];
  long kb = -1;
  const size_t key_len = std::strlen(key);
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, key, key_len) == 0) {
      kb = std::strtol(line + key_len, nullptr, 10);
      break;
    }
  }
  std::fclose(f);
  return kb < 0 ? -1 : kb * 1024;
}

// Runs `measure` in a forked child and returns its result (-1 on failure),
// so memory an earlier row freed cannot be reused and hide growth, and the
// child's high-water mark is its own.
double InChild(const std::function<double()>& measure) {
  int fds[2];
  if (pipe(fds) != 0) return -1;
  const pid_t child = fork();
  if (child == 0) {
    close(fds[0]);
    const double result = measure();
    const ssize_t written = write(fds[1], &result, sizeof(result));
    _exit(written == sizeof(result) ? 0 : 1);
  }
  close(fds[1]);
  double result = -1;
  if (child > 0 && read(fds[0], &result, sizeof(result)) !=
                       static_cast<ssize_t>(sizeof(result))) {
    result = -1;
  }
  close(fds[0]);
  if (child > 0) waitpid(child, nullptr, 0);
  return result;
}

// Loads `items` items named q.k<i> with `value_bytes`-byte values into
// `replica` through `exchange`'s scheduler, as a daemon's client updates
// arrive.
void Load(epidemic::ShardedReplica& replica,
          epidemic::server::ShardedExchange& exchange, size_t items,
          size_t value_bytes) {
  const std::string value(value_bytes, 'v');
  for (size_t i = 0; i < items; ++i) {
    const std::string name = "q.k" + std::to_string(i);
    exchange.sched().Execute(
        replica.ShardOf(name), epidemic::runtime::TaskKind::kLocalUpdate,
        /*mutates=*/true, [&](const epidemic::runtime::ShardToken& token) {
          epidemic::runtime::AssertShardContext(token);
          (void)replica.Update(name, value);
        });
  }
}

struct MemoryRow {
  size_t nodes;
  size_t shards;
  size_t items;
  size_t value_bytes;
  double overhead_bytes_per_item;  // RSS growth per item minus value_bytes
};

// Loads `items` items into a fresh ShardedReplica and reports the RSS
// growth per item beyond the value.
MemoryRow MeasureMemoryRow(size_t nodes, size_t shards, size_t items,
                           size_t value_bytes) {
  const double per_item = InChild([=] {
    epidemic::ShardedReplica replica(0, nodes, shards);
    epidemic::BufferPool pool;
    epidemic::server::ShardedExchange exchange(replica, pool);
    const long before = StatusBytes("VmRSS:");
    Load(replica, exchange, items, value_bytes);
    const long after = StatusBytes("VmRSS:");
    if (before < 0 || after < 0) return -1.0;
    return static_cast<double>(after - before) / static_cast<double>(items) -
           static_cast<double>(value_bytes);
  });
  return MemoryRow{nodes, shards, items, value_bytes, per_item};
}

std::vector<MemoryRow> MemoryRows() {
  std::vector<MemoryRow> rows;
  for (size_t nodes : {3u, 8u}) {
    rows.push_back(MeasureMemoryRow(nodes, /*shards=*/16, /*items=*/100000,
                                    /*value_bytes=*/256));
  }
  return rows;
}

// Loads `items` items into a source node, then copies them into an empty
// node with one PullSharded, and reports (VmHWM after the pull − VmRSS
// before it) per item beyond the value: the recipient's store plus the
// pull's peak in flight. Without a serve budget that peak holds the whole
// reply twice, as pieces and as the flattened frame.
MemoryRow MeasureCatchUpRow(size_t nodes, size_t shards, size_t items,
                            size_t value_bytes) {
  const double per_item = InChild([=] {
    epidemic::ShardedReplica source(0, nodes, shards);
    epidemic::ShardedReplica recipient(1, nodes, shards);
    epidemic::BufferPool pool;
    epidemic::server::ShardedExchange from(source, pool);
    epidemic::server::ShardedExchange to(recipient, pool);
    Load(source, from, items, value_bytes);
    const long before = StatusBytes("VmRSS:");
    auto copied = epidemic::server::PullSharded(to, from);
    const long peak = StatusBytes("VmHWM:");
    if (!copied.ok() || *copied != items || before < 0 || peak < 0) {
      return -1.0;
    }
    return static_cast<double>(peak - before) / static_cast<double>(items) -
           static_cast<double>(value_bytes);
  });
  return MemoryRow{nodes, shards, items, value_bytes, per_item};
}

void PrintJsonRow(const MemoryRow& r, const char* key) {
  std::printf(
      "{\"nodes\": %zu, \"shards\": %zu, \"items\": %zu, "
      "\"value_bytes\": %zu, \"%s\": %.1f}",
      r.nodes, r.shards, r.items, r.value_bytes, key,
      r.overhead_bytes_per_item);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--json") == 0) {
    std::printf("{\"memory_rows\": [");
    const std::vector<MemoryRow> rows = MemoryRows();
    for (size_t i = 0; i < rows.size(); ++i) {
      std::printf("%s\n  ", i == 0 ? "" : ",");
      PrintJsonRow(rows[i], "overhead_bytes_per_item");
    }
    std::printf("\n],\n\"catchup_row\": ");
    PrintJsonRow(MeasureCatchUpRow(/*nodes=*/3, /*shards=*/16,
                                   /*items=*/100000, /*value_bytes=*/256),
                 "peak_bytes_per_item");
    std::printf("}\n");
    return 0;
  }
  std::printf(
      "E4: log-vector memory stays bounded by n*N records (paper §4.2)\n\n");
  std::printf("%12s %10s %8s %16s %14s %9s\n", "updates", "items", "nodes",
              "max_log_records", "bound_n*N", "bounded?");
  for (uint64_t updates : {1000ull, 10000ull, 100000ull, 1000000ull}) {
    RunRow(updates, /*num_items=*/500, /*num_nodes=*/4);
  }
  std::printf("\n");
  for (uint64_t items : {100ull, 1000ull, 10000ull}) {
    RunRow(/*total_updates=*/200000, items, /*num_nodes=*/4);
  }
  std::printf("\n");
  for (size_t nodes : {2ull, 4ull, 8ull}) {
    RunRow(/*total_updates=*/100000, /*num_items=*/500, nodes);
  }
  std::printf(
      "\nshape check: records track min(updates, n*N) and never exceed the\n"
      "bound, while an append-only log would hold one record per update.\n");

  std::printf(
      "\nE4 memory: RSS growth per item beyond its value, sharded node\n\n");
  std::printf("%8s %8s %10s %12s %22s\n", "nodes", "shards", "items",
              "value_bytes", "overhead_B_per_item");
  for (const MemoryRow& r : MemoryRows()) {
    std::printf("%8zu %8zu %10zu %12zu %22.1f\n", r.nodes, r.shards, r.items,
                r.value_bytes, r.overhead_bytes_per_item);
  }
  std::printf(
      "\nE4 catch-up: peak RSS per item beyond its value while one pull\n"
      "copies the node into an empty one\n\n");
  std::printf("%8s %8s %10s %12s %22s\n", "nodes", "shards", "items",
              "value_bytes", "peak_B_per_item");
  const MemoryRow c = MeasureCatchUpRow(3, 16, 100000, 256);
  std::printf("%8zu %8zu %10zu %12zu %22.1f\n", c.nodes, c.shards, c.items,
              c.value_bytes, c.overhead_bytes_per_item);
  return 0;
}
