// Shared pieces of the end-to-end benchmark driver: run configuration,
// sample statistics, the in-memory span tracer, daemon counter parsing and
// the forked 3-node `epidemicd` cluster.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <sys/types.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "net/tcp_transport.h"
#include "server/replica_server.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Cluster shape of every workload and of the in-process layer runs: three
/// nodes, each `epidemicd --shards=16`.
inline constexpr int kNodes = 3;
inline constexpr int kShards = 16;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}
inline double UsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e3;
}

/// Command-line settings of one benchmark run.
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string daemon;   // path of the epidemicd binary built from this checkout
  std::string workdir;  // scratch directory inside the checkout
  std::vector<int> cpus;  // CPUs this process may use, in order
};

/// One reported metric.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Everything one run produces. `problems` non-empty means the run failed
/// a correctness or validity check and reports no metrics.
struct RunResult {
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> problems;
  /// Free-form description lines (key -> JSON value text) for the report.
  std::map<std::string, std::string> info;

  void Fail(const std::string& why) { problems.push_back(why); }
  void E2e(const std::string& name, double value, const std::string& unit) {
    end_to_end.push_back({name, value, unit});
  }
  void Layer(const std::string& name, double value, const std::string& unit) {
    per_layer.push_back({name, value, unit});
  }
  void InfoNum(const std::string& key, double v);
  void InfoStr(const std::string& key, const std::string& v);
};

// ---------------------------------------------------------------------------
// Samples.

/// Latency samples in microseconds (or any unit) with nearest-rank
/// quantiles. Each sample remembers when it was recorded, so the reported
/// figures can be taken per time slice (see SlicedP50/SlicedTail).
class Samples {
 public:
  void Add(double v) { v_.push_back({NowNs(), v}); }
  void Append(const Samples& other) {
    v_.insert(v_.end(), other.v_.begin(), other.v_.end());
  }
  size_t size() const { return v_.size(); }
  bool empty() const { return v_.empty(); }
  double Quantile(double q) const;
  double Mean() const;
  double Sum() const;
  /// The highest quantile, capped at 0.99, that still has at least ten of
  /// `n` samples above it — the "p99" every report uses (see README.md).
  static double TailQ(size_t n);
  double Tail() const { return Quantile(TailQ(size())); }

  /// The run's samples in time order, cut into up to ten slices of equal
  /// count; the median over the slices of each slice's median (slices of
  /// at least 50 samples) or tail (at least 1000, so a slice's tail is its
  /// p99). A burst of outside interference, such as a periodic disk
  /// writeback, then moves one or two slices, not the reported figure.
  double SlicedP50() const { return Sliced(false); }
  double SlicedTail() const { return Sliced(true); }
  size_t Slices(bool tail) const;
  /// The tail quantile SlicedTail takes within each slice.
  double SliceTailQ() const { return TailQ(size() / Slices(true)); }
  /// Samples recorded per second in each whole `slice_ns` slice of
  /// [start_ns, end_ns): the rate of a closed loop over time.
  std::vector<double> SliceRates(int64_t start_ns, int64_t end_ns,
                                 int64_t slice_ns) const;

 private:
  double Sliced(bool tail) const;
  std::vector<std::pair<int64_t, double>> v_;  // (recorded at, value)
};

/// Median of a small set of values (the set-up repetitions).
double Median(std::vector<double> v);
/// Nearest-rank q-quantile of a set of values.
double QuantileOf(std::vector<double> v, double q);

// ---------------------------------------------------------------------------
// Tracing: spans kept in memory, written out when the run ends.

class Tracer {
 public:
  struct Span {
    const char* name = nullptr;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int64_t parent = -1;
  };

  static Tracer& Get();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void Enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  /// Opens a span; `parent` -1 means the calling thread's innermost open
  /// span. Returns the span id (-1 when tracing is off).
  int64_t Begin(const char* name, int64_t parent = -1);
  void End(int64_t id);

  /// Total and self (minus direct children) durations in microseconds of
  /// every span with this name.
  void Durations(const std::string& name, Samples* total, Samples* self) const;
  size_t span_count() const;
  /// Writes every span as one JSON line; returns false on I/O failure.
  bool WriteJsonLines(const std::string& path) const;

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span around one call into a layer.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, int64_t parent = -1)
      : id_(Tracer::Get().enabled() ? Tracer::Get().Begin(name, parent) : -1) {}
  ~ScopedSpan() {
    if (id_ >= 0) Tracer::Get().End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int64_t id() const { return id_; }

 private:
  int64_t id_;
};

// ---------------------------------------------------------------------------
// Daemon counters, parsed from the `stats` summary lines.

struct DaemonCounters {
  std::string dbvv;
  uint64_t updates = 0;
  uint64_t reads = 0;
  uint64_t prop_served = 0;
  uint64_t current_replies = 0;
  uint64_t items_shipped = 0;
  uint64_t items_adopted = 0;
  uint64_t conflicts = 0;
  uint64_t tasks = 0;
  uint64_t fast_path = 0;
  uint64_t queue_peak = 0;
  uint64_t opt_read_hits = 0;
  uint64_t calls = 0;
  uint64_t opened = 0;
  uint64_t reconnects = 0;
  uint64_t backoff_skips = 0;
  uint64_t bytes_sent = 0;
  uint64_t bytes_received = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;

  static bool Parse(const std::string& summary, DaemonCounters* out);
  /// Counter growth from `before` to this (queue_peak and dbvv keep the
  /// later value).
  DaemonCounters Since(const DaemonCounters& before) const;
  DaemonCounters& operator+=(const DaemonCounters& o);
};

/// Thread count and memory of a process, from /proc/<pid>/status, and its
/// CPU time (user + system, all threads) from /proc/<pid>/stat. Time the
/// guest kernel knows the hypervisor stole is charged to steal, not to the
/// task, so CPU time moves less than wall time when a shared host gets busy
/// (it still moves: cache and memory contention count, and so does steal
/// the guest does not see).
struct ProcStatus {
  uint64_t threads = 0;
  uint64_t vm_size_kb = 0;
  uint64_t vm_hwm_kb = 0;
  double cpu_us = 0;
  static bool Read(pid_t pid, ProcStatus* out);
};

// ---------------------------------------------------------------------------
// The forked cluster.

struct ClusterOptions {
  long ae_interval_ms = 0;  // 0 = driver-paced rounds only
  bool durable = false;     // --data-dir per daemon under the work dir
  /// Client slots: each driver thread gets its own TcpTransport, i.e. one
  /// pooled connection per daemon, opened before any timed window.
  int client_slots = 1;
};

/// kNodes real epidemicd processes on loopback, each pinned to its own CPU
/// before exec, plus per-thread client transports.
class Cluster {
 public:
  Cluster(const RunConfig& run, const ClusterOptions& opts, int instance);
  ~Cluster();
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Empty on success, otherwise why the cluster did not come up.
  const std::string& error() const { return error_; }

  epidemic::server::ReplicaClient& client(int slot, int node) {
    return clients_[static_cast<size_t>(slot)][static_cast<size_t>(node)];
  }
  epidemic::net::TcpTransport& transport(int slot) {
    return *transports_[static_cast<size_t>(slot)];
  }
  pid_t pid(int node) const { return pids_[static_cast<size_t>(node)]; }
  const std::string& data_dir(int node) const {
    return data_dirs_[static_cast<size_t>(node)];
  }
  /// "driver:cpuA d0:cpuB ..." — where every process was placed.
  const std::string& placement() const { return placement_; }

  /// Counters of every daemon (non-resetting `stats`).
  bool Counters(std::vector<DaemonCounters>* out);
  /// Stops every daemon and waits for it. Safe to call twice.
  void Shutdown();

 private:
  RunConfig run_;
  ClusterOptions opts_;
  std::string dir_;
  std::string error_;
  std::string placement_;
  std::vector<uint16_t> ports_;
  std::vector<pid_t> pids_;
  std::vector<std::string> data_dirs_;
  std::vector<std::unique_ptr<epidemic::net::TcpTransport>> transports_;
  std::vector<std::vector<epidemic::server::ReplicaClient>> clients_;
};

/// Pins the calling thread (and threads it creates later) to `cpu`, or to
/// every CPU in `cpus` when cpu < 0.
void PinSelf(int cpu, const std::vector<int>& cpus);

/// Sum of /proc VmHWM over the cluster's daemons, in MB.
double ClusterRssMb(const Cluster& c);

/// Removes a directory tree (best effort).
void RemoveTree(const std::string& path);

// ---------------------------------------------------------------------------
// Workloads and the in-process layer measurements.

RunResult RunZipfSteady(const RunConfig& cfg);
RunResult RunBulkCatchup(const RunConfig& cfg);
RunResult RunQuiescent(const RunConfig& cfg);

/// Exchange shape the in-process layer measurements reproduce.
struct LayerShape {
  size_t preload_items = 0;
  size_t value_len = 0;
  size_t items_per_pull = 0;  // m; 0 = quiescent probe exchange
  bool durable = false;       // the workload's daemons journal
};

/// In-process per-layer timings (net, server, runtime, core, wire,
/// journal) for the workload's exchange shape. Appends per_layer metrics.
void MeasureLayers(const RunConfig& cfg, const LayerShape& shape,
                   RunResult* out);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
