// The three workloads: zipf-steady, bulk-catchup and quiescent (README.md
// explains why each exists and which layer it stresses).
//
// Every input is generated here from the run seed; the daemons only ever
// see the resulting client operations. Each workload keeps a model of the
// content it wrote and, after the timed window, checks every node against
// it (see FinalChecks).
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "bench.h"
#include "common/random.h"
#include "sim/workload.h"

namespace perfbench {
namespace {

using epidemic::Rng;
using Model = std::unordered_map<std::string, std::string>;

constexpr int kSetupRepetitions = 3;

// zipf-steady.
constexpr uint64_t kZipfItemsPerOrigin = 20000;
constexpr double kZipfOpsPerSec = 1500;
constexpr double kZipfUpdateShare = 0.3;
constexpr long kZipfAeIntervalMs = 2;
constexpr int64_t kZipfLagPeriodNs = 10'000'000;  // one marker every 10 ms
constexpr int kZipfWarmupOps = 600;

// bulk-catchup and quiescent.
constexpr uint64_t kBulkItems = 100000;
constexpr size_t kBulkValueLen = 256;
constexpr size_t kBulkDirtyPerRound = 2000;
constexpr int kBulkWarmupRounds = 2;
constexpr double kPacedReadsPerSec = 1000;
constexpr int kQuiescentMarkers = 4000;
constexpr int64_t kQuiescentSweepPeriodNs = 1'000'000;
constexpr int64_t kQuiescentRateSliceNs = 1'000'000'000;

// A timed window in which the hypervisor stole more than this share of the
// host's CPU time is measured again while the run's measuring budget lasts;
// if every attempt was that noisy the run is invalid (README.md, "Hygiene").
// quiescent's wake-up bound probe loop moves most with steal, so its limit
// is the tighter one. The budget keeps a run, set-up and traced layers
// included, well inside three minutes.
constexpr double kMaxStealFrac = 0.10;
constexpr double kQuiescentMaxStealFrac = 0.06;
constexpr int64_t kMeasureBudgetNs = 110'000'000'000;

constexpr int64_t kLagPollNs = 100'000;          // lag poll period
constexpr int64_t kLagTimeoutNs = 5'000'000'000;  // marker never arrived

// ---------------------------------------------------------------------------
// Helpers.

/// Closed-loop driver threads yield the driver's CPU to the paced ones, so
/// a paced request's latency is not the wait for its own driver thread.
void LowerPriority() { ::setpriority(PRIO_PROCESS, static_cast<id_t>(::gettid()), 10); }

void SleepUntilNs(int64_t ns) {
  std::this_thread::sleep_until(Clock::time_point(std::chrono::nanoseconds(ns)));
}

std::string MakeValue(Rng& rng, size_t len, const std::string& tag) {
  std::string v = tag;
  while (v.size() < len) {
    uint64_t x = rng.Next();
    for (int b = 0; b < 16 && v.size() < len; ++b, x >>= 4) {
      v.push_back(static_cast<char>('a' + (x & 15)));
    }
  }
  return v;
}

uint64_t Fnv(uint64_t h, std::string_view s) {
  for (unsigned char c : s) h = (h ^ c) * 1099511628211ULL;
  return (h ^ 0xff) * 1099511628211ULL;  // field separator
}

uint64_t DigestPairs(std::vector<std::pair<std::string, std::string>> kv) {
  std::sort(kv.begin(), kv.end());
  uint64_t h = 1469598103934665603ULL;
  for (const auto& [k, v] : kv) h = Fnv(Fnv(h, k), v);
  return h;
}

std::string Hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// Per-thread operation tallies, merged after the threads join.
struct OpTally {
  Samples update_us;
  Samples read_us;
  Samples sync_us;
  Samples late_us;
  Samples lag_ms;
  Samples poll_gap_us;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t updates_acked = 0;
  std::vector<std::string> errors;

  void Merge(const OpTally& o) {
    update_us.Append(o.update_us);
    read_us.Append(o.read_us);
    sync_us.Append(o.sync_us);
    late_us.Append(o.late_us);
    lag_ms.Append(o.lag_ms);
    poll_gap_us.Append(o.poll_gap_us);
    attempted += o.attempted;
    failed += o.failed;
    updates_acked += o.updates_acked;
    errors.insert(errors.end(), o.errors.begin(), o.errors.end());
  }
  void Fail(const std::string& what, const epidemic::Status& s) {
    ++failed;
    if (errors.size() < 5) errors.push_back(what + ": " + s.ToString());
  }
};

/// Timed client calls (spans named after the layer they enter).
epidemic::Status TimedUpdate(epidemic::server::ReplicaClient& c,
                             const std::string& k, const std::string& v,
                             int64_t from_ns, OpTally* t) {
  ScopedSpan span("client.update");
  ++t->attempted;
  epidemic::Status s = c.Update(k, v);
  t->update_us.Add(UsSince(from_ns));
  if (s.ok()) {
    ++t->updates_acked;
  } else {
    t->Fail("update " + k, s);
  }
  return s;
}

epidemic::Result<std::string> TimedRead(epidemic::server::ReplicaClient& c,
                                        const std::string& k, int64_t from_ns,
                                        OpTally* t) {
  ScopedSpan span("client.read");
  ++t->attempted;
  epidemic::Result<std::string> r = c.Read(k);
  t->read_us.Add(UsSince(from_ns));
  if (!r.ok() && !r.status().IsNotFound()) t->Fail("read " + k, r.status());
  return r;
}

epidemic::Status TimedSync(epidemic::server::ReplicaClient& c, int peer,
                           OpTally* t) {
  ScopedSpan span("client.sync");
  ++t->attempted;
  const int64_t start = NowNs();
  epidemic::Status s = c.TriggerSync(static_cast<epidemic::NodeId>(peer));
  t->sync_us.Add(UsSince(start));
  if (!s.ok()) t->Fail("sync from " + std::to_string(peer), s);
  return s;
}

/// Writes a marker at `origin` and polls the other nodes' Read until all
/// of them return it: one replication-lag sample (ack -> readable
/// everywhere), resolution one poll period plus a read round trip. Returns
/// whether the origin acknowledged the marker, i.e. whether it is now part
/// of the content the driver expects.
bool MeasureLag(Cluster& c, int slot, int origin, const std::string& key,
                const std::string& value, OpTally* t) {
  ScopedSpan span("driver.lag_marker");
  if (!TimedUpdate(c.client(slot, origin), key, value, NowNs(), t).ok()) return false;
  const int64_t ack = NowNs();
  std::vector<bool> seen(kNodes, false);
  seen[static_cast<size_t>(origin)] = true;
  int remaining = kNodes - 1;
  int64_t last_poll = ack;
  while (remaining > 0) {
    for (int j = 0; j < kNodes; ++j) {
      if (seen[static_cast<size_t>(j)]) continue;
      auto r = TimedRead(c.client(slot, j), key, NowNs(), t);
      if (r.ok() && *r == value) {
        seen[static_cast<size_t>(j)] = true;
        --remaining;
      }
    }
    const int64_t now = NowNs();
    if (remaining == 0) {
      t->lag_ms.Add(static_cast<double>(now - ack) / 1e6);
      return true;
    }
    t->poll_gap_us.Add(static_cast<double>(now - last_poll) / 1e3);
    last_poll = now;
    if (now - ack > kLagTimeoutNs) {
      t->Fail("lag marker " + value,
              epidemic::Status::Unavailable("never became readable"));
      return true;
    }
    SleepUntilNs(now + kLagPollNs);
  }
  return true;
}

/// Writes `kv` to `node` from one thread per slot in `slots`. Returns ""
/// or what failed.
std::string Preload(Cluster& c, const std::vector<int>& slots, int node,
             const std::vector<std::pair<std::string, std::string>>& kv) {
  std::atomic<uint64_t> failures{0};
  const size_t n = slots.size();
  const auto write_share = [&](size_t t) {
    for (size_t i = t; i < kv.size(); i += n) {
      if (!c.client(slots[t], node).Update(kv[i].first, kv[i].second).ok()) {
        failures.fetch_add(1);
      }
    }
  };
  std::vector<std::thread> threads;
  for (size_t t = 1; t < n; ++t) threads.emplace_back(write_share, t);
  write_share(0);  // the calling thread takes the first share
  for (std::thread& th : threads) th.join();
  return failures.load() == 0
             ? ""
             : std::to_string(failures.load()) + " preload update(s) failed";
}

/// Every ordered pair pulls once, `sweeps` times. Returns "" or the first
/// failure.
std::string SyncSweep(Cluster& c, int sweeps) {
  for (int s = 0; s < sweeps; ++s) {
    for (int i = 0; i < kNodes; ++i) {
      for (int j = 0; j < kNodes; ++j) {
        if (i == j) continue;
        const epidemic::Status st =
            c.client(0, i).TriggerSync(static_cast<epidemic::NodeId>(j));
        if (!st.ok()) {
          return "sync " + std::to_string(i) + "<-" + std::to_string(j) +
                 ": " + st.ToString();
        }
      }
    }
  }
  return "";
}

/// Builds `kSetupRepetitions` clusters from scratch with `setup` (which
/// returns "" or why it failed) and keeps the last; `*setup_s` is the
/// median set-up time.
std::unique_ptr<Cluster> SetUp(
    const RunConfig& cfg, const ClusterOptions& opts,
    const std::function<std::string(Cluster&, Model*)>& setup, Model* model,
    double* setup_s, RunResult* out) {
  std::vector<double> times;
  std::unique_ptr<Cluster> cluster;
  for (int rep = 0; rep < kSetupRepetitions; ++rep) {
    cluster.reset();
    model->clear();
    const int64_t start = NowNs();
    cluster = std::make_unique<Cluster>(cfg, opts, rep);
    if (!cluster->error().empty()) {
      out->Fail("cluster start: " + cluster->error());
      return nullptr;
    }
    const std::string failed = setup(*cluster, model);
    if (!failed.empty()) {
      out->Fail("set-up: " + failed);
      return nullptr;
    }
    times.push_back(static_cast<double>(NowNs() - start) / 1e9);
  }
  *setup_s = Median(times);
  out->InfoStr("placement", cluster->placement());
  return cluster;
}

/// Daemon counters and process hygiene around the timed window.
struct Window {
  std::vector<DaemonCounters> before, after;
  std::vector<ProcStatus> proc_before, proc_after;
  uint64_t driver_opened_before = 0, driver_opened_after = 0;
  int64_t start_ns = 0, end_ns = 0;
  uint64_t steal_before = 0, steal_after = 0, cpu_before = 0, cpu_after = 0;
  int slots = 0;

  /// Host CPU time stolen from this machine (virtualised hosts), and the
  /// total, in clock ticks from the first line of /proc/stat.
  static void CpuTicks(uint64_t* steal, uint64_t* total) {
    std::FILE* f = std::fopen("/proc/stat", "r");
    unsigned long long v[8] = {};
    if (f != nullptr) {
      if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0], &v[1],
                      &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) != 8) {
        v[7] = 0;
      }
      std::fclose(f);
    }
    *steal = v[7];
    *total = 0;
    for (unsigned long long x : v) *total += x;
  }

  uint64_t DriverOpened(Cluster& c) const {
    uint64_t n = 0;
    for (int s = 0; s < slots; ++s) n += c.transport(s).Stats(false).connections_opened;
    return n;
  }
  bool Begin(Cluster& c, int client_slots) {
    slots = client_slots;
    proc_before.assign(kNodes, ProcStatus{});
    for (int i = 0; i < kNodes; ++i) ProcStatus::Read(c.pid(i), &proc_before[static_cast<size_t>(i)]);
    driver_opened_before = DriverOpened(c);
    const bool ok = c.Counters(&before);
    CpuTicks(&steal_before, &cpu_before);
    start_ns = NowNs();
    return ok;
  }
  bool End(Cluster& c) {
    end_ns = NowNs();
    CpuTicks(&steal_after, &cpu_after);
    const bool ok = c.Counters(&after);
    driver_opened_after = DriverOpened(c);
    proc_after.assign(kNodes, ProcStatus{});
    for (int i = 0; i < kNodes; ++i) ProcStatus::Read(c.pid(i), &proc_after[static_cast<size_t>(i)]);
    return ok;
  }
  double seconds() const { return static_cast<double>(end_ns - start_ns) / 1e9; }
  /// Anti-entropy pulls per second over the whole window.
  double PullRate() const { return seconds() > 0 ? Pulls() / seconds() : 0; }
  /// Share of the host's CPU time the hypervisor stole in the window.
  double StealFrac() const {
    return cpu_after > cpu_before ? static_cast<double>(steal_after - steal_before) /
                                        static_cast<double>(cpu_after - cpu_before)
                                  : 0;
  }
  DaemonCounters Node(int i) const {
    return after[static_cast<size_t>(i)].Since(before[static_cast<size_t>(i)]);
  }
  DaemonCounters Total() const {
    DaemonCounters t;
    for (int i = 0; i < kNodes; ++i) t += Node(i);
    return t;
  }

  /// A run is invalid if the timed window opened connections or grew
  /// daemon threads: the numbers would then include connection set-up
  /// and per-connection thread churn, not steady-state work.
  void CheckHygiene(RunResult* out) const {
    const DaemonCounters t = Total();
    uint64_t threads_before = 0, threads_after = 0;
    double vm_growth_mb = 0;
    for (int i = 0; i < kNodes; ++i) {
      threads_before += proc_before[static_cast<size_t>(i)].threads;
      threads_after += proc_after[static_cast<size_t>(i)].threads;
      vm_growth_mb += (static_cast<double>(proc_after[static_cast<size_t>(i)].vm_size_kb) -
                       static_cast<double>(proc_before[static_cast<size_t>(i)].vm_size_kb)) /
                      1024.0;
    }
    const uint64_t driver_opened = driver_opened_after - driver_opened_before;
    out->InfoNum("hygiene.daemon_connections_opened", static_cast<double>(t.opened));
    out->InfoNum("hygiene.driver_connections_opened", static_cast<double>(driver_opened));
    out->InfoNum("hygiene.daemon_threads_start", static_cast<double>(threads_before));
    out->InfoNum("hygiene.daemon_threads_end", static_cast<double>(threads_after));
    out->InfoNum("hygiene.daemon_vmsize_growth_mb", vm_growth_mb);
    if (t.opened + driver_opened > 0) {
      out->Fail("invalid run: " + std::to_string(t.opened + driver_opened) +
                " connection(s) opened in the timed window");
    }
    if (threads_after > threads_before) {
      out->Fail("invalid run: daemon threads grew from " +
                std::to_string(threads_before) + " to " +
                std::to_string(threads_after) + " in the timed window");
    }
  }

  /// Anti-entropy pulls completed in the window, cluster-wide. A pull is
  /// one call when the epoch probe hits and two when it misses (probe +
  /// full handshake); every full handshake is either a serve (prop_served
  /// grows by the shard count) or a serve-cache replay.
  double Pulls() const {
    const DaemonCounters t = Total();
    const uint64_t full = t.prop_served / kShards + t.cache_hits;
    return static_cast<double>(t.calls > full ? t.calls - full : t.calls);
  }

  /// Per-layer ratios from the daemons' own counters (module-prefixed).
  void CounterLayers(RunResult* out) const {
    const DaemonCounters t = Total();
    const double pulls = Pulls();
    const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    const double bytes = static_cast<double>(t.bytes_sent + t.bytes_received);
    out->Layer("net.calls_per_pull", ratio(static_cast<double>(t.calls), pulls), "calls");
    out->Layer("net.bytes_per_pull", ratio(bytes, pulls), "B");
    out->Layer("net.connections_opened",
               static_cast<double>(t.opened + driver_opened_after - driver_opened_before),
               "count");
    out->Layer("net.reconnects", static_cast<double>(t.reconnects), "count");
    out->Layer("net.backoff_skips", static_cast<double>(t.backoff_skips), "count");
    const uint64_t lookups = t.cache_hits + t.cache_misses;
    out->Layer("server.serve_cache_hit_frac",
               ratio(static_cast<double>(t.cache_hits), static_cast<double>(lookups)),
               "ratio");
    out->InfoNum("base.serve_cache_lookups", static_cast<double>(lookups));
    out->Layer("server.current_reply_frac",
               ratio(static_cast<double>(t.current_replies),
                     static_cast<double>(t.prop_served)),
               "ratio");
    out->InfoNum("base.shard_serves", static_cast<double>(t.prop_served));
    out->Layer("server.shipped_per_adopted",
               ratio(static_cast<double>(t.items_shipped),
                     static_cast<double>(t.items_adopted)),
               "ratio");
    out->InfoNum("base.items_adopted", static_cast<double>(t.items_adopted));
    out->Layer("server.opt_read_hit_frac",
               ratio(static_cast<double>(t.opt_read_hits),
                     static_cast<double>(t.opt_read_hits + t.reads)),
               "ratio");
    out->InfoNum("base.daemon_reads", static_cast<double>(t.opt_read_hits + t.reads));
    out->Layer("runtime.tasks_per_pull", ratio(static_cast<double>(t.tasks), pulls),
               "tasks");
    out->Layer("runtime.fast_path_frac",
               ratio(static_cast<double>(t.fast_path), static_cast<double>(t.tasks)),
               "ratio");
    out->Layer("runtime.queue_peak", static_cast<double>(t.queue_peak), "tasks");
    out->InfoNum("base.pulls", pulls);
  }
};

/// Runs a measured phase — `measure` resets its own tallies and fills
/// `win` — and runs it again while the hypervisor stole more than
/// `max_steal` of the host's CPU time in it and another attempt still
/// ends before `deadline_ns`. If every attempt was that noisy the run is
/// invalid: the figures of a noisy host are measured again, not compared.
/// `what` names the phase in the report.
void MeasureWindow(const Window& win, const std::string& what, double max_steal,
                   int64_t deadline_ns, const std::function<void()>& measure,
                   RunResult* out) {
  int attempts = 0;
  for (;;) {
    const int64_t start = NowNs();
    measure();
    ++attempts;
    const int64_t now = NowNs();
    if (!out->problems.empty() || win.StealFrac() <= max_steal ||
        now + (now - start) > deadline_ns) {
      break;
    }
  }
  out->InfoNum("host." + what + "_attempts", attempts);
  out->InfoNum("host." + what + "_steal_frac", win.StealFrac());
  out->InfoNum("host." + what + "_max_steal_frac", max_steal);
  if (out->problems.empty() && win.StealFrac() > max_steal) {
    out->Fail("invalid run: the host's CPU steal exceeded " +
              std::to_string(max_steal) + " in each of " + std::to_string(attempts) +
              " attempts at the " + what + " (the last " +
              std::to_string(win.StealFrac()) + "); measure again on a calmer host");
  }
}

/// Waits until every node reports the same aggregate DBVV — for clusters
/// whose own background anti-entropy moves the data. A driver-triggered
/// pull there could run concurrently with a background pull on the same
/// node, which the daemon rejects ("not an ordered suffix beyond our
/// horizon"), so such clusters are never swept by the driver.
std::string WaitConverged(Cluster& c, std::vector<DaemonCounters>* counters) {
  const int64_t deadline = NowNs() + 20'000'000'000;
  for (;;) {
    if (!c.Counters(counters)) return "cannot read daemon stats";
    bool same = true;
    for (const DaemonCounters& d : *counters) same = same && d.dbvv == (*counters)[0].dbvv;
    if (same) return "";
    if (NowNs() > deadline) return "nodes did not converge within 20 s";
    SleepUntilNs(NowNs() + 5'000'000);
  }
}

/// After the timed window: let the nodes converge (driver sweeps, or the
/// daemons' own anti-entropy), then require one aggregate DBVV on every
/// node and every node's full `Scan` to equal the driver's model of what
/// it wrote.
void FinalChecks(Cluster& c, const Model& model, bool background_ae,
                 RunResult* out) {
  std::vector<DaemonCounters> counters;
  std::string failed = background_ae ? WaitConverged(c, &counters) : SyncSweep(c, 2);
  if (failed.empty() && !c.Counters(&counters)) failed = "cannot read daemon stats";
  if (!failed.empty()) {
    out->Fail("final convergence: " + failed);
    return;
  }
  std::vector<std::pair<std::string, std::string>> expected(model.begin(), model.end());
  const uint64_t want = DigestPairs(std::move(expected));
  for (int i = 0; i < kNodes; ++i) {
    if (counters[static_cast<size_t>(i)].dbvv != counters[0].dbvv) {
      out->Fail("node " + std::to_string(i) + " DBVV " +
                counters[static_cast<size_t>(i)].dbvv + " != node 0 DBVV " +
                counters[0].dbvv);
    }
    auto scan = c.client(0, i).Scan("");
    if (!scan.ok()) {
      out->Fail("scan of node " + std::to_string(i) + ": " + scan.status().ToString());
      continue;
    }
    const size_t n = scan->size();
    const uint64_t got = DigestPairs(std::move(*scan));
    if (got != want || n != model.size()) {
      out->Fail("node " + std::to_string(i) + " content digest " + Hex(got) +
                " (" + std::to_string(n) + " items) != expected " + Hex(want) +
                " (" + std::to_string(model.size()) + " items)");
    }
  }
  out->InfoStr("check.dbvv", counters[0].dbvv);
  out->InfoStr("check.content_digest", Hex(want));
  out->InfoNum("check.items", static_cast<double>(model.size()));
}

/// End-to-end metrics every workload reports (see README.md for what each
/// means on each workload).
void ReportEndToEnd(double setup_s, OpTally& t, const Window& win,
                    double rounds_per_s, double rss_mb, RunResult* out) {
  out->E2e("setup_s", setup_s, "s");
  out->E2e("repl_lag_p50_ms", t.lag_ms.SlicedP50(), "ms");
  // Client latencies and every tail are reported, not gated: on a shared
  // virtual host their run-to-run spread reaches the largest bound a
  // regression gate may use (README.md, "Steadiness").
  out->InfoNum("update_p50_us", t.update_us.SlicedP50());
  out->InfoNum("read_p50_us", t.read_us.SlicedP50());
  out->InfoNum("repl_lag_p99_ms", t.lag_ms.SlicedTail());
  out->InfoNum("update_p99_us", t.update_us.SlicedTail());
  out->InfoNum("read_p99_us", t.read_us.SlicedTail());
  const DaemonCounters total = win.Total();
  const double pulls = win.Pulls();
  out->E2e("ae_rounds_per_s", rounds_per_s, "1/s");
  double cpu_us = 0;
  for (int i = 0; i < kNodes; ++i) {
    cpu_us += win.proc_after[static_cast<size_t>(i)].cpu_us -
              win.proc_before[static_cast<size_t>(i)].cpu_us;
  }
  out->E2e("daemon_cpu_us_per_round", pulls > 0 ? cpu_us / pulls : 0, "us");
  out->E2e("ae_bytes_per_round",
           pulls > 0 ? static_cast<double>(total.bytes_sent + total.bytes_received) / pulls
                     : 0,
           "B");
  out->E2e("daemon_rss_mb", rss_mb, "MB");
  out->attempted = t.attempted;
  out->failed = t.failed;
  // Sample counts and the quantile each "p99" really is.
  for (auto& [name, s] : {std::pair<const char*, Samples*>{"repl_lag", &t.lag_ms},
                          {"update", &t.update_us},
                          {"read", &t.read_us},
                          {"sync", &t.sync_us}}) {
    if (s->empty()) continue;
    out->InfoNum(std::string("samples.") + name, static_cast<double>(s->size()));
    out->InfoNum(std::string("tail_slices.") + name, static_cast<double>(s->Slices(true)));
    out->InfoNum(std::string("tail_quantile.") + name, s->SliceTailQ());
  }
  out->InfoNum("driver_late_p99_us", t.late_us.Tail());
  out->InfoNum("ops_failed_frac",
               t.attempted > 0 ? static_cast<double>(t.failed) / t.attempted : 0);
  for (size_t i = 0; i < t.errors.size(); ++i) {
    out->InfoStr("error." + std::to_string(i), t.errors[i]);
  }
}

/// Driver-side layer numbers that come from the tally and the spans.
void DriverLayers(OpTally& t, RunResult* out) {
  out->Layer("driver.late_p99_us", t.late_us.Tail(), "us");
  out->Layer("driver.lag_poll_us", t.poll_gap_us.Mean(), "us");
}

/// Tracing's share of the traced client calls: spans recorded times the
/// measured cost of recording one, over the time spent inside them.
void TraceOverhead(RunResult* out) {
  Tracer& tr = Tracer::Get();
  const size_t spans = tr.span_count();
  double traced_us = 0;
  for (const char* name : {"client.update", "client.read", "client.sync"}) {
    Samples total;
    tr.Durations(name, &total, nullptr);
    traced_us += total.Sum();
  }
  constexpr int kReps = 20000;
  const int64_t start = NowNs();
  for (int i = 0; i < kReps; ++i) {
    ScopedSpan s("trace.calibrate");
  }
  const double per_span_us = UsSince(start) / kReps;
  out->Layer("trace.overhead_frac",
             traced_us > 0 ? static_cast<double>(spans) * per_span_us / traced_us : 0,
             "ratio");
  out->InfoNum("trace.spans", static_cast<double>(spans));
  out->InfoNum("trace.span_cost_us", per_span_us);
}

uint64_t JournalBytes(const Cluster& c) {
  uint64_t total = 0;
  for (int i = 0; i < kNodes; ++i) {
    std::error_code ec;
    for (const auto& entry :
         std::filesystem::recursive_directory_iterator(c.data_dir(i), ec)) {
      if (entry.path().filename() == "journal.log") total += entry.file_size(ec);
    }
  }
  return total;
}

std::vector<std::pair<int, int>> OrderedPairs() {
  std::vector<std::pair<int, int>> pairs;
  for (int i = 0; i < kNodes; ++i) {
    for (int j = 0; j < kNodes; ++j) {
      if (i != j) pairs.emplace_back(i, j);
    }
  }
  return pairs;
}

/// Open-loop reader at a fixed rate: node and item from `pick`.
void PacedReads(Cluster& c, int slot, int64_t start_ns,
                const std::atomic<bool>& stop, uint64_t seed,
                const std::function<std::pair<int, std::string>(Rng&)>& pick,
                OpTally* t) {
  Rng rng(seed);
  const double period_ns = 1e9 / kPacedReadsPerSec;
  for (uint64_t i = 0; !stop.load(); ++i) {
    const int64_t due = start_ns + static_cast<int64_t>(i * period_ns);
    SleepUntilNs(due);
    if (stop.load()) break;
    const auto [node, key] = pick(rng);
    t->late_us.Add(static_cast<double>(NowNs() - due) / 1e3);
    TimedRead(c.client(slot, node), key, due, t);
  }
}

std::vector<std::pair<std::string, std::string>> BulkPreload(uint64_t seed,
                                                             const char* prefix) {
  Rng rng(seed);
  std::vector<std::pair<std::string, std::string>> kv;
  kv.reserve(kBulkItems);
  for (uint64_t i = 0; i < kBulkItems; ++i) {
    kv.emplace_back(prefix + std::to_string(i),
                    MakeValue(rng, kBulkValueLen, "p" + std::to_string(i) + "."));
  }
  return kv;
}

}  // namespace

// ---------------------------------------------------------------------------
// zipf-steady: durable daemons with their own 2 ms anti-entropy, an
// open-loop 70/30 read/update mix over three disjoint Zipf keyspaces.

RunResult RunZipfSteady(const RunConfig& cfg) {
  RunResult out;
  ClusterOptions opts;
  opts.durable = true;
  opts.ae_interval_ms = kZipfAeIntervalMs;
  opts.client_slots = 4;  // 0 main, 1 updates, 2 reads, 3 lag markers

  const auto key_of = [](int origin, uint64_t idx) {
    return "o" + std::to_string(origin) + ".k" + std::to_string(idx);
  };
  std::vector<epidemic::sim::Workload> zipf;
  for (int n = 0; n < kNodes; ++n) {
    epidemic::sim::WorkloadConfig w;
    w.num_items = kZipfItemsPerOrigin;
    w.zipf_s = 0.99;
    w.seed = cfg.seed * 1000003ULL + static_cast<uint64_t>(n);
    zipf.emplace_back(w);
  }

  const auto setup = [&](Cluster& c, Model* model) {
    Rng rng(cfg.seed ^ 0x5eedULL);
    std::vector<std::vector<std::pair<std::string, std::string>>> kv(kNodes);
    for (int n = 0; n < kNodes; ++n) {
      for (uint64_t i = 0; i < kZipfItemsPerOrigin; ++i) {
        kv[static_cast<size_t>(n)].emplace_back(
            key_of(n, i), MakeValue(rng, 64 + rng.Uniform(65), "p."));
      }
    }
    std::vector<std::thread> writers;
    std::string failed[kNodes];
    for (int n = 0; n < kNodes; ++n) {
      writers.emplace_back([&, n] {
        failed[n] = Preload(c, {n}, n, kv[static_cast<size_t>(n)]);
      });
    }
    for (std::thread& w : writers) w.join();
    for (const std::string& f : failed) {
      if (!f.empty()) return f;
    }
    std::vector<DaemonCounters> counters;
    if (std::string f = WaitConverged(c, &counters); !f.empty()) return f;
    for (const auto& part : kv) model->insert(part.begin(), part.end());
    // Warm-up: a fixed number of Zipf reads spread over the nodes.
    Rng wrng(cfg.seed ^ 0x3a3aULL);
    for (int i = 0; i < kZipfWarmupOps; ++i) {
      const int node = static_cast<int>(wrng.Uniform(kNodes));
      const std::string key = key_of(node, zipf[0].SampleItem());
      auto r = c.client(0, node).Read(key);
      if (!r.ok()) return "warm-up read " + key + ": " + r.status().ToString();
    }
    return std::string();
  };

  Model model;
  double setup_s = 0;
  std::unique_ptr<Cluster> cluster = SetUp(cfg, opts, setup, &model, &setup_s, &out);
  if (!cluster) return out;
  Cluster& c = *cluster;
  // The warm-up consumed Zipf samples; restart the streams so the timed
  // inputs depend on the seed alone.
  for (int n = 0; n < kNodes; ++n) {
    epidemic::sim::WorkloadConfig w = zipf[static_cast<size_t>(n)].config();
    zipf[static_cast<size_t>(n)] = epidemic::sim::Workload(w);
  }

  Window win;
  OpTally mix_updates, mix_reads, lag;
  uint64_t journal_before = 0, journal_after = 0;
  // Two open-loop generators, updates and reads, so that a slow reply to
  // one kind never delays the other (independent users do not wait for
  // each other). Each draws its own seeded Zipf streams.
  const auto generator = [&](bool updates, int slot, int64_t start, int64_t end,
                             OpTally* t, Model* writes) {
    const uint64_t salt = updates ? 0x111ULL : 0x222ULL;
    Rng rng(cfg.seed ^ salt);
    std::vector<epidemic::sim::Workload> streams;
    for (const auto& z : zipf) {
      epidemic::sim::WorkloadConfig w = z.config();
      w.seed ^= salt;
      streams.emplace_back(w);
    }
    const double share = updates ? kZipfUpdateShare : 1 - kZipfUpdateShare;
    const double period_ns = 1e9 / (kZipfOpsPerSec * share);
    for (uint64_t i = 0;; ++i) {
      const int64_t due = start + static_cast<int64_t>(i * period_ns);
      if (due >= end) break;
      const int origin = static_cast<int>(rng.Uniform(kNodes));
      const std::string key =
          key_of(origin, streams[static_cast<size_t>(origin)].SampleItem());
      std::string value;
      int node = origin;  // updates go to the key's origin
      if (updates) {
        value = MakeValue(rng, 64 + rng.Uniform(65), "u" + std::to_string(i) + ".");
      } else {
        node = static_cast<int>(rng.Uniform(kNodes));
      }
      SleepUntilNs(due);
      t->late_us.Add(static_cast<double>(NowNs() - due) / 1e3);
      if (!updates) {
        TimedRead(c.client(slot, node), key, due, t);
      } else if (TimedUpdate(c.client(slot, node), key, value, due, t).ok()) {
        (*writes)[key] = std::move(value);
      }
    }
  };
  const auto measure = [&] {
    mix_updates = OpTally{};
    mix_reads = OpTally{};
    lag = OpTally{};
    Model mix_writes, lag_writes;
    if (!win.Begin(c, opts.client_slots)) out.Fail("cannot read daemon stats");
    journal_before = JournalBytes(c);
    const int64_t start = win.start_ns;
    const int64_t end = start + static_cast<int64_t>(cfg.seconds) * 1'000'000'000;
    std::thread update_thread(generator, true, 1, start, end, &mix_updates, &mix_writes);
    std::thread read_thread(generator, false, 2, start, end, &mix_reads, nullptr);
    std::thread lag_thread([&] {
      LowerPriority();  // it polls; the open-loop mix must not wait for it
      for (int64_t k = 0;; ++k) {
        const int64_t due = start + k * kZipfLagPeriodNs;
        if (due >= end) break;
        SleepUntilNs(due);
        const int origin = static_cast<int>(k % kNodes);
        const std::string key = "o" + std::to_string(origin) + ".lag";
        const std::string value = "lag" + std::to_string(k);
        if (MeasureLag(c, 3, origin, key, value, &lag)) lag_writes[key] = value;
      }
    });
    update_thread.join();
    read_thread.join();
    lag_thread.join();
    if (!win.End(c)) out.Fail("cannot read daemon stats");
    journal_after = JournalBytes(c);
    for (const Model* w : {&mix_writes, &lag_writes}) {
      for (const auto& [k, v] : *w) model[k] = v;
    }
  };
  MeasureWindow(win, "window", kMaxStealFrac, NowNs() + kMeasureBudgetNs, measure, &out);
  const double rss_mb = ClusterRssMb(c);

  OpTally all;
  all.Merge(mix_updates);
  all.Merge(mix_reads);
  all.Merge(lag);
  if (out.problems.empty()) win.CheckHygiene(&out);
  FinalChecks(c, model, /*background_ae=*/true, &out);
  std::vector<DaemonCounters> final_counters;
  if (c.Counters(&final_counters)) {
    uint64_t conflicts = 0;
    for (const DaemonCounters& d : final_counters) conflicts += d.conflicts;
    out.InfoNum("check.conflicts", static_cast<double>(conflicts));
    if (conflicts != 0) {
      out.Fail(std::to_string(conflicts) +
               " conflict(s) although every origin writes a disjoint keyspace");
    }
  }

  ReportEndToEnd(setup_s, all, win, win.PullRate(), rss_mb, &out);
  const DaemonCounters t = win.Total();
  const double acked_updates = static_cast<double>(all.updates_acked);
  out.InfoNum("journal.bytes_per_update.daemons",
              acked_updates > 0 ? static_cast<double>(journal_after - journal_before) /
                                      acked_updates
                                : 0);
  out.InfoNum("offered_ops_per_s", kZipfOpsPerSec);
  out.InfoNum("daemon_updates", static_cast<double>(t.updates));
  if (cfg.trace) {
    win.CounterLayers(&out);
    DriverLayers(all, &out);
    TraceOverhead(&out);
    c.Shutdown();
    LayerShape shape;
    shape.preload_items = kZipfItemsPerOrigin * kNodes;
    shape.value_len = 96;
    shape.items_per_pull = 4;
    shape.durable = true;
    MeasureLayers(cfg, shape, &out);
    // The daemons' own journal growth is the better number here.
    for (Metric& m : out.per_layer) {
      if (m.name == "journal.bytes_per_update" && acked_updates > 0) {
        m.value = static_cast<double>(journal_after - journal_before) / acked_updates;
      }
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// bulk-catchup: node 0 holds a large database; each round dirties m
// distinct items there (untimed), then nodes 1 and 2 pull (timed).

RunResult RunBulkCatchup(const RunConfig& cfg) {
  RunResult out;
  ClusterOptions opts;
  opts.ae_interval_ms = 0;
  opts.client_slots = 3;  // 0 main + syncs, 1 paced reader, 2 dirtying
  const auto key_of = [](uint64_t idx) { return "b.k" + std::to_string(idx); };

  Rng round_rng(cfg.seed ^ 0xb01cULL);
  uint64_t round_no = 0;
  // One round: dirty m distinct items at node 0, the last one a lag
  // marker, then node 1 and node 2 pull from node 0.
  const auto round = [&](Cluster& c, Model* model, OpTally* t) {
    std::unordered_set<uint64_t> picked;
    std::vector<std::pair<std::string, std::string>> kv;
    while (kv.size() < kBulkDirtyPerRound) {
      const uint64_t idx = round_rng.Uniform(kBulkItems);
      if (!picked.insert(idx).second) continue;
      kv.emplace_back(key_of(idx), MakeValue(round_rng, kBulkValueLen,
                                             "r" + std::to_string(round_no) + "."));
    }
    ++round_no;
    OpTally writes;
    std::thread writer([&] {
      LowerPriority();
      for (size_t i = 0; i + 1 < kv.size(); ++i) {
        TimedUpdate(c.client(2, 0), kv[i].first, kv[i].second, NowNs(), &writes);
      }
    });
    writer.join();
    t->Merge(writes);
    const auto& marker = kv.back();
    if (!TimedUpdate(c.client(0, 0), marker.first, marker.second, NowNs(), t).ok()) {
      return std::string("marker update failed");
    }
    const int64_t ack = NowNs();
    for (const auto& [k, v] : kv) (*model)[k] = v;
    bool ok = TimedSync(c.client(0, 1), 0, t).ok();
    ok = TimedSync(c.client(0, 2), 0, t).ok() && ok;
    if (!ok) return std::string("catch-up pull failed");
    for (int j = 1; j < kNodes; ++j) {
      auto r = c.client(0, j).Read(marker.first);
      if (!r.ok() || *r != marker.second) {
        return "marker " + marker.first + " not at node " + std::to_string(j);
      }
    }
    t->lag_ms.Add(static_cast<double>(NowNs() - ack) / 1e6);
    return std::string();
  };

  const auto setup = [&](Cluster& c, Model* model) {
    round_rng = Rng(cfg.seed ^ 0xb01cULL);
    round_no = 0;
    const auto kv = BulkPreload(cfg.seed, "b.k");
    if (std::string f = Preload(c, {0, 1, 2}, 0, kv); !f.empty()) return f;
    model->insert(kv.begin(), kv.end());
    for (int j = 1; j < kNodes; ++j) {
      if (!c.client(0, j).TriggerSync(0).ok()) return std::string("initial pull failed");
    }
    OpTally warm;
    for (int r = 0; r < kBulkWarmupRounds; ++r) {
      if (std::string f = round(c, model, &warm); !f.empty()) return f;
    }
    return std::string();
  };

  Model model;
  double setup_s = 0;
  std::unique_ptr<Cluster> cluster = SetUp(cfg, opts, setup, &model, &setup_s, &out);
  if (!cluster) return out;
  Cluster& c = *cluster;

  Window win;
  OpTally main_tally, reads;
  uint64_t rounds = 0;
  const auto measure = [&] {
    main_tally = OpTally{};
    reads = OpTally{};
    rounds = 0;
    if (!win.Begin(c, opts.client_slots)) out.Fail("cannot read daemon stats");
    const int64_t end = win.start_ns + static_cast<int64_t>(cfg.seconds) * 1'000'000'000;
    std::atomic<bool> stop{false};
    std::thread reader([&] {
      PacedReads(c, 1, win.start_ns, stop, cfg.seed ^ 0x4eadULL,
                 [&key_of](Rng& rng) {
                   return std::make_pair(1 + static_cast<int>(rng.Uniform(2)),
                                         key_of(rng.Uniform(kBulkItems)));
                 },
                 &reads);
    });
    std::string round_failed;
    while (NowNs() < end && round_failed.empty()) {
      round_failed = round(c, &model, &main_tally);
      ++rounds;
    }
    stop = true;
    reader.join();
    if (!round_failed.empty()) out.Fail("catch-up round: " + round_failed);
    if (!win.End(c)) out.Fail("cannot read daemon stats");
  };
  MeasureWindow(win, "window", kMaxStealFrac, NowNs() + kMeasureBudgetNs, measure, &out);
  const double rss_mb = ClusterRssMb(c);

  OpTally all;
  all.Merge(main_tally);
  all.Merge(reads);
  if (out.problems.empty()) win.CheckHygiene(&out);
  // Each puller must have adopted exactly the distinct items dirtied.
  const uint64_t dirtied = rounds * kBulkDirtyPerRound;
  for (int j = 1; j < kNodes && out.problems.empty(); ++j) {
    const uint64_t adopted = win.Node(j).items_adopted;
    if (adopted != dirtied) {
      out.Fail("node " + std::to_string(j) + " adopted " + std::to_string(adopted) +
               " items, " + std::to_string(dirtied) + " were dirtied");
    }
  }
  FinalChecks(c, model, /*background_ae=*/false, &out);

  ReportEndToEnd(setup_s, all, win, win.PullRate(), rss_mb, &out);
  const DaemonCounters t = win.Total();
  const double sync_s = main_tally.sync_us.Sum() / 1e6;
  out.InfoNum("rounds", static_cast<double>(rounds));
  out.InfoNum("items_per_round", kBulkDirtyPerRound);
  out.InfoNum("catchup_items_per_s",
              sync_s > 0 ? static_cast<double>(t.items_adopted) / sync_s : 0);
  out.InfoNum("catchup_pull_p95_ms", main_tally.sync_us.Quantile(0.95) / 1e3);
  out.InfoNum("catchup_bytes_per_item",
              t.items_adopted > 0
                  ? static_cast<double>(t.bytes_sent + t.bytes_received) / t.items_adopted
                  : 0);
  if (cfg.trace) {
    win.CounterLayers(&out);
    DriverLayers(all, &out);
    TraceOverhead(&out);
    c.Shutdown();
    LayerShape shape;
    shape.preload_items = kBulkItems;
    shape.value_len = kBulkValueLen;
    shape.items_per_pull = kBulkDirtyPerRound;
    MeasureLayers(cfg, shape, &out);
  }
  return out;
}

// ---------------------------------------------------------------------------
// quiescent: three identical 100k-item replicas, no writes; a closed loop
// of TriggerSync over all six ordered pairs.

RunResult RunQuiescent(const RunConfig& cfg) {
  RunResult out;
  ClusterOptions opts;
  opts.ae_interval_ms = 0;
  opts.client_slots = 4;  // 0 main, 1 paced reader, 2 markers + sweeps, 3 probes
  const auto setup = [&](Cluster& c, Model* model) {
    const auto kv = BulkPreload(cfg.seed, "q.k");
    if (std::string f = Preload(c, {0, 1, 2}, 0, kv); !f.empty()) return f;
    model->insert(kv.begin(), kv.end());
    // Three sweeps: the first copies, the second finds nothing new, and
    // from the third on every pair answers with the epoch probe.
    return SyncSweep(c, 3);
  };

  Model model;
  double setup_s = 0;
  std::unique_ptr<Cluster> cluster = SetUp(cfg, opts, setup, &model, &setup_s, &out);
  if (!cluster) return out;
  Cluster& c = *cluster;

  Window win;
  OpTally probes, untimed, reads, markers;
  // Timed window: the closed probe loop alone.
  const auto measure = [&] {
    probes = OpTally{};
    if (!win.Begin(c, opts.client_slots)) out.Fail("cannot read daemon stats");
    const int64_t end = win.start_ns + static_cast<int64_t>(cfg.seconds) * 1'000'000'000;
    std::thread prober([&] {
      LowerPriority();
      const auto pairs = OrderedPairs();
      for (size_t next = 0; NowNs() < end; ++next) {
        const auto [i, j] = pairs[next % pairs.size()];
        if (!TimedSync(c.client(3, i), j, &probes).ok()) break;
      }
    });
    prober.join();
    if (probes.failed > 0) out.Fail("a quiescent sync failed");
    if (!win.End(c)) out.Fail("cannot read daemon stats");
  };
  // The window and the client phase share one measuring budget.
  const int64_t deadline = NowNs() + kMeasureBudgetNs;
  MeasureWindow(win, "window", kQuiescentMaxStealFrac, deadline, measure, &out);
  const double window_s = win.seconds();
  if (out.problems.empty()) win.CheckHygiene(&out);
  const DaemonCounters t = win.Total();
  if (t.prop_served != 0 || t.items_adopted != 0) {
    out.Fail("quiescent window was not quiescent: " + std::to_string(t.prop_served) +
             " shard serves, " + std::to_string(t.items_adopted) + " items adopted");
  }

  // Client phase, after the window, measured again like the window while
  // the host is noisy: the driver paces one anti-entropy sweep over all
  // six pairs every millisecond on the otherwise idle cluster, while a
  // paced reader runs. Each sweep starts with a lag marker: it is written
  // at its origin, the two other nodes pull from the origin right after
  // the ack and read it back, so the lag sample is ack -> readable
  // everywhere with no wait for a poll or the next sweep. The sweep's
  // other four pairs then probe.
  Window phase;
  const auto client_phase = [&] {
    reads = OpTally{};
    markers = OpTally{};
    if (!phase.Begin(c, opts.client_slots)) out.Fail("cannot read daemon stats");
    const int64_t phase_start = phase.start_ns;
    std::atomic<bool> phase_done{false};
    std::thread reader([&] {
      PacedReads(c, 1, phase_start, phase_done, cfg.seed ^ 0x4eadULL,
                 [](Rng& rng) {
                   return std::make_pair(static_cast<int>(rng.Uniform(kNodes)),
                                         "q.k" + std::to_string(rng.Uniform(kBulkItems)));
                 },
                 &reads);
    });
    const auto pairs = OrderedPairs();
    for (int k = 0; k < kQuiescentMarkers && markers.failed + untimed.failed == 0; ++k) {
      SleepUntilNs(phase_start + k * kQuiescentSweepPeriodNs);
      const int origin = k % kNodes;
      const std::string value = "lag" + std::to_string(k);
      if (!TimedUpdate(c.client(2, origin), "q.lag", value, NowNs(), &markers).ok()) break;
      model["q.lag"] = value;
      const int64_t ack = NowNs();
      for (int j = 0; j < kNodes; ++j) {
        if (j != origin) TimedSync(c.client(2, j), origin, &untimed);
      }
      for (int j = 0; j < kNodes; ++j) {
        if (j == origin) continue;
        auto r = TimedRead(c.client(2, j), "q.lag", NowNs(), &markers);
        // TimedRead has counted any error but NotFound.
        if (r.ok() ? *r != value : r.status().IsNotFound()) {
          markers.Fail("lag marker " + value,
                       epidemic::Status::Unavailable("not at node " + std::to_string(j) +
                                                     " after its pull"));
        }
      }
      if (markers.failed > 0) break;
      markers.lag_ms.Add(static_cast<double>(NowNs() - ack) / 1e6);
      for (const auto& [i, j] : pairs) {
        if (j != origin) TimedSync(c.client(2, i), j, &untimed);
      }
    }
    phase_done = true;
    reader.join();
    if (!phase.End(c)) out.Fail("cannot read daemon stats");
  };
  if (out.problems.empty()) {
    MeasureWindow(phase, "client_phase", kQuiescentMaxStealFrac, deadline, client_phase,
                  &out);
  }
  if (markers.failed > 0) out.Fail("a lag marker failed");
  if (untimed.failed > 0) out.Fail("a paced anti-entropy sweep failed");
  const double rss_mb = ClusterRssMb(c);

  OpTally all;
  all.Merge(probes);
  all.Merge(reads);
  all.Merge(markers);
  all.attempted += untimed.attempted;
  all.failed += untimed.failed;
  FinalChecks(c, model, /*background_ae=*/false, &out);

  // The closed probe loop's rate is taken per second of the window, and the
  // reported figure is the 90th percentile over those seconds: a wake-up
  // bound loop runs at half its rate or less in a second of heavy host steal,
  // so the whole-window mean mostly measures the neighbours (README.md,
  // "Steadiness"). The mean is in the report.
  const std::vector<double> rates =
      probes.sync_us.SliceRates(win.start_ns, win.end_ns, kQuiescentRateSliceNs);
  ReportEndToEnd(setup_s, all, win, QuantileOf(rates, 0.9), rss_mb, &out);
  out.InfoNum("probe_rate_slice_min", QuantileOf(rates, 0));
  out.InfoNum("probe_rate_slice_median", QuantileOf(rates, 0.5));
  out.InfoNum("probe_rate_slice_max", QuantileOf(rates, 1));
  out.InfoNum("probe_rounds_per_s",
              window_s > 0 ? static_cast<double>(probes.sync_us.size()) / window_s : 0);
  out.InfoNum("probe_p99_us", probes.sync_us.Tail());
  if (cfg.trace) {
    win.CounterLayers(&out);
    DriverLayers(all, &out);
    TraceOverhead(&out);
    c.Shutdown();
    LayerShape shape;
    shape.preload_items = kBulkItems;
    shape.value_len = kBulkValueLen;
    shape.items_per_pull = 0;
    MeasureLayers(cfg, shape, &out);
  }
  return out;
}

}  // namespace perfbench
