// Multi-process TCP cluster benchmark (EXPERIMENTS.md N1).
//
// Forks N real `epidemicd` processes on loopback and drives them from this
// process over a TcpTransport: every round writes a Zipf-skewed update
// burst to a fixed source node, then makes every other node pull from it
// (TriggerSync → probe + full v3 handshake), then sweeps a few quiescent
// probe rounds — the paper's anti-entropy cadence, where most exchanges
// find nothing new. Daemons keep one persistent connection per peer, so
// after warmup a round opens zero connections.
//
// The run doubles as the fan-out serve-cache check: the N-1 pullers are
// byte-identical requesters (same DBVVs, same flags), so per round the
// source encodes the reply once and replays it N-2 times — the
// `serve_cache:` counters from the source's ResetStats are reported as the
// hit rate.
//
// Latency percentiles cover the sync phase only (write bursts are
// untimed): that is the propagation pipeline under test.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "net/tcp_transport.h"
#include "server/replica_server.h"
#include "sim/workload.h"

#ifndef EPI_BUILD_TYPE
#define EPI_BUILD_TYPE "unknown"
#endif

namespace {

using epidemic::NodeId;
using epidemic::server::ReplicaClient;

struct Config {
  std::string epidemicd;  // path to the daemon binary (required)
  int nodes = 5;
  int rounds = 300;
  int warmup_rounds = 5;
  int writes_per_round = 8;
  int probes_per_round = 4;  // quiescent probe sweeps after the transfer
  int shards = 8;
  bool json = false;
};

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

/// Counters parsed from one daemon's ResetStats summary lines
/// ("net: ...", "serve_cache: ...").
struct DaemonNetStats {
  uint64_t calls = 0;
  uint64_t opened = 0;
  uint64_t reused = 0;
  uint64_t reconnects = 0;
  uint64_t bytes_sent = 0;
  uint64_t bytes_received = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
};

uint64_t ParseCounter(const std::string& line, const std::string& key) {
  const std::string needle = key + "=";
  const size_t pos = line.find(needle);
  if (pos == std::string::npos) return 0;
  return std::strtoull(line.c_str() + pos + needle.size(), nullptr, 10);
}

/// Extracts the summary line starting with `prefix` (up to its newline).
std::string SummaryLine(const std::string& text, const std::string& prefix) {
  const size_t pos = text.find("\n" + prefix);
  if (pos == std::string::npos) return "";
  const size_t start = pos + 1;
  const size_t end = text.find('\n', start);
  return text.substr(start, end == std::string::npos ? std::string::npos
                                                     : end - start);
}

DaemonNetStats ParseDaemonStats(const std::string& summary) {
  DaemonNetStats s;
  const std::string net = SummaryLine(summary, "net: ");
  s.calls = ParseCounter(net, "calls");
  s.opened = ParseCounter(net, "opened");
  s.reused = ParseCounter(net, "reused");
  s.reconnects = ParseCounter(net, "reconnects");
  s.bytes_sent = ParseCounter(net, "bytes_sent");
  s.bytes_received = ParseCounter(net, "bytes_received");
  const std::string cache = SummaryLine(summary, "serve_cache: ");
  s.cache_hits = ParseCounter(cache, "hits");
  s.cache_misses = ParseCounter(cache, "misses");
  return s;
}

/// Reserves `n` distinct loopback ports by holding them all bound until
/// every one is picked (sequential bind/close could hand the same port out
/// twice). The usual bind-then-release race with other processes remains —
/// acceptable for a lab driver.
std::vector<uint16_t> PickFreePorts(size_t n) {
  std::vector<int> fds;
  std::vector<uint16_t> ports;
  for (size_t i = 0; i < n; ++i) {
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) break;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    socklen_t len = sizeof(addr);
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
        ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
      ::close(fd);
      break;
    }
    fds.push_back(fd);
    ports.push_back(ntohs(addr.sin_port));
  }
  for (int fd : fds) ::close(fd);
  return ports;
}

/// One forked epidemicd cluster plus the driver-side client plumbing.
class Cluster {
 public:
  explicit Cluster(const Config& cfg) : cfg_(cfg) {
    ports_ = PickFreePorts(static_cast<size_t>(cfg.nodes));
    if (ports_.size() != static_cast<size_t>(cfg.nodes)) {
      std::fprintf(stderr, "cannot reserve %d loopback ports\n", cfg.nodes);
      std::exit(1);
    }
    for (int i = 0; i < cfg.nodes; ++i) {
      std::vector<std::string> args;
      args.push_back(cfg.epidemicd);
      args.push_back("--id=" + std::to_string(i));
      args.push_back("--nodes=" + std::to_string(cfg.nodes));
      args.push_back("--port=" + std::to_string(ports_[i]));
      args.push_back("--shards=" + std::to_string(cfg.shards));
      args.push_back("--ae-interval-ms=0");  // driver-paced rounds only
      for (int j = 0; j < cfg.nodes; ++j) {
        if (j == i) continue;
        args.push_back("--peer=" + std::to_string(j) + ":" +
                       std::to_string(ports_[j]));
      }
      pids_.push_back(Spawn(args));
    }
    // The driver's own admin transport: short backoff so readiness polling
    // is not parked by the sticky window.
    epidemic::net::TcpTransport::Options topts;
    topts.backoff_initial_micros = 2 * 1000;
    topts.backoff_max_micros = 20 * 1000;
    transport_ = std::make_unique<epidemic::net::TcpTransport>(
        static_cast<size_t>(cfg.nodes), topts);
    for (int i = 0; i < cfg.nodes; ++i) {
      transport_->SetPeerPort(static_cast<NodeId>(i), ports_[i]);
      clients_.emplace_back(transport_.get(), static_cast<NodeId>(i));
    }
    WaitUntilReady();
  }

  ~Cluster() {
    for (pid_t pid : pids_) ::kill(pid, SIGTERM);
    for (pid_t pid : pids_) ::waitpid(pid, nullptr, 0);
  }

  ReplicaClient& client(int i) { return clients_[static_cast<size_t>(i)]; }
  int nodes() const { return cfg_.nodes; }

 private:
  static pid_t Spawn(const std::vector<std::string>& args) {
    std::vector<char*> argv;
    argv.reserve(args.size() + 1);
    for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
    argv.push_back(nullptr);
    pid_t pid = ::fork();
    if (pid < 0) {
      std::perror("fork");
      std::exit(1);
    }
    if (pid == 0) {
      // Child: route the daemon's banner to /dev/null, keep stderr.
      std::FILE* devnull = std::freopen("/dev/null", "w", stdout);
      (void)devnull;
      ::execv(argv[0], argv.data());
      std::perror("execv epidemicd");
      ::_exit(127);
    }
    return pid;
  }

  void WaitUntilReady() {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(15);
    for (int i = 0; i < cfg_.nodes; ++i) {
      for (;;) {
        if (client(i).Stats().ok()) break;
        if (std::chrono::steady_clock::now() > deadline) {
          std::fprintf(stderr, "node %d never became ready\n", i);
          std::exit(1);
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    }
  }

  Config cfg_;
  std::vector<uint16_t> ports_;
  std::vector<pid_t> pids_;
  std::unique_ptr<epidemic::net::TcpTransport> transport_;
  std::vector<ReplicaClient> clients_;
};

struct RunResult {
  double rounds_per_sec = 0;
  Percentiles sync_us;
  double bytes_per_round = 0;
  DaemonNetStats net;  // summed across daemons (cache from the source)
};

/// One measured run: fresh cluster, warmup, R rounds of
/// write-burst → full sync sweep → quiescent probe sweeps.
RunResult Run(const Config& cfg) {
  Cluster cluster(cfg);
  epidemic::sim::WorkloadConfig wcfg;
  wcfg.num_items = 2000;
  wcfg.zipf_s = 0.99;
  wcfg.value_len = 64;
  epidemic::sim::Workload workload(wcfg);

  const auto one_round = [&](bool burst) {
    if (burst) {
      for (int w = 0; w < cfg.writes_per_round; ++w) {
        const auto op = workload.NextUpdateAt(0);  // source-placed Zipf write
        if (!cluster.client(0).Update(op.item, op.value).ok()) {
          std::fprintf(stderr, "update failed\n");
          std::exit(1);
        }
      }
    }
    for (int sweep = 0; sweep < 1 + cfg.probes_per_round; ++sweep) {
      for (int i = 1; i < cfg.nodes; ++i) {
        // Sweep 0 transfers the burst (probe miss → full handshake); later
        // sweeps are the quiescent cadence (one O(1) probe each).
        if (!cluster.client(i).TriggerSync(0).ok()) {
          std::fprintf(stderr, "sync failed\n");
          std::exit(1);
        }
      }
    }
  };

  for (int r = 0; r < cfg.warmup_rounds; ++r) one_round(true);
  // Zero every daemon's counters after warmup: the measured window then
  // shows steady-state behavior (pooled connections already established —
  // the churn criterion is opened == 0 across the whole window).
  for (int i = 0; i < cfg.nodes; ++i) {
    if (!cluster.client(i).ResetStats().ok()) {
      std::fprintf(stderr, "reset failed\n");
      std::exit(1);
    }
  }

  std::vector<double> sync_us;
  sync_us.reserve(static_cast<size_t>(cfg.rounds));
  const auto bench_start = std::chrono::steady_clock::now();
  for (int r = 0; r < cfg.rounds; ++r) {
    for (int w = 0; w < cfg.writes_per_round; ++w) {
      const auto op = workload.NextUpdateAt(0);
      if (!cluster.client(0).Update(op.item, op.value).ok()) std::exit(1);
    }
    const auto t0 = std::chrono::steady_clock::now();
    one_round(/*burst=*/false);  // sync + probe sweeps only, timed
    const auto t1 = std::chrono::steady_clock::now();
    sync_us.push_back(
        std::chrono::duration<double, std::micro>(t1 - t0).count());
  }
  const double total_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    bench_start)
          .count();

  RunResult result;
  result.rounds_per_sec = cfg.rounds / total_s;
  result.sync_us = ComputePercentiles(sync_us);
  for (int i = 0; i < cluster.nodes(); ++i) {
    auto summary = cluster.client(i).ResetStats();
    if (!summary.ok()) std::exit(1);
    const DaemonNetStats s = ParseDaemonStats(*summary);
    result.net.calls += s.calls;
    result.net.opened += s.opened;
    result.net.reused += s.reused;
    result.net.reconnects += s.reconnects;
    result.net.bytes_sent += s.bytes_sent;
    result.net.bytes_received += s.bytes_received;
    result.net.cache_hits += s.cache_hits;
    result.net.cache_misses += s.cache_misses;
  }
  result.bytes_per_round =
      static_cast<double>(result.net.bytes_sent + result.net.bytes_received) /
      cfg.rounds;
  return result;
}

/// The run's object, under the key "pooled" that earlier artifacts used.
void PrintRunJson(const RunResult& r) {
  std::printf(
      "  \"pooled\": {\n"
      "    \"rounds_per_sec\": %.1f,\n"
      "    \"sync_p50_us\": %.1f,\n"
      "    \"sync_p95_us\": %.1f,\n"
      "    \"sync_p99_us\": %.1f,\n"
      "    \"bytes_per_round\": %.1f,\n"
      "    \"net_calls\": %llu,\n"
      "    \"net_connections_opened\": %llu,\n"
      "    \"net_connections_reused\": %llu,\n"
      "    \"net_reconnects\": %llu,\n"
      "    \"serve_cache_hits\": %llu,\n"
      "    \"serve_cache_misses\": %llu\n"
      "  },\n",
      r.rounds_per_sec, r.sync_us.p50, r.sync_us.p95, r.sync_us.p99,
      r.bytes_per_round, static_cast<unsigned long long>(r.net.calls),
      static_cast<unsigned long long>(r.net.opened),
      static_cast<unsigned long long>(r.net.reused),
      static_cast<unsigned long long>(r.net.reconnects),
      static_cast<unsigned long long>(r.net.cache_hits),
      static_cast<unsigned long long>(r.net.cache_misses));
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--epidemicd=", 12) == 0) {
      cfg.epidemicd = arg + 12;
    } else if (std::strncmp(arg, "--nodes=", 8) == 0) {
      cfg.nodes = std::atoi(arg + 8);
    } else if (std::strncmp(arg, "--rounds=", 9) == 0) {
      cfg.rounds = std::atoi(arg + 9);
    } else if (std::strncmp(arg, "--writes-per-round=", 19) == 0) {
      cfg.writes_per_round = std::atoi(arg + 19);
    } else if (std::strncmp(arg, "--probes-per-round=", 19) == 0) {
      cfg.probes_per_round = std::atoi(arg + 19);
    } else if (std::strncmp(arg, "--shards=", 9) == 0) {
      cfg.shards = std::atoi(arg + 9);
    } else if (std::strcmp(arg, "--json") == 0) {
      cfg.json = true;
    } else {
      std::fprintf(stderr, "unknown flag '%s'\n", arg);
      return 2;
    }
  }
  if (cfg.epidemicd.empty() || cfg.nodes < 2 || cfg.rounds < 1) {
    std::fprintf(stderr,
                 "usage: bench_tcp_cluster --epidemicd=<path> [--nodes=N] "
                 "[--rounds=R] [--writes-per-round=W] [--probes-per-round=Q] "
                 "[--shards=S] [--json]\n");
    return 2;
  }
  // Reap any child that dies unexpectedly instead of hanging in waitpid
  // order; the Cluster destructor still collects them.
  std::signal(SIGPIPE, SIG_IGN);

  const RunResult result = Run(cfg);
  const uint64_t fanout_total =
      result.net.cache_hits + result.net.cache_misses;
  const double hit_rate =
      fanout_total > 0
          ? static_cast<double>(result.net.cache_hits) / fanout_total
          : 0;

  if (cfg.json) {
    std::printf("{\n  \"build_type\": \"%s\",\n", EPI_BUILD_TYPE);
    std::printf("  \"hardware_concurrency\": %u,\n",
                std::thread::hardware_concurrency());
    std::printf("  \"nodes\": %d,\n  \"rounds\": %d,\n", cfg.nodes,
                cfg.rounds);
    std::printf("  \"writes_per_round\": %d,\n  \"probes_per_round\": %d,\n",
                cfg.writes_per_round, cfg.probes_per_round);
    std::printf("  \"shards\": %d,\n", cfg.shards);
    PrintRunJson(result);
    std::printf("  \"serve_cache_hit_rate\": %.3f\n}\n", hit_rate);
  } else {
    std::printf(
        "tcp cluster: %d nodes, %d rounds, %d writes/round, %d probe "
        "sweeps (build=%s)\n",
        cfg.nodes, cfg.rounds, cfg.writes_per_round, cfg.probes_per_round,
        EPI_BUILD_TYPE);
    std::printf("%12s %10s %10s %10s %12s %8s %8s\n", "rounds/s",
                "p50(us)", "p95(us)", "p99(us)", "bytes/round", "opened",
                "reused");
    std::printf("%12.1f %10.1f %10.1f %10.1f %12.1f %8llu %8llu\n",
                result.rounds_per_sec, result.sync_us.p50, result.sync_us.p95,
                result.sync_us.p99, result.bytes_per_round,
                static_cast<unsigned long long>(result.net.opened),
                static_cast<unsigned long long>(result.net.reused));
    std::printf("serve cache hit rate %.3f (%llu/%llu)\n", hit_rate,
                static_cast<unsigned long long>(result.net.cache_hits),
                static_cast<unsigned long long>(fanout_total));
  }
  return 0;
}
