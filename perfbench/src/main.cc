// perfbench_driver — runs one workload of the end-to-end benchmark against
// a forked 3-node epidemicd cluster and prints the result.
//
//   perfbench_driver --workload=<zipf-steady|bulk-catchup|quiescent>
//       --seed=<n> --seconds=<s> --trace=<0|1> --daemon=<epidemicd path>
//       --workdir=<dir> [--tracefile=<path>] [--flush-policy=<text>]
//
// The last line of standard output is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// with the end-to-end metrics (--trace=0) or the per-layer ones
// (--trace=1). The line before it is a JSON report describing the run.
// Exits 1, with empty metrics, when a correctness or validity check fails.
#include <sched.h>
#include <sys/prctl.h>
#include <csignal>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "bench.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace {

using perfbench::Metric;
using perfbench::RunConfig;
using perfbench::RunResult;

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + Num(metrics[i].value) +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}";
}

bool Flag(const char* arg, const char* name, std::string* out) {
  const size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0 || arg[n] != '=') return false;
  *out = arg + n + 1;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig cfg;
  std::string seed, seconds, trace = "0", tracefile, flush_policy = "unknown";
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (!(Flag(a, "--workload", &cfg.workload) || Flag(a, "--seed", &seed) ||
          Flag(a, "--seconds", &seconds) || Flag(a, "--trace", &trace) ||
          Flag(a, "--daemon", &cfg.daemon) || Flag(a, "--workdir", &cfg.workdir) ||
          Flag(a, "--tracefile", &tracefile) ||
          Flag(a, "--flush-policy", &flush_policy))) {
      std::fprintf(stderr, "unknown argument '%s'\n", a);
      return 2;
    }
  }
  cfg.seed = std::strtoull(seed.c_str(), nullptr, 10);
  cfg.seconds = std::atoi(seconds.c_str());
  cfg.trace = trace == "1";
  if (cfg.daemon.empty() || cfg.workdir.empty() || cfg.seconds < 1 ||
      seed.empty()) {
    std::fprintf(stderr, "usage: see the comment at the top of main.cc\n");
    return 2;
  }
  std::signal(SIGPIPE, SIG_IGN);
  // Open-loop threads sleep until each request is due; without this the
  // kernel may wake them up to 50 us late, which would count as latency.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  // Die with the wrapper that started us; the daemons die with us.
  ::prctl(PR_SET_PDEATHSIG, SIGKILL);

  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (::sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &allowed)) cfg.cpus.push_back(c);
    }
  }
  // The driver sits on the first allowed CPU, each daemon on the next
  // ones (Cluster pins them before exec).
  if (!cfg.cpus.empty()) perfbench::PinSelf(cfg.cpus[0], cfg.cpus);
  perfbench::Tracer::Get().Enable(cfg.trace);

  RunResult result;
  if (cfg.workload == "zipf-steady") {
    result = perfbench::RunZipfSteady(cfg);
  } else if (cfg.workload == "bulk-catchup") {
    result = perfbench::RunBulkCatchup(cfg);
  } else if (cfg.workload == "quiescent") {
    result = perfbench::RunQuiescent(cfg);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", cfg.workload.c_str());
    return 2;
  }
  perfbench::RemoveTree(cfg.workdir);

  if (cfg.trace && !tracefile.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(
        std::filesystem::path(tracefile).parent_path(), ec);
    if (!perfbench::Tracer::Get().WriteJsonLines(tracefile)) {
      std::fprintf(stderr, "cannot write %s\n", tracefile.c_str());
    }
  }

  // Report: what ran, where, and every number with its unit.
  result.InfoStr("workload", cfg.workload);
  result.InfoNum("seed", static_cast<double>(cfg.seed));
  result.InfoNum("seconds", cfg.seconds);
  result.InfoNum("nproc", static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN)));
  result.InfoNum("cpus_allowed", static_cast<double>(cfg.cpus.size()));
  result.InfoStr("build_type", PERFBENCH_BUILD_TYPE);
  result.InfoStr("compiler", PERFBENCH_COMPILER);
  result.InfoStr("journal_flush_policy", flush_policy);
  result.InfoStr("trace", cfg.trace ? "on" : "off");
  std::string report = "{\"report\": {";
  for (const auto& [k, v] : result.info) report += "\"" + k + "\": " + v + ", ";
  report += "\"end_to_end\": " + MetricsJson(result.end_to_end) +
            ", \"per_layer\": " + MetricsJson(result.per_layer) + "}}";

  const bool correct = result.problems.empty();
  for (const std::string& p : result.problems) {
    std::fprintf(stderr, "perfbench: %s\n", p.c_str());
  }
  std::printf("%s\n", report.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(std::max<uint64_t>(result.attempted, 1)),
              static_cast<unsigned long long>(result.failed),
              correct ? MetricsJson(cfg.trace ? result.per_layer
                                              : result.end_to_end)
                             .c_str()
                      : "{}");
  std::fflush(stdout);
  return correct ? 0 : 1;
}
