// epicheck — bounded exhaustive model checker for the propagation protocol.
//
//   epicheck --nodes 2 --items 2 --depth 8            # explore, expect clean
//   epicheck --nodes 3 --items 2 --depth 6 --shards 2 # two shards per node
//   epicheck --nodes 2 --items 2 --depth 6 --shards 2 --serve-budget 1
//                                                     # one segment per sync
//   epicheck --nodes 2 --items 1 --depth 4 --mutate amnesia
//            --trace-out amnesia.trace                # seeded-defect self-test
//   epicheck --replay amnesia.trace                   # deterministic replay
//
// Explores every interleaving of the action alphabet (update, delete, sync,
// oob, pump, crash) up to --depth against the real ShardedReplica code and
// the daemon's exchange, asserting the §4.1/§5.2 invariants, conflict
// soundness, version monotonicity and the quiescence criterion after every
// transition (DESIGN.md §9). Exit codes: 0 = clean, 1 = violation found (or reproduced
// under --replay), 2 = usage error.

#include <climits>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "check/action.h"
#include "check/checker.h"
#include "check/world.h"
#include "parse_number.h"

namespace {

using epidemic::check::Action;
using epidemic::check::CheckerConfig;
using epidemic::check::CheckReport;
using epidemic::check::TraceFile;
using epidemic::check::WorldConfig;

void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [options]\n"
      "  --nodes <n>        replicas, 2..4 (default 2)\n"
      "  --items <N>        data items, 1..4 (default 2)\n"
      "  --depth <D>        max schedule length (default 8)\n"
      "  --shards <S>       shards per replica (default 1); every count runs\n"
      "                     the daemon's exchange over its wire frames\n"
      "  --serve-budget <B> bytes of whole shards a reply carries before it\n"
      "                     goes partial (default 4194304); 1 ships one\n"
      "                     segment per sync\n"
      "  --mutate <m>       seeded defect for checker self-test:\n"
      "                     none | amnesia | mute-conflicts | tamper-ivv\n"
      "  --actions <list>   comma list of optional actions to enable:\n"
      "                     oob,pump,crash,delete (default oob,pump,crash)\n"
      "  --trace-out <file> where to write the minimized violation trace\n"
      "  --replay <file>    replay a trace file instead of exploring\n",
      argv0);
}

void PrintTrace(const TraceFile& trace) {
  std::printf("trace (%zu actions):\n", trace.actions.size());
  for (const Action& action : trace.actions) {
    std::printf("  %s\n", epidemic::check::FormatAction(action).c_str());
  }
}

int ReportResult(const CheckReport& report, const WorldConfig& world,
                 const std::string& trace_out, bool minimize) {
  std::printf("states explored:     %llu\n",
              static_cast<unsigned long long>(report.states_explored));
  std::printf("transitions checked: %llu\n",
              static_cast<unsigned long long>(report.transitions));
  std::printf("deduplicated:        %llu\n",
              static_cast<unsigned long long>(report.dedup_hits));
  if (!report.violation.has_value()) {
    std::printf("result: no violations\n");
    return 0;
  }

  std::printf("result: VIOLATION — %s\n",
              report.violation->description.c_str());
  std::vector<Action> trace = report.violation->trace;
  if (minimize) {
    trace = epidemic::check::MinimizeTrace(world, trace);
    std::printf("minimized from %zu to %zu actions\n",
                report.violation->trace.size(), trace.size());
  }
  TraceFile file;
  file.nodes = static_cast<uint32_t>(world.num_nodes);
  file.items = static_cast<uint32_t>(world.num_items);
  file.shards = static_cast<uint32_t>(world.num_shards);
  file.serve_budget = world.serve_budget;
  file.mutation = std::string(epidemic::check::MutationName(world.mutation));
  file.actions = trace;
  PrintTrace(file);
  if (!trace_out.empty()) {
    std::ofstream out(trace_out, std::ios::binary | std::ios::trunc);
    out << epidemic::check::EncodeTrace(file);
    if (!out.good()) {
      std::fprintf(stderr, "failed to write trace to %s\n",
                   trace_out.c_str());
    } else {
      std::printf("trace written to %s\n", trace_out.c_str());
    }
  }
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  CheckerConfig config;
  config.with_oob = true;
  config.with_pump = true;
  config.with_crash = true;
  std::string trace_out;
  std::string replay_path;

  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    std::string inline_value;
    bool has_inline = false;
    size_t eq = flag.find('=');
    if (eq != std::string::npos) {
      inline_value = flag.substr(eq + 1);
      flag = flag.substr(0, eq);
      has_inline = true;
    }
    // Accepts both "--flag value" and "--flag=value".
    auto value = [&]() -> const char* {
      if (has_inline) return inline_value.c_str();
      if (i + 1 >= argc) return nullptr;
      return argv[++i];
    };
    // A whole base-10 number; the range checks after the loop bound it.
    auto number = [&](size_t* out) {
      const char* v = value();
      long n = 0;
      if (v == nullptr ||
          !epidemic::tools::ParseNumber(flag.c_str(), v, 0, INT_MAX, &n)) {
        return false;
      }
      *out = static_cast<size_t>(n);
      return true;
    };

    bool ok = true;
    if (flag == "--nodes") {
      ok = number(&config.world.num_nodes);
    } else if (flag == "--items") {
      ok = number(&config.world.num_items);
    } else if (flag == "--depth") {
      ok = number(&config.max_depth);
    } else if (flag == "--shards") {
      ok = number(&config.world.num_shards);
    } else if (flag == "--serve-budget") {
      ok = number(&config.world.serve_budget);
    } else if (flag == "--mutate") {
      const char* v = value();
      if (v == nullptr) {
        ok = false;
      } else {
        auto m = epidemic::check::ParseMutation(v);
        if (!m.ok()) {
          std::fprintf(stderr, "%s\n", m.status().message().c_str());
          return 2;
        }
        config.world.mutation = *m;
      }
    } else if (flag == "--actions") {
      const char* v = value();
      if (v == nullptr) {
        ok = false;
      } else {
        config.with_oob = config.with_pump = config.with_crash = false;
        config.world.with_deletes = false;
        std::stringstream ss(v);
        std::string tok;
        while (std::getline(ss, tok, ',')) {
          if (tok == "oob") {
            config.with_oob = true;
          } else if (tok == "pump") {
            config.with_pump = true;
          } else if (tok == "crash") {
            config.with_crash = true;
          } else if (tok == "delete") {
            config.world.with_deletes = true;
          } else if (!tok.empty()) {
            std::fprintf(stderr, "unknown action '%s' in --actions\n",
                         tok.c_str());
            return 2;
          }
        }
      }
    } else if (flag == "--trace-out") {
      const char* v = value();
      ok = v != nullptr;
      if (ok) trace_out = v;
    } else if (flag == "--replay") {
      const char* v = value();
      ok = v != nullptr;
      if (ok) replay_path = v;
    } else {
      ok = false;
    }
    if (!ok) {
      Usage(argv[0]);
      return 2;
    }
  }

  if (!replay_path.empty()) {
    std::ifstream in(replay_path, std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "cannot read %s\n", replay_path.c_str());
      return 2;
    }
    std::stringstream buf;
    buf << in.rdbuf();
    auto trace = epidemic::check::DecodeTrace(buf.str());
    if (!trace.ok()) {
      std::fprintf(stderr, "bad trace file: %s\n",
                   trace.status().message().c_str());
      return 2;
    }
    WorldConfig world;
    world.num_nodes = trace->nodes;
    world.num_items = trace->items;
    world.num_shards = trace->shards;
    world.serve_budget = trace->serve_budget;
    auto m = epidemic::check::ParseMutation(trace->mutation);
    if (!m.ok()) {
      std::fprintf(stderr, "bad trace file: %s\n",
                   m.status().message().c_str());
      return 2;
    }
    world.mutation = *m;
    std::printf("replaying %zu actions (nodes=%zu items=%zu shards=%zu "
                "mutate=%s)\n",
                trace->actions.size(), world.num_nodes, world.num_items,
                world.num_shards, trace->mutation.c_str());
    CheckReport report =
        epidemic::check::ReplayTrace(world, trace->actions);
    return ReportResult(report, world, /*trace_out=*/"", /*minimize=*/false);
  }

  if (config.world.num_nodes < 2 || config.world.num_nodes > 4 ||
      config.world.num_items < 1 || config.world.num_items > 4 ||
      config.world.num_shards < 1 || config.world.serve_budget < 1 ||
      config.max_depth < 1) {
    Usage(argv[0]);
    return 2;
  }

  std::printf("epicheck: nodes=%zu items=%zu depth=%zu shards=%zu "
              "mutate=%s",
              config.world.num_nodes, config.world.num_items,
              config.max_depth, config.world.num_shards,
              std::string(epidemic::check::MutationName(config.world.mutation))
                  .c_str());
  if (config.world.serve_budget != epidemic::server::kServeBudgetBytes) {
    std::printf(" serve-budget=%zu", config.world.serve_budget);
  }
  std::printf("\n");
  CheckReport report = epidemic::check::RunCheck(config);
  return ReportResult(report, config.world, trace_out, /*minimize=*/true);
}
