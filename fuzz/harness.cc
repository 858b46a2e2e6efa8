#include "fuzz/harness.h"

#include <cstdio>
#include <cstdlib>

#include "common/logging.h"
#include "common/random.h"
#include "fuzz/mutator.h"
#include "server/sharded_exchange.h"

namespace epidemic::fuzz {

namespace {
bool g_clean_exit = false;
}  // namespace

void SetCleanExitOnOracleFailure(bool clean) { g_clean_exit = clean; }

void OracleFail(const char* target, const std::string& detail) {
  std::fprintf(stderr, "FUZZ ORACLE FAILURE [%s]: %s\n", target,
               detail.c_str());
  std::fflush(stderr);
  if (g_clean_exit) std::exit(1);
  std::abort();
}

void OracleExpectOk(const Status& s, const char* target, const char* what) {
  if (s.ok()) return;
  OracleFail(target, std::string(what) + ": " + s.ToString());
}

std::unique_ptr<Replica> MakeSeededReplica() {
  // Node 0's view of a 3-node world where all three nodes wrote and node 0
  // pulled from node 1: non-trivial DBVV, logs and per-item IVVs.
  auto r0 = std::make_unique<Replica>(0, kFuzzNodes);
  Replica r1(1, kFuzzNodes);
  EPI_CHECK(r0->Update("alpha", "a0").ok());
  EPI_CHECK(r0->Update("beta", "b0").ok());
  EPI_CHECK(r1.Update("beta", "b1").ok());
  EPI_CHECK(r1.Update("gamma", "g1").ok());
  // The concurrent beta writes conflict — also legitimate state.
  Status s = PropagateOnce(r1, *r0).status();
  EPI_CHECK(s.ok() || s.IsConflict()) << s.ToString();
  EPI_CHECK(r0->CheckInvariants().ok());
  return r0;
}

std::unique_ptr<ShardedReplica> MakeSeededShardedReplica() {
  auto r0 = std::make_unique<ShardedReplica>(0, kFuzzNodes, kFuzzShards);
  ShardedReplica r1(1, kFuzzNodes, kFuzzShards);
  EPI_CHECK(r0->Update("alpha", "a0").ok());
  EPI_CHECK(r1.Update("beta", "b1").ok());
  EPI_CHECK(r1.Update("gamma", "g1").ok());
  BufferPool pool;
  server::ShardedExchange to(*r0, pool), from(r1, pool);
  Status s = server::PullSharded(to, from).status();
  EPI_CHECK(s.ok() || s.IsConflict()) << s.ToString();
  EPI_CHECK(r0->CheckInvariants().ok());
  return r0;
}

MiniFuzzResult RunMiniFuzz(TargetFn fn, std::vector<std::string> seeds,
                           uint64_t runs, uint64_t seed, size_t max_len) {
  if (seeds.empty()) seeds.push_back(std::string());
  // Crash triage: with EPIFUZZ_DUMP=<path> every input is written to
  // <path> before execution, so the input that tripped the oracle (and
  // took the process down with it) is on disk afterwards.
  const char* dump_path = std::getenv("EPIFUZZ_DUMP");
  Rng rng(seed);
  MiniFuzzResult result;
  std::vector<uint8_t> buf(max_len);
  for (uint64_t i = 0; i < runs; ++i) {
    const std::string& pick = seeds[rng.Uniform(seeds.size())];
    size_t n = pick.size() < max_len ? pick.size() : max_len;
    std::copy(pick.begin(), pick.begin() + static_cast<ptrdiff_t>(n),
              buf.begin());
    const uint64_t rounds = 1 + rng.Uniform(4);
    for (uint64_t m = 0; m < rounds; ++m) {
      n = MutateFrame(buf.data(), n, max_len,
                      static_cast<unsigned>(rng.Next()));
    }
    if (dump_path != nullptr) {
      if (std::FILE* f = std::fopen(dump_path, "wb")) {
        std::fwrite(buf.data(), 1, n, f);
        std::fclose(f);
      }
    }
    fn(buf.data(), n);
    ++result.runs;
    result.executed_bytes += n;
  }
  return result;
}

}  // namespace epidemic::fuzz
