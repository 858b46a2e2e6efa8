#ifndef EPIDEMIC_FUZZ_HARNESS_H_
#define EPIDEMIC_FUZZ_HARNESS_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "core/replica.h"
#include "core/sharded_replica.h"

/// Shared fuzzing harness (DESIGN.md §13).
///
/// Every decode boundary gets a `Target_<name>` function with the libFuzzer
/// signature. A target feeds the input through the *real* decode-then-accept
/// path into a live replica and then asserts the §4.1/§5.2 invariants, so
/// the oracle is "no sanitizer finding AND no invariant violation" — a
/// decoder that accepts garbage into a state the invariant checker rejects
/// is just as broken as one that reads past a buffer.
///
/// The same target functions run in three drivers:
///   - per-target libFuzzer binaries (clang, EPIDEMIC_FUZZ=ON): the TU is
///     compiled with EPIFUZZ_ENTRY so EPIFUZZ_DEFINE_TARGET emits
///     LLVMFuzzerTestOneInput + the structure-aware custom mutator;
///   - the standalone `fuzz_replay` driver (any compiler): corpus replay
///     and a deterministic in-tree mutation fuzzer (`--fuzz`);
///   - the `fuzz_corpus_test` ctest, which replays the checked-in corpora
///     and the generated seed corpus in every CI matrix leg.
namespace epidemic::fuzz {

using TargetFn = int (*)(const uint8_t* data, size_t size);

// One entry per decode boundary; see targets/fuzz_<name>.cc.
int Target_codec(const uint8_t* data, size_t size);
int Target_wire_segment_v3(const uint8_t* data, size_t size);
int Target_vv_delta(const uint8_t* data, size_t size);
int Target_snapshot(const uint8_t* data, size_t size);
int Target_journal(const uint8_t* data, size_t size);
int Target_server_frame(const uint8_t* data, size_t size);
int Target_tokens(const uint8_t* data, size_t size);
int Target_fixture(const uint8_t* data, size_t size);

struct TargetInfo {
  const char* name;
  TargetFn fn;
};

/// All registered targets (registry.cc). `fixture` is last — it is the
/// seeded-defect demo decoder, not a production boundary.
const std::vector<TargetInfo>& AllTargets();
const TargetInfo* FindTarget(std::string_view name);

// ---------------------------------------------------------------------------
// Oracle
// ---------------------------------------------------------------------------

/// By default an oracle failure abort()s — that is what libFuzzer and ctest
/// both treat as the crash signal. The seeded-defect self-test flips this
/// so the expected failure is a clean exit(1) (ctest's WILL_FAIL inverts
/// exit codes, not signals).
void SetCleanExitOnOracleFailure(bool clean);

/// Reports an oracle violation and terminates (abort or exit(1), above).
[[noreturn]] void OracleFail(const char* target, const std::string& detail);

/// Fails the oracle when `s` is not OK. `what` names the claim being
/// checked, e.g. "invariants after accept".
void OracleExpectOk(const Status& s, const char* target, const char* what);

// ---------------------------------------------------------------------------
// Live-replica builders
// ---------------------------------------------------------------------------

/// Node count every harness replica uses. Seed corpora are generated for
/// the same width so decoded vectors line up with the acceptors.
inline constexpr size_t kFuzzNodes = 3;
inline constexpr size_t kFuzzShards = 4;

/// Fresh single replica (node 0 of kFuzzNodes) carrying a little real
/// state — local updates plus one accepted propagation from a peer — so
/// the invariant check after an accept is not vacuous.
std::unique_ptr<Replica> MakeSeededReplica();

/// Sharded twin of MakeSeededReplica (kFuzzShards shards).
std::unique_ptr<ShardedReplica> MakeSeededShardedReplica();

// ---------------------------------------------------------------------------
// In-tree mutation fuzzer (plain builds)
// ---------------------------------------------------------------------------

struct MiniFuzzResult {
  uint64_t runs = 0;
  uint64_t executed_bytes = 0;
};

/// Deterministic mutation fuzzer: repeatedly picks a seed, applies 1-4
/// structure-aware mutations (mutator.h) and runs `fn`. No coverage
/// feedback — this is the gcc-only smoke layer; coverage-guided runs are
/// the clang libFuzzer binaries. Oracle failures terminate inside `fn`.
MiniFuzzResult RunMiniFuzz(TargetFn fn, std::vector<std::string> seeds,
                           uint64_t runs, uint64_t seed,
                           size_t max_len = 4096);

}  // namespace epidemic::fuzz

// Expands to the libFuzzer entry points in fuzzer builds (EPIFUZZ_ENTRY is
// defined per-binary by fuzz/CMakeLists.txt) and to nothing everywhere
// else, so the same TU also links into the standalone replay driver.
#if defined(EPIFUZZ_ENTRY)
#include "fuzz/mutator.h"
#define EPIFUZZ_DEFINE_TARGET(name)                                           \
  extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {   \
    return ::epidemic::fuzz::Target_##name(data, size);                       \
  }                                                                           \
  extern "C" size_t LLVMFuzzerCustomMutator(uint8_t* data, size_t size,       \
                                            size_t max_size, unsigned seed) { \
    return ::epidemic::fuzz::MutateFrame(data, size, max_size, seed);         \
  }
#else
#define EPIFUZZ_DEFINE_TARGET(name)
#endif

#endif  // EPIDEMIC_FUZZ_HARNESS_H_
