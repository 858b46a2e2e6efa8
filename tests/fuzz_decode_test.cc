// Fuzz-style robustness tests: every decoder in the system must handle
// arbitrary and mutated bytes without crashing, hanging, or tripping an
// invariant — returning Corruption (or, rarely, a valid decode) instead.

#include <gtest/gtest.h>

#include <string>

#include "common/random.h"
#include "core/replica.h"
#include "core/sharded_replica.h"
#include "core/snapshot.h"
#include "net/codec.h"
#include "server/sharded_exchange.h"

namespace epidemic {
namespace {

std::string RandomBytes(Rng& rng, size_t max_len) {
  std::string out(rng.Uniform(max_len + 1), '\0');
  for (char& c : out) c = static_cast<char>(rng.Uniform(256));
  return out;
}

class FuzzSeedTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FuzzSeedTest, RandomBytesNeverCrashAnyDecoder) {
  Rng rng(GetParam() * 1337);
  for (int trial = 0; trial < 400; ++trial) {
    std::string bytes = RandomBytes(rng, 256);
    (void)net::Decode(bytes);
    (void)DecodeSnapshot(bytes);
    (void)net::DecodeScanListing(bytes);
  }
}

TEST_P(FuzzSeedTest, MutatedProtocolFramesFailCleanlyOrDecode) {
  Rng rng(GetParam() * 7331);

  // Build a realistic v3 propagation reply frame (tag 18), as the daemon
  // serves it, to mutate.
  constexpr size_t kShards = 2;
  ShardedReplica src(0, 3, kShards), dst(1, 3, kShards);
  BufferPool pool;
  server::ShardedExchange from(src, pool), to(dst, pool);
  for (int i = 0; i < 10; ++i) {
    (void)src.Update("item" + std::to_string(i), "value" + std::to_string(i));
  }
  std::string frame = from.ServeFrame(to.Handshake());

  for (int trial = 0; trial < 300; ++trial) {
    std::string mutated = frame;
    // Flip 1-4 random bytes.
    int flips = 1 + static_cast<int>(rng.Uniform(4));
    for (int f = 0; f < flips; ++f) {
      mutated[rng.Uniform(mutated.size())] =
          static_cast<char>(rng.Uniform(256));
    }
    (void)net::Decode(mutated);
    // The daemon's accept must stay safe on it too: the envelope decodes
    // or fails cleanly, each segment decodes or fails cleanly, and the
    // replica validates widths and rejects rather than corrupting state.
    ShardedReplica victim(2, 3, kShards);
    server::ShardedExchange into(victim, pool);
    (void)into.AcceptFrame(mutated);
    EXPECT_TRUE(victim.CheckInvariants().ok());
  }
}

TEST_P(FuzzSeedTest, MutatedSnapshotsNeverYieldBrokenReplicas) {
  Rng rng(GetParam() * 9973);
  Replica r(0, 2), peer(1, 2);
  for (int i = 0; i < 8; ++i) {
    (void)r.Update("k" + std::to_string(i), "v");
    (void)peer.Update("p" + std::to_string(i), "w");
  }
  (void)PropagateOnce(peer, r);
  std::string blob = EncodeSnapshot(r);

  for (int trial = 0; trial < 300; ++trial) {
    std::string mutated = blob;
    mutated[rng.Uniform(mutated.size())] =
        static_cast<char>(rng.Uniform(256));
    auto restored = DecodeSnapshot(mutated);
    if (restored.ok()) {
      // Decode validates invariants itself; double-check.
      EXPECT_TRUE((*restored)->CheckInvariants().ok());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSeedTest,
                         ::testing::Range(uint64_t{1}, uint64_t{6}));

}  // namespace
}  // namespace epidemic
