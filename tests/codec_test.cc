#include "net/codec.h"

#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <variant>

#include "core/sharded_replica.h"
#include "server/sharded_exchange.h"

namespace epidemic::net {
namespace {

VersionVector Vv(std::vector<UpdateCount> counts) {
  return VersionVector(std::move(counts));
}

/// VmPeak from /proc/self/status in KiB, or 0 where it is unavailable.
uint64_t VmPeakKib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmPeak:", 0) == 0) return std::stoull(line.substr(7));
  }
  return 0;
}

TEST(CodecTest, VersionVectorRoundTrip) {
  ByteWriter w;
  EncodeVersionVector(&w, Vv({0, 1, 1234567890123ull}));
  ByteReader r(w.data());
  auto vv = DecodeVersionVector(&r);
  ASSERT_TRUE(vv.ok());
  EXPECT_EQ(*vv, Vv({0, 1, 1234567890123ull}));
  EXPECT_TRUE(r.AtEnd());
}

TEST(CodecTest, EmptyVersionVector) {
  ByteWriter w;
  EncodeVersionVector(&w, VersionVector());
  ByteReader r(w.data());
  auto vv = DecodeVersionVector(&r);
  ASSERT_TRUE(vv.ok());
  EXPECT_EQ(vv->size(), 0u);
}

TEST(CodecTest, OobRequestRoundTrip) {
  OobRequest req{2, "hot-item"};
  auto decoded = Decode(Encode(Message(req)));
  ASSERT_TRUE(decoded.ok());
  auto* out = std::get_if<OobRequest>(&*decoded);
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(out->requester, 2u);
  EXPECT_EQ(out->item_name, "hot-item");
}

TEST(CodecTest, OobResponseFoundRoundTrip) {
  OobResponse resp;
  resp.found = true;
  resp.item_name = "x";
  resp.value = "payload";
  resp.ivv = Vv({3, 4});
  auto decoded = Decode(Encode(Message(resp)));
  ASSERT_TRUE(decoded.ok());
  auto* out = std::get_if<OobResponse>(&*decoded);
  ASSERT_NE(out, nullptr);
  EXPECT_TRUE(out->found);
  EXPECT_EQ(out->value, "payload");
  EXPECT_EQ(out->ivv, Vv({3, 4}));
}

TEST(CodecTest, OobResponseNotFoundOmitsBody) {
  OobResponse resp;
  resp.found = false;
  resp.item_name = "ghost";
  std::string encoded = Encode(Message(resp));
  auto decoded = Decode(encoded);
  ASSERT_TRUE(decoded.ok());
  auto* out = std::get_if<OobResponse>(&*decoded);
  ASSERT_NE(out, nullptr);
  EXPECT_FALSE(out->found);
  EXPECT_EQ(out->item_name, "ghost");
  EXPECT_TRUE(out->value.empty());
}

TEST(CodecTest, ClientMessagesRoundTrip) {
  {
    auto decoded =
        Decode(Encode(Message(ClientUpdateRequest{"item", "value"})));
    ASSERT_TRUE(decoded.ok());
    auto* out = std::get_if<ClientUpdateRequest>(&*decoded);
    ASSERT_NE(out, nullptr);
    EXPECT_EQ(out->item_name, "item");
    EXPECT_EQ(out->value, "value");
  }
  {
    auto decoded = Decode(Encode(Message(ClientReadRequest{"item"})));
    ASSERT_TRUE(decoded.ok());
    ASSERT_NE(std::get_if<ClientReadRequest>(&*decoded), nullptr);
  }
  {
    auto decoded = Decode(Encode(Message(ClientOobFetchRequest{4, "item"})));
    ASSERT_TRUE(decoded.ok());
    auto* out = std::get_if<ClientOobFetchRequest>(&*decoded);
    ASSERT_NE(out, nullptr);
    EXPECT_EQ(out->from_peer, 4u);
  }
  {
    auto decoded = Decode(Encode(Message(ClientReply{7, "oops"})));
    ASSERT_TRUE(decoded.ok());
    auto* out = std::get_if<ClientReply>(&*decoded);
    ASSERT_NE(out, nullptr);
    EXPECT_EQ(out->code, 7);
    EXPECT_EQ(out->payload, "oops");
  }
}

TEST(CodecTest, StatsAndScanMessagesRoundTrip) {
  {
    auto decoded = Decode(Encode(Message(ClientStatsRequest{})));
    ASSERT_TRUE(decoded.ok());
    EXPECT_NE(std::get_if<ClientStatsRequest>(&*decoded), nullptr);
  }
  {
    auto decoded = Decode(Encode(Message(ClientScanRequest{"pre", 42})));
    ASSERT_TRUE(decoded.ok());
    auto* out = std::get_if<ClientScanRequest>(&*decoded);
    ASSERT_NE(out, nullptr);
    EXPECT_EQ(out->prefix, "pre");
    EXPECT_EQ(out->limit, 42u);
  }
}

TEST(CodecTest, ScanListingRoundTrip) {
  std::vector<std::pair<std::string, std::string>> items = {
      {"a", "1"}, {"b", ""}, {"c", std::string("\x00\x01", 2)}};
  auto decoded = DecodeScanListing(EncodeScanListing(items));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, items);

  auto empty = DecodeScanListing(EncodeScanListing({}));
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
}

TEST(CodecTest, ScanListingTruncationRejected) {
  std::string payload = EncodeScanListing({{"name", "value"}});
  for (size_t cut = 0; cut < payload.size(); ++cut) {
    EXPECT_FALSE(DecodeScanListing(payload.substr(0, cut)).ok()) << cut;
  }
}

// The listing count is checked against the payload before anything is
// reserved: four bytes claiming 2^24 pairs once made the client reserve
// 1 GiB of pairs, only for the decode to fail on the first name.
TEST(CodecTest, ScanListingCountBeyondPayloadReservesNothing) {
  ByteWriter w;
  w.PutVarint64(uint64_t{1} << 24);
  ASSERT_EQ(w.size(), 4u);
  const uint64_t before = VmPeakKib();
  ASSERT_GT(before, 0u);
  EXPECT_TRUE(DecodeScanListing(w.data()).status().IsCorruption());
  EXPECT_LT(VmPeakKib() - before, uint64_t{64} * 1024);
}

TEST(CodecTest, EmptyFrameRejected) {
  EXPECT_TRUE(Decode("").status().IsCorruption());
}

TEST(CodecTest, UnknownTagRejected) {
  std::string frame(1, '\x7f');
  EXPECT_TRUE(Decode(frame).status().IsCorruption());
}

TEST(CodecTest, TrailingBytesRejected) {
  std::string frame = Encode(Message(ClientReadRequest{"x"}));
  frame += "junk";
  EXPECT_TRUE(Decode(frame).status().IsCorruption());
}

// Truncation fuzzing: every strict prefix of a valid frame must decode to
// an error, never crash or succeed.
class TruncationTest : public ::testing::TestWithParam<size_t> {};

TEST_P(TruncationTest, EveryPrefixFailsCleanly) {
  // A one-shard v3 reply (tag 18) carrying one segment, as the daemon
  // serves it.
  ShardedReplica src(0, 2, 1), dst(1, 2, 1);
  BufferPool pool;
  server::ShardedExchange from(src, pool), to(dst, pool);
  ASSERT_TRUE(src.Update("item-with-a-long-name", "some value bytes").ok());
  std::string frame = from.ServeFrame(to.Handshake());

  size_t cut = GetParam();
  if (cut >= frame.size()) GTEST_SKIP() << "prefix length beyond frame";
  auto decoded = Decode(frame.substr(0, cut));
  EXPECT_FALSE(decoded.ok());
  EXPECT_TRUE(decoded.status().IsCorruption());
}

INSTANTIATE_TEST_SUITE_P(Prefixes, TruncationTest,
                         ::testing::Range(size_t{0}, size_t{60}));

TEST(CodecTest, AbsurdVersionVectorSizeRejected) {
  // Hand-craft a v3 handshake whose one shard DBVV claims a gigantic size.
  ByteWriter w;
  w.PutU8(static_cast<uint8_t>(MessageType::kShardedPropagationRequestV3));
  w.PutVarint64(0);              // requester
  w.PutU8(0);                    // flags
  w.PutVarint64(0);              // last epoch
  w.PutVarint64(1);              // one shard DBVV
  w.PutVarint64(1ull << 40);     // absurd vv length
  EXPECT_TRUE(Decode(w.data()).status().IsCorruption());
}

}  // namespace
}  // namespace epidemic::net
