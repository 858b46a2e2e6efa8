// Wire-robustness: a frame of every message type (tags 3-13 and 16-18),
// truncated at every byte boundary, must come back from Decode as a clean Status error —
// never a crash, never an out-of-range read (the ASan/UBSan CI jobs run
// this test under both sanitizers), and never a silent success.

#include <string>
#include <variant>
#include <vector>

#include "core/wire.h"
#include "gtest/gtest.h"
#include "net/codec.h"
#include "vv/version_vector.h"

namespace epidemic {
namespace {

VersionVector MakeVv() {
  VersionVector vv(3);
  vv[0] = 7;
  vv[1] = 0;
  vv[2] = 300;  // two-byte varint, so truncation can split it
  return vv;
}

PropagationResponse MakePropagationResponse() {
  PropagationResponse resp;
  resp.tails.resize(3);
  resp.tails[0].push_back(WireLogRecord{"k0", 7});
  resp.tails[2].push_back(WireLogRecord{"k0", 299});
  resp.tails[2].push_back(WireLogRecord{"k1", 300});
  resp.items.push_back(WireItem{"k0", "value-zero", false, MakeVv()});
  resp.items.push_back(WireItem{"k1", "", true, MakeVv()});
  return resp;
}

/// A populated v3 segment body over the same sample response, with the base
/// chosen to dominate every item IVV.
std::string EncodeV3SegmentBody() {
  PropagationResponse resp = MakePropagationResponse();
  PropagationResponseView view;
  wire::MakeResponseView(resp, &view);
  VersionVector base(3);
  base[0] = 100;
  base[1] = 100;
  base[2] = 1000;
  ByteWriter w;
  wire::EncodeShardSegmentBodyV3Into(w, view, base);
  return w.Release();
}

/// A fully populated net::Message alternative and the tag its frame must
/// lead with.
struct Representative {
  uint8_t tag;
  net::Message msg;
};

// One fully populated representative of every net::Message alternative, in
// variant order (tags 3..13, then 17, 18, 16).
std::vector<Representative> RepresentativeMessages() {
  std::vector<Representative> msgs;
  msgs.push_back({3, OobRequest{1, "k0"}});
  msgs.push_back({4, OobResponse{true, "k0", "v", false, MakeVv()}});
  msgs.push_back({5, net::ClientUpdateRequest{"k0", "value"}});
  msgs.push_back({6, net::ClientReadRequest{"k0"}});
  msgs.push_back({7, net::ClientOobFetchRequest{2, "k0"}});
  msgs.push_back({8, net::ClientReply{1, "payload"}});
  msgs.push_back({9, net::ClientDeleteRequest{"k0"}});
  msgs.push_back({10, net::ClientStatsRequest{}});
  msgs.push_back({11, net::ClientScanRequest{"k", 128}});
  msgs.push_back({12, net::ClientSyncRequest{1}});
  msgs.push_back({13, net::ClientCheckpointRequest{}});

  ShardedPropagationRequest sharded_req;
  sharded_req.requester = 2;
  sharded_req.shard_dbvvs = {MakeVv(), MakeVv()};
  msgs.push_back({17, sharded_req});

  ShardedPropagationResponse sharded_resp;
  sharded_resp.num_shards = 2;
  sharded_resp.segments.push_back(
      ShardedPropagationSegment{0, EncodeV3SegmentBody()});
  sharded_resp.segments.push_back(
      ShardedPropagationSegment{1, EncodeV3SegmentBody()});
  msgs.push_back({18, sharded_resp});

  msgs.push_back({16, net::ClientResetStatsRequest{}});
  return msgs;
}

TEST(WireTruncationTest, EveryPrefixOfEveryMessageIsRejected) {
  const std::vector<Representative> msgs = RepresentativeMessages();
  ASSERT_EQ(msgs.size(), 14u);
  ASSERT_EQ(msgs.size(), std::variant_size_v<net::Message>);
  for (size_t m = 0; m < msgs.size(); ++m) {
    EXPECT_EQ(msgs[m].msg.index(), m) << "representatives out of order";
    const std::string frame = net::Encode(msgs[m].msg);
    ASSERT_FALSE(frame.empty());
    // The tag comes from the message type, as docs/PROTOCOL.md lists it.
    EXPECT_EQ(static_cast<uint8_t>(frame[0]), msgs[m].tag) << "message " << m;
    // The full frame must round-trip to the same alternative.
    auto full = net::Decode(frame);
    ASSERT_TRUE(full.ok()) << "message " << m << ": " <<
        full.status().message();
    EXPECT_EQ(full->index(), msgs[m].msg.index()) << "message " << m;
    // Every strict prefix must be rejected with a clean error.
    for (size_t cut = 0; cut < frame.size(); ++cut) {
      auto r = net::Decode(std::string_view(frame.data(), cut));
      EXPECT_FALSE(r.ok())
          << "message " << m << " decoded OK from a " << cut << "-byte prefix"
          << " of its " << frame.size() << "-byte frame";
    }
  }
}

// Flipping the tag byte to an unknown value must be rejected cleanly —
// including the retired numbers: 1 and 2 (whole-database wire v1), 14 and
// 15 (sharded wire v2).
TEST(WireTruncationTest, UnknownTagIsRejected) {
  std::string frame = net::Encode(net::ClientReadRequest{"k0"});
  for (int tag : {0, 1, 2, 14, 15, 19, 42, 255}) {
    frame[0] = static_cast<char>(tag);
    auto r = net::Decode(frame);
    EXPECT_FALSE(r.ok()) << "tag " << tag << " decoded OK";
  }
}

// The opaque per-shard v3 segment bodies of a sharded reply are decoded by
// a separate entry point (inside the shard's task); they get the same
// every-prefix treatment through their zero-copy decoder.
TEST(WireTruncationTest, EveryPrefixOfV3SegmentBodyIsRejected) {
  const std::string body = EncodeV3SegmentBody();
  ASSERT_FALSE(body.empty());
  wire::SegmentViewStorage storage;
  PropagationResponseView view;
  ASSERT_TRUE(wire::DecodeShardSegmentBodyV3(body, &storage, &view).ok());
  for (size_t cut = 0; cut < body.size(); ++cut) {
    Status s = wire::DecodeShardSegmentBodyV3(
        std::string_view(body.data(), cut), &storage, &view);
    EXPECT_FALSE(s.ok()) << "v3 segment body decoded OK from a " << cut
                         << "-byte prefix of " << body.size() << " bytes";
  }
}

}  // namespace
}  // namespace epidemic
