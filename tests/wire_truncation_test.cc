// Wire-robustness: a frame of every message type (tags 1-18), truncated at
// every byte boundary, must come back from Decode as a clean Status error —
// never a crash, never an out-of-range read (the ASan/UBSan CI jobs run
// this test under both sanitizers), and never a silent success.

#include <string>
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

/// A populated v3 segment body (optionally LZ77-compressed) over the same
/// sample response, with the base chosen to dominate every item IVV.
std::string EncodeV3SegmentBody(bool compressed) {
  PropagationResponse resp = MakePropagationResponse();
  if (compressed) resp.items[0].value = std::string(2048, 'x');
  PropagationResponseView view;
  wire::MakeResponseView(resp, &view);
  VersionVector base(3);
  base[0] = 100;
  base[1] = 100;
  base[2] = 1000;
  wire::V3SegmentOptions opts;
  opts.compress = compressed;
  opts.min_compress_bytes = 16;
  std::string body;
  wire::EncodeShardSegmentBodyV3(view, base, opts, nullptr, &body);
  return body;
}

// One fully populated representative of every net::Message alternative, in
// wire-tag order 1..18.
std::vector<net::Message> RepresentativeMessages() {
  std::vector<net::Message> msgs;
  msgs.push_back(PropagationRequest{2, MakeVv()});      // tag 1
  msgs.push_back(MakePropagationResponse());            // tag 2
  msgs.push_back(OobRequest{1, "k0"});                  // tag 3
  msgs.push_back(OobResponse{true, "k0", "v", false, MakeVv()});  // tag 4
  msgs.push_back(net::ClientUpdateRequest{"k0", "value"});        // tag 5
  msgs.push_back(net::ClientReadRequest{"k0"});         // tag 6
  msgs.push_back(net::ClientOobFetchRequest{2, "k0"});  // tag 7
  msgs.push_back(net::ClientReply{1, "payload"});       // tag 8
  msgs.push_back(net::ClientDeleteRequest{"k0"});       // tag 9
  msgs.push_back(net::ClientStatsRequest{});            // tag 10
  msgs.push_back(net::ClientScanRequest{"k", 128});     // tag 11
  msgs.push_back(net::ClientSyncRequest{1});            // tag 12
  msgs.push_back(net::ClientCheckpointRequest{});       // tag 13

  ShardedPropagationRequest sharded_req;                // tag 14
  sharded_req.requester = 2;
  sharded_req.shard_dbvvs = {MakeVv(), MakeVv()};
  msgs.push_back(sharded_req);

  ShardedPropagationResponse sharded_resp;              // tag 15
  sharded_resp.num_shards = 2;
  sharded_resp.segments.push_back(ShardedPropagationSegment{
      0, wire::EncodeShardSegmentBody(MakePropagationResponse())});
  sharded_resp.segments.push_back(
      ShardedPropagationSegment{1, wire::EncodeShardSegmentBody({})});
  msgs.push_back(sharded_resp);

  msgs.push_back(net::ClientResetStatsRequest{});       // tag 16

  ShardedPropagationRequest sharded_req_v3 = sharded_req;  // tag 17
  sharded_req_v3.wire_version = kWireV3;
  sharded_req_v3.flags = kPropFlagAcceptCompressed;
  msgs.push_back(sharded_req_v3);

  ShardedPropagationResponse sharded_resp_v3;           // tag 18
  sharded_resp_v3.wire_version = kWireV3;
  sharded_resp_v3.num_shards = 2;
  sharded_resp_v3.segments.push_back(
      ShardedPropagationSegment{0, EncodeV3SegmentBody(false)});
  sharded_resp_v3.segments.push_back(
      ShardedPropagationSegment{1, EncodeV3SegmentBody(true)});
  msgs.push_back(sharded_resp_v3);
  return msgs;
}

TEST(WireTruncationTest, EveryPrefixOfEveryMessageIsRejected) {
  const std::vector<net::Message> msgs = RepresentativeMessages();
  ASSERT_EQ(msgs.size(), 18u);
  for (size_t m = 0; m < msgs.size(); ++m) {
    const std::string frame = net::Encode(msgs[m]);
    ASSERT_FALSE(frame.empty());
    // The full frame must round-trip to the same alternative.
    auto full = net::Decode(frame);
    ASSERT_TRUE(full.ok()) << "message " << m << ": " <<
        full.status().message();
    EXPECT_EQ(full->index(), msgs[m].index()) << "message " << m;
    // Every strict prefix must be rejected with a clean error.
    for (size_t cut = 0; cut < frame.size(); ++cut) {
      auto r = net::Decode(std::string_view(frame.data(), cut));
      EXPECT_FALSE(r.ok())
          << "message " << m << " decoded OK from a " << cut << "-byte prefix"
          << " of its " << frame.size() << "-byte frame";
    }
  }
}

// The opaque per-shard segment bodies of a sharded reply are decoded by a
// separate entry point (under the shard's lock); they get the same
// treatment.
TEST(WireTruncationTest, EveryPrefixOfShardSegmentBodyIsRejected) {
  const std::string body = wire::EncodeShardSegmentBody(
      MakePropagationResponse());
  ASSERT_FALSE(body.empty());
  ASSERT_TRUE(wire::DecodeShardSegmentBody(body).ok());
  for (size_t cut = 0; cut < body.size(); ++cut) {
    auto r = wire::DecodeShardSegmentBody(
        std::string_view(body.data(), cut));
    EXPECT_FALSE(r.ok()) << "segment body decoded OK from a " << cut
                         << "-byte prefix of " << body.size() << " bytes";
  }
}

// Flipping the tag byte to values outside 1..18 must be rejected cleanly.
TEST(WireTruncationTest, UnknownTagIsRejected) {
  std::string frame = net::Encode(net::ClientReadRequest{"k0"});
  for (int tag : {0, 19, 42, 255}) {
    frame[0] = static_cast<char>(tag);
    auto r = net::Decode(frame);
    EXPECT_FALSE(r.ok()) << "tag " << tag << " decoded OK";
  }
}

// v3 segment bodies — plain and compressed — get the same every-prefix
// treatment through their zero-copy decoder.
TEST(WireTruncationTest, EveryPrefixOfV3SegmentBodyIsRejected) {
  for (bool compressed : {false, true}) {
    const std::string body = EncodeV3SegmentBody(compressed);
    ASSERT_FALSE(body.empty());
    wire::SegmentViewStorage storage;
    PropagationResponseView view;
    ASSERT_TRUE(wire::DecodeShardSegmentBodyV3(body, &storage, &view).ok());
    for (size_t cut = 0; cut < body.size(); ++cut) {
      Status s = wire::DecodeShardSegmentBodyV3(
          std::string_view(body.data(), cut), &storage, &view);
      EXPECT_FALSE(s.ok())
          << (compressed ? "compressed" : "plain") << " v3 segment body "
          << "decoded OK from a " << cut << "-byte prefix of " << body.size()
          << " bytes";
    }
  }
}

}  // namespace
}  // namespace epidemic
