#include "fuzz/seed_corpus.h"

#include <cstdio>
#include <memory>
#include <utility>

#include "common/bytes.h"
#include "common/hash.h"
#include "common/logging.h"
#include "core/journal.h"
#include "core/snapshot.h"
#include "core/wire.h"
#include "fuzz/harness.h"
#include "net/codec.h"
#include "net/inproc_transport.h"
#include "server/replica_server.h"
#include "server/sharded_exchange.h"
#include "vv/vv_codec.h"

namespace epidemic::fuzz {

namespace {

void Add(std::vector<SeedInput>* out, std::string label, std::string bytes) {
  out->push_back(SeedInput{std::move(label), std::move(bytes)});
}

/// A served, non-current response in the kFuzzNodes world — node 1 (with
/// writes node 0 lacks) answering node 0's handshake — as a v3 segment
/// body encoded against its source's DBVV: the body a daemon journals and
/// a wire-v3 reply carries.
std::string PlainSegmentBody() {
  Replica r0(0, kFuzzNodes);
  Replica r1(1, kFuzzNodes);
  EPI_CHECK(r0.Update("alpha", "a0").ok());
  EPI_CHECK(r1.Update("beta", "b1").ok());
  EPI_CHECK(r1.Update("alpha", "a1").ok());  // concurrent: ships a conflict
  EPI_CHECK(r1.Delete("beta").ok());         // and a tombstone
  ByteWriter w;
  wire::EncodeShardSegmentBodyV3Into(
      w, r1.HandlePropagationView(r0.BuildPropagationRequest()), r1.dbvv());
  return w.Release();
}

std::string JournalFrame(std::string_view payload) {
  ByteWriter framed;
  framed.PutVarint64(payload.size());
  framed.PutBytes(payload.data(), payload.size());
  framed.PutFixed32(Crc32c(payload));
  return framed.Release();
}

/// Every message of the codec, as the daemon's encoders write it.
std::vector<SeedInput> MessageSeeds() {
  std::vector<SeedInput> out;
  auto replica = MakeSeededReplica();
  auto sharded = MakeSeededShardedReplica();

  Add(&out, "oob_request",
      net::Encode(net::Message(replica->BuildOobRequest("alpha"))));
  Add(&out, "oob_response",
      net::Encode(net::Message(
          replica->HandleOobRequest(OobRequest{1, "alpha"}))));
  Add(&out, "client_update",
      net::Encode(net::Message(net::ClientUpdateRequest{"alpha", "v"})));
  Add(&out, "client_read",
      net::Encode(net::Message(net::ClientReadRequest{"alpha"})));
  Add(&out, "client_delete",
      net::Encode(net::Message(net::ClientDeleteRequest{"alpha"})));
  Add(&out, "client_stats",
      net::Encode(net::Message(net::ClientStatsRequest{})));
  Add(&out, "client_reset_stats",
      net::Encode(net::Message(net::ClientResetStatsRequest{})));
  Add(&out, "client_scan",
      net::Encode(net::Message(net::ClientScanRequest{"al", 10})));
  Add(&out, "client_sync",
      net::Encode(net::Message(net::ClientSyncRequest{1})));
  Add(&out, "client_checkpoint",
      net::Encode(net::Message(net::ClientCheckpointRequest{})));
  Add(&out, "client_oob_fetch",
      net::Encode(net::Message(net::ClientOobFetchRequest{1, "alpha"})));
  Add(&out, "client_reply",
      net::Encode(net::Message(net::ClientReply{0, "payload"})));

  BufferPool pool;
  ShardedPropagationRequest req_v3 =
      server::ShardedExchange(*sharded, pool).Handshake();
  Add(&out, "sharded_request_v3", net::Encode(net::Message(req_v3)));

  ShardedPropagationRequest probe = req_v3;
  probe.flags = kPropFlagEpochProbe;
  probe.last_epoch = 1;
  probe.shard_dbvvs.clear();
  Add(&out, "sharded_request_v3_probe", net::Encode(net::Message(probe)));

  // The reply frame the daemon's serve writes for that handshake.
  ShardedReplica source(1, kFuzzNodes, kFuzzShards);
  EPI_CHECK(source.Update("beta", "b1").ok());
  EPI_CHECK(source.Update("gamma", "g1").ok());
  Add(&out, "sharded_response_v3",
      server::ShardedExchange(source, pool).ServeFrame(req_v3));
  return out;
}

/// Partial replies (response flag 0x02): the one a source with a one-byte
/// serve budget writes to an empty node's handshake, and one carrying no
/// segment, which every decoder refuses.
std::vector<SeedInput> PartialReplySeeds() {
  std::vector<SeedInput> out;
  ShardedReplica empty(0, kFuzzNodes, kFuzzShards);
  ShardedReplica source(1, kFuzzNodes, kFuzzShards);
  for (const char* name : {"alpha", "beta", "gamma", "delta"}) {
    EPI_CHECK(source.Update(name, name).ok());
  }
  BufferPool pool;
  const std::string partial =
      server::ShardedExchange(source, pool, /*serve_budget=*/1)
          .ServeFrame(server::ShardedExchange(empty, pool).Handshake());
  wire::ShardedResponseEnvelopeView env;
  EPI_CHECK(server::DecodeReplyFrame(partial, &env).ok());
  EPI_CHECK(env.partial() && env.segments.size() == 1);
  Add(&out, "sharded_response_v3_partial", partial);

  ShardedPropagationResponse empty_partial;
  empty_partial.num_shards = kFuzzShards;
  empty_partial.resp_flags = kPropRespFlagPartial;
  empty_partial.epoch = 1;
  Add(&out, "sharded_response_v3_partial_empty",
      net::Encode(net::Message(empty_partial)));
  return out;
}

std::vector<SeedInput> CodecSeeds() {
  std::vector<SeedInput> out = MessageSeeds();
  for (SeedInput& seed : PartialReplySeeds()) out.push_back(std::move(seed));
  return out;
}

std::vector<SeedInput> WireSegmentV3Seeds() {
  std::vector<SeedInput> out;
  const std::string body = PlainSegmentBody();
  Add(&out, "segment_plain", body);

  // The flags byte an older build set on a compressed segment: rejected
  // now as an unknown flag, before anything else is read.
  std::string retired_flag = body;
  retired_flag[0] = '\x01';
  Add(&out, "segment_retired_compressed_flag", retired_flag);

  Add(&out, "segment_truncated", body.substr(0, 7));
  Add(&out, "segment_trailing_byte", body + '\x00');

  // Regression: the mini fuzzer's first find. A segment shipping a fresh
  // item whose tail record reuses an origin seq the seeded replica's L[1]
  // already holds for gamma — accept used to insert the duplicate and
  // break the origin-order invariant (see ValidatePropagationResponse's
  // merge-scan and RobustnessTest.TailSeqReuseForDifferentItemRejected).
  Add(&out, "seq_reuse_regression",
      std::string("\x00\x03\x00\x03\x00\x02\x05\x61\x6c\x80\x68\x61\x02\x61"
                  "\x31\x00\x02\x01\x01\x04\x62\x65\x00\x61\x00\x01\x02\x01"
                  "\x02\x03\x00\x02\x00\x02\x01\x00\x00",
                  37));
  return out;
}

std::vector<SeedInput> VvDeltaSeeds() {
  std::vector<SeedInput> out;
  for (size_t width : {size_t{0}, size_t{1}, size_t{3}, size_t{8}}) {
    VersionVector base(width);
    for (size_t k = 0; k < width; ++k) base[k] = k * 7 + 1;

    VersionVector sparse(width);
    if (width > 0) sparse[0] = 42;
    VersionVector close = base;
    if (width > 1) close[1] -= 1;

    for (const auto& [name, vv] :
         {std::pair<const char*, VersionVector&>{"sparse", sparse},
          std::pair<const char*, VersionVector&>{"close", close}}) {
      ByteWriter w;
      w.PutU8(static_cast<uint8_t>(width));
      EncodeVersionVectorDelta(&w, vv, base);
      Add(&out, "delta_w" + std::to_string(width) + "_" + name, w.Release());
    }
    ByteWriter w;
    w.PutU8(static_cast<uint8_t>(width));
    EncodeVersionVector(&w, base);
    Add(&out, "dense_w" + std::to_string(width), w.Release());
  }
  return out;
}

std::vector<SeedInput> SnapshotSeeds() {
  std::vector<SeedInput> out;
  auto replica = MakeSeededReplica();
  std::string blob = EncodeSnapshot(*replica);
  Add(&out, "snapshot", blob);
  Add(&out, "snapshot_truncated", blob.substr(0, blob.size() / 2));

  auto sharded = MakeSeededShardedReplica();
  Add(&out, "sharded_snapshot", EncodeShardedSnapshot(*sharded));

  std::string bad_magic = blob;
  if (!bad_magic.empty()) bad_magic[0] ^= 0x20;
  Add(&out, "snapshot_bad_magic", bad_magic);
  return out;
}

std::vector<SeedInput> JournalSeeds() {
  std::vector<SeedInput> out;

  ByteWriter update;
  update.PutU8(1);  // RecordTag::kUpdate
  update.PutString("alpha");
  update.PutString("new-value");
  const std::string update_frame = JournalFrame(update.data());
  Add(&out, "update", update_frame);

  ByteWriter del;
  del.PutU8(2);  // RecordTag::kDelete
  del.PutString("alpha");
  Add(&out, "delete", JournalFrame(del.data()));

  // The two records a peer causes on a daemon: an accepted v3 segment and
  // an accepted out-of-bound copy.
  ByteWriter prop;
  prop.PutU8(6);  // RecordTag::kPropagationSegV3
  const std::string body = PlainSegmentBody();
  prop.PutBytes(body.data(), body.size());
  Add(&out, "propagation_seg_v3", JournalFrame(prop.data()));

  Replica r2(2, kFuzzNodes);
  EPI_CHECK(r2.Update("delta", "d2").ok());
  ByteWriter oob;
  oob.PutU8(4);  // RecordTag::kOob
  wire::EncodeOobResponseBody(oob, r2.HandleOobRequest(OobRequest{0, "delta"}));
  Add(&out, "oob", JournalFrame(oob.data()));

  ByteWriter resolve;
  resolve.PutU8(5);  // RecordTag::kResolve
  resolve.PutString("alpha");
  VersionVector vv(kFuzzNodes);
  vv[1] = 1;
  EncodeVersionVector(&resolve, vv);
  resolve.PutString("resolved");
  Add(&out, "resolve", JournalFrame(resolve.data()));

  // A multi-record stream with a torn tail: the replay must stop cleanly.
  std::string stream = update_frame;
  stream += JournalFrame(del.data());
  stream += update_frame.substr(0, update_frame.size() - 3);
  Add(&out, "stream_torn_tail", stream);

  // A CRC-corrupted record: replay stops at the last good prefix.
  std::string corrupt = update_frame;
  corrupt.back() = static_cast<char>(corrupt.back() ^ 0xff);
  Add(&out, "crc_mismatch", corrupt);
  return out;
}

std::vector<SeedInput> ServerFrameSeeds() {
  // The server consumes codec frames; reuse them and add a v3 exchange
  // captured from a live server (the direct-to-frame serve reply), then
  // the partial replies.
  std::vector<SeedInput> out = MessageSeeds();

  net::InProcHub hub(kFuzzNodes);
  net::InProcTransport transport(&hub);
  server::ReplicaServer::Options options;
  options.num_shards = kFuzzShards;
  server::ReplicaServer server(1, kFuzzNodes, &transport, options);
  hub.Register(1, &server);
  EPI_CHECK(server.Update("beta", "b1").ok());

  ShardedReplica requester(0, kFuzzNodes, kFuzzShards);
  EPI_CHECK(requester.Update("alpha", "a0").ok());
  BufferPool pool;
  std::string reply = server.HandleRequest(net::Encode(
      net::Message(server::ShardedExchange(requester, pool).Handshake())));
  Add(&out, "served_v3_response_frame", reply);
  for (SeedInput& seed : PartialReplySeeds()) out.push_back(std::move(seed));
  return out;
}

std::vector<SeedInput> FixtureSeeds() {
  std::vector<SeedInput> out;
  Add(&out, "empty_records", std::string("F\x00", 2));
  Add(&out, "two_records", std::string("F\x02\x03"
                                       "abc"
                                       "\x01"
                                       "z",
                                       8));
  Add(&out, "max_len_record", std::string("F\x01\x04"
                                          "wxyz",
                                          7));
  Add(&out, "bad_magic", std::string("G\x01\x01"
                                     "a",
                                     4));
  return out;
}

}  // namespace

std::string SeedFileName(size_t index, const std::string& label) {
  char prefix[8];
  std::snprintf(prefix, sizeof(prefix), "%02zu-", index % 100);
  return prefix + label + ".bin";
}

std::vector<SeedInput> BuildSeedCorpus(const std::string& target) {
  if (target == "codec") return CodecSeeds();
  if (target == "wire_segment_v3") return WireSegmentV3Seeds();
  if (target == "vv_delta") return VvDeltaSeeds();
  if (target == "snapshot") return SnapshotSeeds();
  if (target == "journal") return JournalSeeds();
  if (target == "server_frame") return ServerFrameSeeds();
  if (target == "fixture") return FixtureSeeds();
  return {};
}

}  // namespace epidemic::fuzz
