// Direct tests of the shared message-body serialization (core/wire.h) that
// both the network codec and the journal depend on.

#include "core/wire.h"

#include <gtest/gtest.h>

#include <random>
#include <string>

#include "vv/vv_codec.h"

namespace epidemic::wire {
namespace {

VersionVector Vv(std::vector<UpdateCount> counts) {
  return VersionVector(std::move(counts));
}

TEST(WireTest, OobBodiesRoundTrip) {
  {
    OobRequest m{3, "item"};
    ByteWriter w;
    EncodeOobRequestBody(w, m);
    ByteReader r(w.data());
    auto out = DecodeOobRequestBody(r);
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(out->requester, 3u);
    EXPECT_EQ(out->item_name, "item");
  }
  {
    OobResponse m;
    m.found = true;
    m.item_name = "item";
    m.value = "v";
    m.deleted = true;
    m.ivv = Vv({4});
    ByteWriter w;
    EncodeOobResponseBody(w, m);
    ByteReader r(w.data());
    auto out = DecodeOobResponseBody(r);
    ASSERT_TRUE(out.ok());
    EXPECT_TRUE(out->found);
    EXPECT_TRUE(out->deleted);
    EXPECT_EQ(out->ivv, Vv({4}));
  }
}

TEST(WireTest, BodiesComposeInOneBuffer) {
  // The journal writes a tag byte then a body; several records share one
  // buffer. Bodies must consume exactly their own bytes.
  ByteWriter w;
  EncodeOobRequestBody(w, OobRequest{1, "x"});
  EncodeOobResponseBody(w, OobResponse{true, "y", "v", false, Vv({5, 6})});
  ByteReader r(w.data());
  auto first = DecodeOobRequestBody(r);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->item_name, "x");
  auto second = DecodeOobResponseBody(r);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->ivv, Vv({5, 6}));
  EXPECT_TRUE(r.AtEnd());
}

TEST(WireTest, TruncatedBodiesFail) {
  ByteWriter w;
  EncodeOobResponseBody(w, OobResponse{true, "abc", "value", false, Vv({5})});
  std::string data = w.Release();
  for (size_t cut = 0; cut < data.size(); ++cut) {
    ByteReader r(std::string_view(data).substr(0, cut));
    EXPECT_FALSE(DecodeOobResponseBody(r).ok()) << cut;
  }
}

// ---------------------------------------------------------------------------
// Wire v3: delta-encoded IVVs, self-framed segments, zero-copy views.
// ---------------------------------------------------------------------------

/// Field-by-field equality for owned responses (no operator== on the wire
/// structs — they are plain carriers).
// Compares a view with the owned response it should reproduce, field by
// field.
void ExpectViewMatches(const PropagationResponseView& a,
                       const PropagationResponse& b) {
  EXPECT_EQ(a.you_are_current, b.you_are_current);
  ASSERT_EQ(a.tails.size(), b.tails.size());
  for (size_t k = 0; k < a.tails.size(); ++k) {
    ASSERT_EQ(a.tails[k].size(), b.tails[k].size()) << "tail " << k;
    for (size_t i = 0; i < a.tails[k].size(); ++i) {
      EXPECT_EQ(a.tails[k][i].item_name, b.tails[k][i].item_name);
      EXPECT_EQ(a.tails[k][i].seq, b.tails[k][i].seq);
    }
  }
  ASSERT_EQ(a.items.size(), b.items.size());
  for (size_t i = 0; i < a.items.size(); ++i) {
    EXPECT_EQ(a.items[i].name, b.items[i].name);
    EXPECT_EQ(a.items[i].value, b.items[i].value);
    EXPECT_EQ(a.items[i].deleted, b.items[i].deleted);
    ASSERT_NE(a.items[i].ivv, nullptr);
    EXPECT_EQ(*a.items[i].ivv, b.items[i].ivv);
  }
}

// Property test: random IVVs delta-encode and decode identically against
// random bases — dominated vectors (both modes eligible), arbitrary
// vectors (mode-0 fallback), and sparse ones. The declared size always
// matches the bytes written.
TEST(WireV3Test, DeltaIvvPropertyRoundTrip) {
  std::mt19937 rng(0xE51DE11C);
  for (int trial = 0; trial < 2000; ++trial) {
    const size_t n = 1 + rng() % 12;
    std::vector<UpdateCount> base_counts(n);
    for (auto& c : base_counts) c = rng() % 1000;
    VersionVector base(base_counts);

    std::vector<UpdateCount> counts(n);
    switch (trial % 3) {
      case 0:  // dominated by base: complement mode is legal
        for (size_t k = 0; k < n; ++k) counts[k] = rng() % (base[k] + 1);
        break;
      case 1:  // arbitrary: encoder must fall back to absolute mode
        for (auto& c : counts) c = rng() % 2000;
        break;
      default:  // sparse: mostly zero, the per-item common case
        for (auto& c : counts) c = (rng() % 4 == 0) ? rng() % 1000 : 0;
        break;
    }
    VersionVector vv(counts);

    ByteWriter w;
    EncodeVersionVectorDelta(&w, vv, base);
    EXPECT_EQ(w.size(), VersionVectorDeltaSize(vv, base)) << "trial " << trial;
    ByteReader r(w.data());
    auto out = DecodeVersionVectorDelta(&r, base);
    ASSERT_TRUE(out.ok()) << "trial " << trial << ": "
                          << out.status().message();
    EXPECT_EQ(*out, vv) << "trial " << trial;
    EXPECT_TRUE(r.AtEnd());
  }
}

// The two one-byte extremes: a vector equal to the base (complement mode,
// zero pairs) and an all-zero vector (absolute mode, zero pairs).
TEST(WireV3Test, DeltaIvvExtremesAreOneByte) {
  VersionVector base(Vv({5, 9, 1000}));
  for (const VersionVector& vv : {base, VersionVector(3)}) {
    ByteWriter w;
    EncodeVersionVectorDelta(&w, vv, base);
    EXPECT_EQ(w.size(), 1u);
    ByteReader r(w.data());
    auto out = DecodeVersionVectorDelta(&r, base);
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(*out, vv);
  }
}

// Decoding rejects indices past the base's width.
TEST(WireV3Test, DeltaIvvRejectsOutOfRangeIndex) {
  ByteWriter w;
  w.PutVarint64((1 << 1) | 0);  // one absolute pair
  w.PutVarint64(7);             // index 7 — but the base is 3 wide
  w.PutVarint64(1);
  ByteReader r(w.data());
  EXPECT_FALSE(DecodeVersionVectorDelta(&r, Vv({1, 2, 3})).ok());
}

/// A representative response: two items (one tombstone), tails from two
/// origins referencing them, strictly increasing seqs per tail.
PropagationResponse SampleResponse() {
  PropagationResponse m;
  m.tails.resize(3);
  m.tails[0].push_back(WireLogRecord{"alpha", 3});
  m.tails[0].push_back(WireLogRecord{"beta", 4});
  m.tails[2].push_back(WireLogRecord{"alpha", 2});
  m.items.push_back(WireItem{"alpha", "value-a", false, Vv({3, 0, 2})});
  m.items.push_back(WireItem{"beta", "", true, Vv({4, 0, 0})});
  return m;
}

/// The base must dominate every item IVV (§4.1 guarantees this for real
/// segments: the shard DBVV is the per-origin sum of its item IVVs).
VersionVector SampleBase() { return Vv({7, 2, 2}); }

/// Encodes one segment body through the serve path's encoder.
std::string EncodeSegment(const PropagationResponseView& view,
                          const VersionVector& base) {
  ByteWriter w;
  EncodeShardSegmentBodyV3Into(w, view, base);
  return w.Release();
}

TEST(WireV3Test, SegmentBodyRoundTrip) {
  PropagationResponse m = SampleResponse();
  PropagationResponseView view;
  MakeResponseView(m, &view);
  const std::string body = EncodeSegment(view, SampleBase());

  SegmentViewStorage storage;
  PropagationResponseView decoded;
  ASSERT_TRUE(DecodeShardSegmentBodyV3(body, &storage, &decoded).ok());
  ExpectViewMatches(decoded, m);
  // v3 tails carry indices; the decoder resolves both index and name.
  EXPECT_EQ(decoded.tails[0][1].item_index, 1u);
  EXPECT_EQ(decoded.tails[0][1].item_name, "beta");
  // Views really are zero-copy: they point into the caller's buffer.
  ASSERT_FALSE(decoded.items.empty());
  EXPECT_GE(decoded.items[0].name.data(), body.data());
  EXPECT_LT(decoded.items[0].name.data(), body.data() + body.size());

  // The buffer-filling form writes the same bytes.
  std::string filled = "stale contents";
  EncodeShardSegmentBodyV3(view, SampleBase(), V3SegmentOptions{}, nullptr,
                           &filled);
  EXPECT_EQ(filled, body);
}

TEST(WireV3Test, SegmentBodyRejectsTrailingAndUnknownFlags) {
  PropagationResponse m = SampleResponse();  // must outlive the view
  PropagationResponseView view;
  MakeResponseView(m, &view);
  const std::string body = EncodeSegment(view, SampleBase());
  EXPECT_EQ(body[0], '\0');  // no flag is defined

  SegmentViewStorage storage;
  PropagationResponseView decoded;
  std::string trailing = body + '\0';
  EXPECT_FALSE(DecodeShardSegmentBodyV3(trailing, &storage, &decoded).ok());

  std::string bad_flags = body;
  bad_flags[0] = static_cast<char>(bad_flags[0] | 0x80);
  EXPECT_FALSE(DecodeShardSegmentBodyV3(bad_flags, &storage, &decoded).ok());

  // 0x01 was the compression flag; no build sends it unasked, and a
  // segment carrying it is now an unknown flag like any other.
  std::string retired = body;
  retired[0] = '\x01';
  EXPECT_TRUE(DecodeShardSegmentBodyV3(retired, &storage, &decoded)
                  .IsCorruption());
}

// A tail index pointing past the item set is corruption, not a crash.
TEST(WireV3Test, SegmentBodyRejectsOutOfRangeTailIndex) {
  PropagationResponse m = SampleResponse();
  PropagationResponseView view;
  MakeResponseView(m, &view);
  view.tails[0][0].item_index = 99;  // S has 2 entries
  const std::string body = EncodeSegment(view, SampleBase());
  SegmentViewStorage storage;
  PropagationResponseView decoded;
  EXPECT_FALSE(DecodeShardSegmentBodyV3(body, &storage, &decoded).ok());
}

// A borrowed owned response reads back field by field, including the
// you-are-current degenerate case.
TEST(WireV3Test, MakeResponseViewMatchesOwnedResponse) {
  PropagationResponse m = SampleResponse();
  PropagationResponseView view;
  MakeResponseView(m, &view);
  ExpectViewMatches(view, m);
  // Tail records always come out indexed into S, like decoded v3 ones, so
  // every view takes the same accept path.
  EXPECT_EQ(view.tails[0][0].item_index, 0u);
  EXPECT_EQ(view.tails[0][1].item_index, 1u);
  EXPECT_EQ(view.tails[2][0].item_index, 0u);

  PropagationResponse current;
  current.you_are_current = true;
  MakeResponseView(current, &view);
  EXPECT_TRUE(view.you_are_current);
  EXPECT_TRUE(view.items.empty());
  EXPECT_TRUE(view.tails.empty());
}

// Random segments round-trip through the v3 codec: the full-pipeline
// property test.
TEST(WireV3Test, SegmentBodyPropertyRoundTrip) {
  std::mt19937 rng(0x5EC3E247);
  for (int trial = 0; trial < 200; ++trial) {
    const size_t n = 2 + rng() % 4;  // origins
    std::vector<UpdateCount> base_counts(n, 0);

    PropagationResponse m;
    m.tails.resize(n);
    const size_t num_items = 1 + rng() % 8;
    for (size_t i = 0; i < num_items; ++i) {
      WireItem item;
      item.name = "item" + std::to_string(i);
      item.value = std::string(rng() % 64, static_cast<char>('a' + i % 26));
      item.deleted = rng() % 8 == 0;
      std::vector<UpdateCount> counts(n);
      for (size_t k = 0; k < n; ++k) {
        counts[k] = rng() % 20;
        base_counts[k] += counts[k];  // §4.1: DBVV = sum of item IVVs
      }
      item.ivv = VersionVector(counts);
      m.items.push_back(std::move(item));
    }
    for (size_t k = 0; k < n; ++k) {
      UpdateCount seq = 0;
      const size_t records = rng() % 5;
      for (size_t j = 0; j < records; ++j) {
        seq += 1 + rng() % 10;  // strictly increasing within a tail
        m.tails[k].push_back(
            WireLogRecord{m.items[rng() % num_items].name, seq});
      }
    }

    PropagationResponseView view;
    MakeResponseView(m, &view);
    const std::string body = EncodeSegment(view, VersionVector(base_counts));

    SegmentViewStorage storage;
    PropagationResponseView decoded;
    ASSERT_TRUE(DecodeShardSegmentBodyV3(body, &storage, &decoded).ok())
        << "trial " << trial;
    ExpectViewMatches(decoded, m);
  }
}

TEST(WireV3Test, EpochProbeRequestRoundTrip) {
  ShardedPropagationRequest m;
  m.requester = 4;
  // 0x01 is the retired accept-compressed bit: it still round-trips, and
  // sources ignore it.
  m.flags = kPropFlagEpochProbe | 0x01;
  m.last_epoch = 123456789;
  ByteWriter w;
  EncodeShardedRequestBodyV3(w, m);
  ByteReader r(w.data());
  auto out = DecodeShardedRequestBodyV3(r);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->requester, 4u);
  EXPECT_EQ(out->flags, m.flags);
  EXPECT_EQ(out->last_epoch, 123456789u);
  EXPECT_TRUE(out->shard_dbvvs.empty());
  EXPECT_TRUE(r.AtEnd());
}

TEST(WireV3Test, EpochProbeWithDbvvsRejected) {
  // A probe by definition carries no per-shard handshake; a frame that
  // claims both is malformed, not "a probe with extra hints".
  ShardedPropagationRequest m;
  m.flags = kPropFlagEpochProbe;
  m.last_epoch = 7;
  m.shard_dbvvs.push_back(Vv({1}));
  ByteWriter w;
  EncodeShardedRequestBodyV3(w, m);
  ByteReader r(w.data());
  EXPECT_TRUE(DecodeShardedRequestBodyV3(r).status().IsCorruption());
}

TEST(WireV3Test, ResponseEnvelopeCarriesEpochAndFlags) {
  ShardedPropagationResponse m;
  m.num_shards = 4;
  m.epoch = 42;
  m.resp_flags = kPropRespFlagResend;
  ByteWriter w;
  EncodeShardedResponseBodyV3(w, m);
  ByteReader r(w.data());
  auto out = DecodeShardedResponseBodyV3(r);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->num_shards, 4u);
  EXPECT_EQ(out->epoch, 42u);
  EXPECT_TRUE(out->resend_requested());
  EXPECT_TRUE(r.AtEnd());
}

TEST(WireV3Test, ResponseEnvelopeRejectsBadFlagCombos) {
  // Unknown flag bits must fail decode (forward-compat discipline).
  {
    ShardedPropagationResponse m;
    m.num_shards = 1;
    m.resp_flags = 0x80;
    ByteWriter w;
    EncodeShardedResponseBodyV3(w, m);
    ByteReader r(w.data());
    EXPECT_TRUE(
        DecodeShardedResponseBodyV3(r).status().IsCorruption());
  }
  // A resend request is a control frame; payload segments alongside it
  // mean the source is confused (or the frame was tampered with).
  {
    ShardedPropagationResponse m;
    m.num_shards = 2;
    m.resp_flags = kPropRespFlagResend;
    ShardedPropagationSegment seg;
    seg.shard = 0;
    seg.body = "x";
    m.segments.push_back(std::move(seg));
    ByteWriter w;
    EncodeShardedResponseBodyV3(w, m);
    ByteReader r(w.data());
    EXPECT_TRUE(
        DecodeShardedResponseBodyV3(r).status().IsCorruption());
  }
}

// Decodes a response envelope with `flags` and `segments` one-byte
// segments (shards 0, 1, ...) through the zero-copy decoder.
Status DecodeEnvelopeWith(uint8_t flags, uint32_t segments,
                          ShardedResponseEnvelopeView* env) {
  ShardedPropagationResponse m;
  m.num_shards = 4;
  m.epoch = 9;
  m.resp_flags = flags;
  for (uint32_t k = 0; k < segments; ++k) {
    m.segments.push_back(ShardedPropagationSegment{k, "x"});
  }
  ByteWriter w;
  EncodeShardedResponseBodyV3(w, m);
  ByteReader r(w.data());
  return DecodeShardedPropagationResponseEnvelopeV3(r, env);
}

TEST(WireV3Test, PartialReplyCarriesItsSegments) {
  ShardedResponseEnvelopeView env;
  ASSERT_TRUE(DecodeEnvelopeWith(kPropRespFlagPartial, 2, &env).ok());
  EXPECT_TRUE(env.partial());
  EXPECT_FALSE(env.resend_requested());
  EXPECT_EQ(env.epoch, 9u);
  EXPECT_EQ(env.segments.size(), 2u);
  ASSERT_TRUE(DecodeEnvelopeWith(0, 2, &env).ok());
  EXPECT_FALSE(env.partial());
}

TEST(WireV3Test, PartialReplyFlagCombosAreCorruption) {
  ShardedResponseEnvelopeView env;
  // An empty partial reply would keep a puller handshaking for nothing.
  Status s = DecodeEnvelopeWith(kPropRespFlagPartial, 0, &env);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  EXPECT_EQ(s.message(), "partial reply carrying no segments");
  // Partial answers a handshake; resend answers a probe. Not both.
  for (uint32_t segments : {0u, 1u}) {
    s = DecodeEnvelopeWith(kPropRespFlagPartial | kPropRespFlagResend,
                           segments, &env);
    EXPECT_TRUE(s.IsCorruption()) << s.ToString();
    EXPECT_EQ(s.message(), "reply both partial and resend");
  }
  // The next bit is still unknown.
  s = DecodeEnvelopeWith(0x04, 1, &env);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  EXPECT_EQ(s.message(), "unknown sharded response flags");
}

}  // namespace
}  // namespace epidemic::wire
