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

TEST(WireTest, PropagationRequestBodyRoundTrip) {
  PropagationRequest m{7, Vv({1, 2, 3})};
  ByteWriter w;
  EncodePropagationRequestBody(w, m);
  ByteReader r(w.data());
  auto out = DecodePropagationRequestBody(r);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->requester, 7u);
  EXPECT_EQ(out->dbvv, Vv({1, 2, 3}));
  EXPECT_TRUE(r.AtEnd());
}

TEST(WireTest, PropagationResponseBodyRoundTrip) {
  PropagationResponse m;
  m.tails.resize(2);
  m.tails[0].push_back(WireLogRecord{"a", 9});
  m.items.push_back(WireItem{"a", "val", true, Vv({9, 0})});
  ByteWriter w;
  EncodePropagationResponseBody(w, m);
  ByteReader r(w.data());
  auto out = DecodePropagationResponseBody(r);
  ASSERT_TRUE(out.ok());
  EXPECT_FALSE(out->you_are_current);
  ASSERT_EQ(out->tails.size(), 2u);
  EXPECT_EQ(out->tails[0][0].seq, 9u);
  ASSERT_EQ(out->items.size(), 1u);
  EXPECT_TRUE(out->items[0].deleted);
  EXPECT_TRUE(r.AtEnd());
}

TEST(WireTest, YouAreCurrentBodyIsOneByte) {
  PropagationResponse m;
  m.you_are_current = true;
  ByteWriter w;
  EncodePropagationResponseBody(w, m);
  EXPECT_EQ(w.size(), 1u);
  ByteReader r(w.data());
  auto out = DecodePropagationResponseBody(r);
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->you_are_current);
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
  EncodePropagationRequestBody(w, PropagationRequest{2, Vv({5, 6})});
  ByteReader r(w.data());
  auto first = DecodeOobRequestBody(r);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->item_name, "x");
  auto second = DecodePropagationRequestBody(r);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->dbvv, Vv({5, 6}));
  EXPECT_TRUE(r.AtEnd());
}

TEST(WireTest, TruncatedBodiesFail) {
  PropagationResponse m;
  m.tails.resize(1);
  m.tails[0].push_back(WireLogRecord{"abc", 5});
  m.items.push_back(WireItem{"abc", "value", false, Vv({5})});
  ByteWriter w;
  EncodePropagationResponseBody(w, m);
  std::string data = w.Release();
  for (size_t cut = 0; cut < data.size(); ++cut) {
    ByteReader r(std::string_view(data).substr(0, cut));
    EXPECT_FALSE(DecodePropagationResponseBody(r).ok()) << cut;
  }
}

// ---------------------------------------------------------------------------
// Wire v3: delta-encoded IVVs, self-framed segments, zero-copy views.
// ---------------------------------------------------------------------------

/// Field-by-field equality for owned responses (no operator== on the wire
/// structs — they are plain carriers).
void ExpectResponsesEqual(const PropagationResponse& a,
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
    EXPECT_EQ(a.items[i].ivv, b.items[i].ivv);
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

TEST(WireV3Test, SegmentBodyRoundTrip) {
  PropagationResponse m = SampleResponse();
  PropagationResponseView view;
  MakeResponseView(m, &view);

  std::string body;
  EncodeShardSegmentBodyV3(view, SampleBase(), V3SegmentOptions{}, nullptr,
                           &body);

  SegmentViewStorage storage;
  PropagationResponseView decoded;
  ASSERT_TRUE(DecodeShardSegmentBodyV3(body, &storage, &decoded).ok());
  ExpectResponsesEqual(MaterializeResponse(decoded), m);
  // v3 tails carry indices; the decoder resolves both index and name.
  EXPECT_EQ(decoded.tails[0][1].item_index, 1u);
  EXPECT_EQ(decoded.tails[0][1].item_name, "beta");
}

// Compression is kept only when it wins, round-trips bit-exactly, and is
// visible in the segment's flags byte.
TEST(WireV3Test, SegmentBodyCompressedRoundTrip) {
  PropagationResponse m = SampleResponse();
  m.items[0].value = std::string(4096, 'x');  // compressible payload
  PropagationResponseView view;
  MakeResponseView(m, &view);

  std::string plain;
  EncodeShardSegmentBodyV3(view, SampleBase(), V3SegmentOptions{}, nullptr,
                           &plain);
  V3SegmentOptions opts;
  opts.compress = true;
  std::string packed;
  EncodeShardSegmentBodyV3(view, SampleBase(), opts, nullptr, &packed);

  EXPECT_LT(packed.size(), plain.size());
  EXPECT_EQ(static_cast<uint8_t>(packed[0]) & kSegFlagCompressed,
            kSegFlagCompressed);

  SegmentViewStorage storage;
  PropagationResponseView decoded;
  ASSERT_TRUE(DecodeShardSegmentBodyV3(packed, &storage, &decoded).ok());
  ExpectResponsesEqual(MaterializeResponse(decoded), m);
}

// Tiny bodies skip the compression attempt even when negotiated.
TEST(WireV3Test, SegmentBodySkipsCompressionBelowThreshold) {
  PropagationResponse m = SampleResponse();  // must outlive the view
  PropagationResponseView view;
  MakeResponseView(m, &view);
  V3SegmentOptions opts;
  opts.compress = true;
  opts.min_compress_bytes = 1 << 20;
  std::string body;
  EncodeShardSegmentBodyV3(view, SampleBase(), opts, nullptr, &body);
  EXPECT_EQ(static_cast<uint8_t>(body[0]) & kSegFlagCompressed, 0);
}

TEST(WireV3Test, SegmentBodyRejectsTrailingAndUnknownFlags) {
  PropagationResponse m = SampleResponse();  // must outlive the view
  PropagationResponseView view;
  MakeResponseView(m, &view);
  std::string body;
  EncodeShardSegmentBodyV3(view, SampleBase(), V3SegmentOptions{}, nullptr,
                           &body);

  SegmentViewStorage storage;
  PropagationResponseView decoded;
  std::string trailing = body + '\0';
  EXPECT_FALSE(DecodeShardSegmentBodyV3(trailing, &storage, &decoded).ok());

  std::string bad_flags = body;
  bad_flags[0] = static_cast<char>(bad_flags[0] | 0x80);
  EXPECT_FALSE(DecodeShardSegmentBodyV3(bad_flags, &storage, &decoded).ok());
}

// A tail index pointing past the item set is corruption, not a crash.
TEST(WireV3Test, SegmentBodyRejectsOutOfRangeTailIndex) {
  PropagationResponse m = SampleResponse();
  PropagationResponseView view;
  MakeResponseView(m, &view);
  view.tails[0][0].item_index = 99;  // S has 2 entries
  std::string body;
  EncodeShardSegmentBodyV3(view, SampleBase(), V3SegmentOptions{}, nullptr,
                           &body);
  SegmentViewStorage storage;
  PropagationResponseView decoded;
  EXPECT_FALSE(DecodeShardSegmentBodyV3(body, &storage, &decoded).ok());
}

// Owned → view → owned is the identity, including the you-are-current
// degenerate case.
TEST(WireV3Test, MakeResponseViewMaterializeRoundTrip) {
  PropagationResponse m = SampleResponse();
  PropagationResponseView view;
  MakeResponseView(m, &view);
  ExpectResponsesEqual(MaterializeResponse(view), m);
  // Tail records always come out indexed into S, like decoded v3 ones, so
  // every view takes the same accept path.
  EXPECT_EQ(view.tails[0][0].item_index, 0u);
  EXPECT_EQ(view.tails[0][1].item_index, 1u);
  EXPECT_EQ(view.tails[2][0].item_index, 0u);

  PropagationResponse current;
  current.you_are_current = true;
  MakeResponseView(current, &view);
  EXPECT_TRUE(view.you_are_current);
  EXPECT_TRUE(MaterializeResponse(view).you_are_current);
}

// The zero-copy v2 decoder agrees with the owned one on the same bytes.
TEST(WireV3Test, V2ViewDecodeMatchesOwnedDecode) {
  PropagationResponse m = SampleResponse();
  ByteWriter w;
  EncodePropagationResponseBody(w, m);
  const std::string body = w.Release();

  ByteReader r(body);
  auto owned = DecodePropagationResponseBody(r);
  ASSERT_TRUE(owned.ok());

  SegmentViewStorage storage;
  PropagationResponseView view;
  ASSERT_TRUE(DecodePropagationResponseBodyView(body, &storage, &view).ok());
  ExpectResponsesEqual(MaterializeResponse(view), *owned);
  // v2 tails name their items; the decoder resolves the index into S.
  EXPECT_EQ(view.tails[0][1].item_index, 1u);
  EXPECT_EQ(view.tails[2][0].item_index, 0u);
  // Views really are zero-copy: they point into the caller's buffer.
  ASSERT_FALSE(view.items.empty());
  const char* data_begin = body.data();
  const char* data_end = body.data() + body.size();
  EXPECT_GE(view.items[0].name.data(), data_begin);
  EXPECT_LT(view.items[0].name.data(), data_end);
}

// Random segments round-trip through the v3 codec, with and without
// compression: the full-pipeline property test.
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
    V3SegmentOptions opts;
    opts.compress = trial % 2 == 0;
    opts.min_compress_bytes = 16;
    std::string body;
    EncodeShardSegmentBodyV3(view, VersionVector(base_counts), opts, nullptr,
                             &body);

    SegmentViewStorage storage;
    PropagationResponseView decoded;
    ASSERT_TRUE(DecodeShardSegmentBodyV3(body, &storage, &decoded).ok())
        << "trial " << trial;
    ExpectResponsesEqual(MaterializeResponse(decoded), m);
  }
}

TEST(WireV3Test, EpochProbeRequestRoundTrip) {
  ShardedPropagationRequest m;
  m.requester = 4;
  m.wire_version = kWireV3;
  m.flags = kPropFlagEpochProbe | kPropFlagAcceptCompressed;
  m.last_epoch = 123456789;
  ByteWriter w;
  EncodeShardedPropagationRequestBodyV3(w, m);
  ByteReader r(w.data());
  auto out = DecodeShardedPropagationRequestBodyV3(r);
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
  m.wire_version = kWireV3;
  m.flags = kPropFlagEpochProbe;
  m.last_epoch = 7;
  m.shard_dbvvs.push_back(Vv({1}));
  ByteWriter w;
  EncodeShardedPropagationRequestBodyV3(w, m);
  ByteReader r(w.data());
  EXPECT_TRUE(DecodeShardedPropagationRequestBodyV3(r).status().IsCorruption());
}

TEST(WireV3Test, ResponseEnvelopeCarriesEpochAndFlags) {
  ShardedPropagationResponse m;
  m.wire_version = kWireV3;
  m.num_shards = 4;
  m.epoch = 42;
  m.resp_flags = kPropRespFlagResend;
  ByteWriter w;
  EncodeShardedPropagationResponseBodyV3(w, m);
  ByteReader r(w.data());
  auto out = DecodeShardedPropagationResponseBodyV3(r);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->wire_version, kWireV3);
  EXPECT_EQ(out->num_shards, 4u);
  EXPECT_EQ(out->epoch, 42u);
  EXPECT_TRUE(out->resend_requested());
  EXPECT_TRUE(r.AtEnd());
}

TEST(WireV3Test, ResponseEnvelopeRejectsBadFlagCombos) {
  // Unknown flag bits must fail decode (forward-compat discipline).
  {
    ShardedPropagationResponse m;
    m.wire_version = kWireV3;
    m.num_shards = 1;
    m.resp_flags = 0x80;
    ByteWriter w;
    EncodeShardedPropagationResponseBodyV3(w, m);
    ByteReader r(w.data());
    EXPECT_TRUE(
        DecodeShardedPropagationResponseBodyV3(r).status().IsCorruption());
  }
  // A resend request is a control frame; payload segments alongside it
  // mean the source is confused (or the frame was tampered with).
  {
    ShardedPropagationResponse m;
    m.wire_version = kWireV3;
    m.num_shards = 2;
    m.resp_flags = kPropRespFlagResend;
    ShardedPropagationSegment seg;
    seg.shard = 0;
    seg.body = "x";
    m.segments.push_back(std::move(seg));
    ByteWriter w;
    EncodeShardedPropagationResponseBodyV3(w, m);
    ByteReader r(w.data());
    EXPECT_TRUE(
        DecodeShardedPropagationResponseBodyV3(r).status().IsCorruption());
  }
}

}  // namespace
}  // namespace epidemic::wire
