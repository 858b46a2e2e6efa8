#include "common/bytes.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>

namespace epidemic {
namespace {

TEST(ByteWriterTest, EmptyWriter) {
  ByteWriter w;
  EXPECT_EQ(w.size(), 0u);
  EXPECT_TRUE(w.data().empty());
}

TEST(BytesTest, FixedWidthRoundTrip) {
  ByteWriter w;
  w.PutU8(0xAB);
  w.PutFixed32(0xDEADBEEF);
  w.PutFixed64(0x0123456789ABCDEFull);

  ByteReader r(w.data());
  auto u8 = r.GetU8();
  ASSERT_TRUE(u8.ok());
  EXPECT_EQ(*u8, 0xAB);
  auto f32 = r.GetFixed32();
  ASSERT_TRUE(f32.ok());
  EXPECT_EQ(*f32, 0xDEADBEEFu);
  auto f64 = r.GetFixed64();
  ASSERT_TRUE(f64.ok());
  EXPECT_EQ(*f64, 0x0123456789ABCDEFull);
  EXPECT_TRUE(r.AtEnd());
}

// The fixed-width encodings are a wire format, not an ABI: the bytes must
// be little-endian on every host, so a big-endian peer interoperates.
TEST(BytesTest, FixedWidthBytesAreLittleEndian) {
  ByteWriter w;
  w.PutFixed32(0x04030201u);
  w.PutFixed64(0x0807060504030201ull);
  const std::string& b = w.data();
  ASSERT_EQ(b.size(), 12u);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(static_cast<uint8_t>(b[i]), i + 1) << "fixed32 byte " << i;
  }
  for (size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(static_cast<uint8_t>(b[4 + i]), i + 1) << "fixed64 byte " << i;
  }
  // And the reader reassembles from those exact bytes.
  ByteReader r(std::string_view("\x01\x02\x03\x04", 4));
  auto v = r.GetFixed32();
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 0x04030201u);
}

class VarintRoundTrip : public ::testing::TestWithParam<uint64_t> {};

TEST_P(VarintRoundTrip, EncodesAndDecodes) {
  ByteWriter w;
  w.PutVarint64(GetParam());
  ByteReader r(w.data());
  auto v = r.GetVarint64();
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, GetParam());
  EXPECT_TRUE(r.AtEnd());
}

INSTANTIATE_TEST_SUITE_P(
    Boundaries, VarintRoundTrip,
    ::testing::Values(0ull, 1ull, 127ull, 128ull, 129ull, 16383ull, 16384ull,
                      (1ull << 21) - 1, 1ull << 21, (1ull << 28) - 1,
                      1ull << 35, 1ull << 42, 1ull << 49, 1ull << 56,
                      (1ull << 63), std::numeric_limits<uint64_t>::max()));

TEST(BytesTest, VarintSizeIsMinimal) {
  auto encoded_size = [](uint64_t v) {
    ByteWriter w;
    w.PutVarint64(v);
    return w.size();
  };
  EXPECT_EQ(encoded_size(0), 1u);
  EXPECT_EQ(encoded_size(127), 1u);
  EXPECT_EQ(encoded_size(128), 2u);
  EXPECT_EQ(encoded_size(16383), 2u);
  EXPECT_EQ(encoded_size(16384), 3u);
  EXPECT_EQ(encoded_size(std::numeric_limits<uint64_t>::max()), 10u);
}

TEST(BytesTest, StringRoundTrip) {
  ByteWriter w;
  w.PutString("");
  w.PutString("hello");
  std::string binary("\x00\x01\xff", 3);
  w.PutString(binary);

  ByteReader r(w.data());
  auto s1 = r.GetString();
  ASSERT_TRUE(s1.ok());
  EXPECT_EQ(*s1, "");
  auto s2 = r.GetString();
  ASSERT_TRUE(s2.ok());
  EXPECT_EQ(*s2, "hello");
  auto s3 = r.GetString();
  ASSERT_TRUE(s3.ok());
  EXPECT_EQ(*s3, binary);
  EXPECT_TRUE(r.AtEnd());
}

TEST(BytesTest, LargeStringRoundTrip) {
  std::string big(1 << 16, 'z');
  ByteWriter w;
  w.PutString(big);
  ByteReader r(w.data());
  auto s = r.GetString();
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(*s, big);
}

TEST(BytesTest, TruncatedU8) {
  ByteReader r("");
  EXPECT_TRUE(r.GetU8().status().IsCorruption());
}

TEST(BytesTest, TruncatedFixed) {
  ByteReader r32(std::string_view("\x01\x02\x03", 3));
  EXPECT_TRUE(r32.GetFixed32().status().IsCorruption());
  ByteReader r64(std::string_view("\x01\x02\x03\x04\x05\x06\x07", 7));
  EXPECT_TRUE(r64.GetFixed64().status().IsCorruption());
}

TEST(BytesTest, TruncatedVarint) {
  // Continuation bit set but no next byte.
  ByteReader r(std::string_view("\x80", 1));
  EXPECT_TRUE(r.GetVarint64().status().IsCorruption());
}

TEST(BytesTest, OverlongVarintRejected) {
  // 11 bytes of continuation: more than a uint64 can hold.
  std::string overlong(11, '\x80');
  ByteReader r(overlong);
  EXPECT_TRUE(r.GetVarint64().status().IsCorruption());
}

TEST(BytesTest, TruncatedStringBody) {
  ByteWriter w;
  w.PutString("hello");
  std::string data = w.Release();
  data.resize(data.size() - 2);  // chop off part of the body
  ByteReader r(data);
  EXPECT_TRUE(r.GetString().status().IsCorruption());
}

TEST(BytesTest, StringLengthBeyondBufferRejected) {
  ByteWriter w;
  w.PutVarint64(1000);  // claims 1000 bytes, provides none
  ByteReader r(w.data());
  EXPECT_TRUE(r.GetString().status().IsCorruption());
}

TEST(BytesTest, RemainingTracksPosition) {
  ByteWriter w;
  w.PutFixed32(7);
  w.PutU8(1);
  ByteReader r(w.data());
  EXPECT_EQ(r.remaining(), 5u);
  ASSERT_TRUE(r.GetFixed32().ok());
  EXPECT_EQ(r.remaining(), 1u);
  ASSERT_TRUE(r.GetU8().ok());
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_TRUE(r.AtEnd());
}

TEST(BytesTest, ReleaseMovesBufferOut) {
  ByteWriter w;
  w.PutString("abc");
  std::string data = w.Release();
  EXPECT_FALSE(data.empty());
}

TEST(BytesTest, PutBytesRaw) {
  ByteWriter w;
  const char raw[] = {1, 2, 3};
  w.PutBytes(raw, 3);
  EXPECT_EQ(w.size(), 3u);
  EXPECT_EQ(w.data()[1], 2);
}

TEST(BytesTest, PaddedVarintDecodesViaPaddedGetter) {
  for (uint64_t v : {uint64_t{0}, uint64_t{1}, uint64_t{127}, uint64_t{128},
                     uint64_t{1} << 20, (uint64_t{1} << 35) - 1}) {
    ByteWriter w;
    w.PutPaddedVarint(v, 5);
    EXPECT_EQ(w.size(), 5u);
    ByteReader r(w.data());
    auto got = r.GetVarint64Padded();
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, v);
    EXPECT_TRUE(r.AtEnd());
  }
}

TEST(BytesTest, CanonicalGetterRejectsPaddedEncoding) {
  // A 5-byte padded slot holding a small value is a non-minimal encoding;
  // the canonical getter must refuse it so adversarial peers can't alias
  // wire integers. Only GetVarint64Padded (backpatch-slot fields) accepts.
  ByteWriter w;
  w.PutPaddedVarint(7, 5);
  ByteReader r(w.data());
  EXPECT_TRUE(r.GetVarint64().status().IsCorruption());
}

TEST(BytesTest, NonMinimalVarintRejected) {
  // 0x80 0x00 encodes zero in two bytes; canonical form is one byte.
  ByteReader r(std::string_view("\x80\x00", 2));
  EXPECT_TRUE(r.GetVarint64().status().IsCorruption());
  ByteReader rp(std::string_view("\x80\x00", 2));
  auto padded = rp.GetVarint64Padded();
  ASSERT_TRUE(padded.ok());
  EXPECT_EQ(*padded, 0u);
}

TEST(BytesTest, TenByteVarintOverflowRejected) {
  // Ten bytes whose final byte carries bits beyond 2^64-1.
  std::string max(9, '\xff');
  max.push_back('\x01');  // exactly UINT64_MAX: canonical, accepted
  ByteReader r_ok(max);
  auto got = r_ok.GetVarint64();
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, ~uint64_t{0});

  std::string over(9, '\xff');
  over.push_back('\x02');  // bit 64 set: overflow
  ByteReader r_bad(over);
  EXPECT_TRUE(r_bad.GetVarint64().status().IsCorruption());
  ByteReader r_bad_padded(over);
  EXPECT_TRUE(r_bad_padded.GetVarint64Padded().status().IsCorruption());
}

TEST(BytesTest, OverlongVarintRejectedByBothGetters) {
  // 11 continuation bytes: longer than any uint64 encoding.
  std::string overlong(11, '\x80');
  ByteReader r(overlong);
  EXPECT_TRUE(r.GetVarint64().status().IsCorruption());
  ByteReader rp(overlong);
  EXPECT_TRUE(rp.GetVarint64Padded().status().IsCorruption());
}

TEST(BytesTest, CanonicalRoundTripAllWidths) {
  for (int bits = 0; bits < 64; ++bits) {
    uint64_t v = uint64_t{1} << bits;
    ByteWriter w;
    w.PutVarint64(v);
    ByteReader r(w.data());
    auto got = r.GetVarint64();
    ASSERT_TRUE(got.ok()) << "bits=" << bits;
    EXPECT_EQ(*got, v);
    EXPECT_TRUE(r.AtEnd());
  }
}

TEST(BytesTest, GetBytesViewBoundsChecked) {
  ByteReader r(std::string_view("abcdef", 6));
  auto head = r.GetBytesView(4);
  ASSERT_TRUE(head.ok());
  EXPECT_EQ(*head, "abcd");
  EXPECT_TRUE(r.GetBytesView(3).status().IsCorruption());
  auto tail = r.GetBytesView(2);
  ASSERT_TRUE(tail.ok());
  EXPECT_EQ(*tail, "ef");
  EXPECT_TRUE(r.AtEnd());
}

TEST(BytesTest, PaddedStringGetters) {
  ByteWriter w;
  const size_t slot = w.size();
  w.PutPaddedVarint(0, 5);
  w.PutBytes("hello", 5);
  w.OverwritePaddedVarint(slot, 5, 5);
  {
    ByteReader r(w.data());
    auto s = r.GetStringViewPadded();
    ASSERT_TRUE(s.ok());
    EXPECT_EQ(*s, "hello");
  }
  {
    // Canonical GetString must refuse the padded length prefix.
    ByteReader r(w.data());
    EXPECT_TRUE(r.GetString().status().IsCorruption());
  }
}

TEST(BytesTest, OverwritePaddedVarintBackpatches) {
  // The serve path's framing trick: reserve a slot, write the payload,
  // then patch the slot with the now-known length.
  ByteWriter w;
  w.PutU8(0xaa);
  const size_t slot = w.size();
  w.PutPaddedVarint(0, 5);
  w.PutString("payload");
  w.OverwritePaddedVarint(slot, (uint64_t{1} << 34) + 3, 5);
  ByteReader r(w.data());
  ASSERT_TRUE(r.GetU8().ok());
  auto got = r.GetVarint64Padded();
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, (uint64_t{1} << 34) + 3);
  auto s = r.GetString();
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(*s, "payload");
}

}  // namespace
}  // namespace epidemic
