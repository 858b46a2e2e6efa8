#include "common/hash.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace epidemic {
namespace {

TEST(Crc32cTest, KnownVectors) {
  // Standard CRC-32C test vectors.
  EXPECT_EQ(Crc32c("", 0), 0x00000000u);
  EXPECT_EQ(Crc32c("123456789", 9), 0xe3069283u);
  // 32 bytes of zero (from the iSCSI spec / LevelDB tests).
  std::string zeros(32, '\0');
  EXPECT_EQ(Crc32c(zeros), 0x8a9136aau);
  std::string ffs(32, '\xff');
  EXPECT_EQ(Crc32c(ffs), 0x62a8ab43u);
}

TEST(Crc32cTest, PortablePathGivesKnownVectors) {
  EXPECT_EQ(Crc32cPortable("", 0), 0x00000000u);
  EXPECT_EQ(Crc32cPortable("123456789", 9), 0xe3069283u);
}

// Crc32c picks the SSE4.2 instruction where the CPU has it; whichever path
// it took must agree with the portable table at every length, alignment
// and seed.
TEST(Crc32cTest, DispatchedEqualsPortable) {
  std::vector<unsigned char> buf(1040 + 8);
  for (size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<unsigned char>(i * 131 + (i >> 3));
  }
  for (uint32_t seed : {0u, 0xdeadbeefu}) {
    for (size_t offset = 0; offset < 8; ++offset) {
      for (size_t len = 0; len <= 1040; ++len) {
        ASSERT_EQ(Crc32c(buf.data() + offset, len, seed),
                  Crc32cPortable(buf.data() + offset, len, seed))
            << "len=" << len << " offset=" << offset << " seed=" << seed;
      }
    }
  }
}

TEST(Crc32cTest, DifferentInputsDiffer) {
  EXPECT_NE(Crc32c(std::string_view("hello")),
            Crc32c(std::string_view("hellp")));
  EXPECT_NE(Crc32c(std::string_view("ab")), Crc32c(std::string_view("ba")));
}

TEST(Crc32cTest, SeedChainsCalls) {
  std::string data = "some longer piece of data to checksum";
  uint32_t whole = Crc32c(data);
  uint32_t part1 = Crc32c(data.substr(0, 10));
  uint32_t chained = Crc32c(data.data() + 10, data.size() - 10, part1);
  EXPECT_EQ(whole, chained);
}

TEST(Crc32cTest, SingleBitFlipDetected) {
  std::string data(100, 'x');
  uint32_t original = Crc32c(data);
  for (size_t byte = 0; byte < data.size(); byte += 7) {
    std::string mutated = data;
    mutated[byte] = static_cast<char>(mutated[byte] ^ 0x01);
    EXPECT_NE(Crc32c(mutated), original) << "byte " << byte;
  }
}

}  // namespace
}  // namespace epidemic
