#ifndef EPIDEMIC_COMMON_HASH_H_
#define EPIDEMIC_COMMON_HASH_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace epidemic {

/// CRC-32C (Castagnoli polynomial), the checksum RocksDB/LevelDB use for
/// on-disk integrity; `seed` chains calls. Uses the SSE4.2 `crc32`
/// instruction where the CPU has it, the portable table otherwise; both
/// give the same value.
uint32_t Crc32c(const void* data, size_t n, uint32_t seed = 0);

inline uint32_t Crc32c(std::string_view s, uint32_t seed = 0) {
  return Crc32c(s.data(), s.size(), seed);
}

/// The portable table implementation Crc32c falls back to, exposed so
/// tests can check the two paths agree.
uint32_t Crc32cPortable(const void* data, size_t n, uint32_t seed = 0);

}  // namespace epidemic

#endif  // EPIDEMIC_COMMON_HASH_H_
