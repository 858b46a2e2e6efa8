#ifndef EPIDEMIC_COMMON_BYTES_H_
#define EPIDEMIC_COMMON_BYTES_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace epidemic {

/// Append-only binary encoder used by the wire codec.
///
/// Integers are little-endian fixed width or LEB128 varints; strings are
/// varint length-prefixed. The matching decoder is ByteReader.
class ByteWriter {
 public:
  ByteWriter() = default;

  /// Adopts `buf` as the output buffer, clearing its contents but keeping
  /// its capacity. Pairs with BufferPool: a pooled buffer adopted here is
  /// already warm, so steady-state encodes never touch the allocator.
  explicit ByteWriter(std::string buf) : buf_(std::move(buf)) {
    buf_.clear();
  }

  /// Grows capacity to at least `n` bytes (size-hinted encodes reserve the
  /// estimated frame size once up front instead of doubling repeatedly).
  void Reserve(size_t n) { buf_.reserve(n); }

  void PutU8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }

  // Fixed-width integers are encoded byte-by-byte so the wire bytes are
  // little-endian on every host, not just the ones where memcpy happens to
  // produce that order (the frames cross machines, the host ABI must not
  // leak into them).
  void PutFixed32(uint32_t v) {
    char tmp[4];
    for (size_t i = 0; i < 4; ++i) {
      tmp[i] = static_cast<char>((v >> (8 * i)) & 0xff);
    }
    buf_.append(tmp, 4);
  }

  void PutFixed64(uint64_t v) {
    char tmp[8];
    for (size_t i = 0; i < 8; ++i) {
      tmp[i] = static_cast<char>((v >> (8 * i)) & 0xff);
    }
    buf_.append(tmp, 8);
  }

  void PutVarint64(uint64_t v) {
    while (v >= 0x80) {
      buf_.push_back(static_cast<char>((v & 0x7f) | 0x80));
      v >>= 7;
    }
    buf_.push_back(static_cast<char>(v));
  }

  void PutString(std::string_view s) {
    PutVarint64(s.size());
    buf_.append(s.data(), s.size());
  }

  /// Appends `v` as a LEB128 varint padded to exactly `width` bytes
  /// (continuation bits set on all but the last byte). Non-canonical but
  /// decoded identically by GetVarint64. Used to reserve a fixed-width
  /// slot — typically a length prefix written before its payload exists —
  /// that OverwritePaddedVarint backpatches once the size is known.
  /// `v` must fit in 7 * width bits.
  void PutPaddedVarint(uint64_t v, size_t width) {
    for (size_t i = 0; i + 1 < width; ++i) {
      buf_.push_back(static_cast<char>((v & 0x7f) | 0x80));
      v >>= 7;
    }
    buf_.push_back(static_cast<char>(v & 0x7f));
  }

  /// Rewrites the `width`-byte padded varint at `pos` (previously written
  /// by PutPaddedVarint) in place.
  void OverwritePaddedVarint(size_t pos, uint64_t v, size_t width) {
    for (size_t i = 0; i + 1 < width; ++i) {
      buf_[pos + i] = static_cast<char>((v & 0x7f) | 0x80);
      v >>= 7;
    }
    buf_[pos + width - 1] = static_cast<char>(v & 0x7f);
  }

  void PutBytes(const void* data, size_t n) {
    buf_.append(static_cast<const char*>(data), n);
  }

  const std::string& data() const { return buf_; }
  std::string Release() { return std::move(buf_); }
  size_t size() const { return buf_.size(); }

 private:
  std::string buf_;
};

/// Bounds-checked binary decoder over a borrowed byte span.
///
/// All getters return Corruption on truncated or malformed input; the caller
/// is expected to treat any failure as a poisoned message.
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  Result<uint8_t> GetU8() {
    if (pos_ + 1 > data_.size()) return Truncated("u8");
    return static_cast<uint8_t>(data_[pos_++]);
  }

  // Little-endian on the wire regardless of host order (see PutFixed32).
  Result<uint32_t> GetFixed32() {
    if (pos_ + 4 > data_.size()) return Truncated("fixed32");
    uint32_t v = 0;
    for (size_t i = 0; i < 4; ++i) {
      v |= static_cast<uint32_t>(static_cast<uint8_t>(data_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 4;
    return v;
  }

  Result<uint64_t> GetFixed64() {
    if (pos_ + 8 > data_.size()) return Truncated("fixed64");
    uint64_t v = 0;
    for (size_t i = 0; i < 8; ++i) {
      v |= static_cast<uint64_t>(static_cast<uint8_t>(data_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 8;
    return v;
  }

  /// Canonical LEB128 decode: exactly one encoding per value. Rejects
  /// overlong (>10-byte) runs, encodings whose final byte is a redundant
  /// zero (non-minimal), and 10-byte encodings carrying bits beyond 2^64.
  /// Adversarial peers otherwise get a free non-canonical alias for every
  /// integer on the wire — a classic dedup/signature bypass. The padded
  /// backpatch slots written by PutPaddedVarint are deliberately
  /// non-minimal; the few fields defined as slots decode with
  /// GetVarint64Padded instead.
  Result<uint64_t> GetVarint64() {
    uint64_t v = 0;
    int shift = 0;
    while (shift <= 63) {
      if (pos_ >= data_.size()) return Truncated("varint64");
      uint8_t byte = static_cast<uint8_t>(data_[pos_++]);
      if ((byte & 0x80) == 0) {
        if (shift > 0 && byte == 0) {
          return Status::Corruption("non-minimal varint64 encoding");
        }
        if (shift == 63 && byte > 1) {
          return Status::Corruption("varint64 overflows 64 bits");
        }
        return v | static_cast<uint64_t>(byte) << shift;
      }
      v |= static_cast<uint64_t>(byte & 0x7f) << shift;
      shift += 7;
    }
    return Status::Corruption("varint64 too long");
  }

  /// Permissive LEB128 decode for fields defined as padded backpatch slots
  /// (PutPaddedVarint): non-minimal encodings accepted, overlong (>10-byte)
  /// and 2^64-overflowing ones still rejected. Use only where the wire
  /// format reserves a fixed-width slot; everything else goes through the
  /// canonical GetVarint64.
  Result<uint64_t> GetVarint64Padded() {
    uint64_t v = 0;
    int shift = 0;
    while (shift <= 63) {
      if (pos_ >= data_.size()) return Truncated("varint64");
      uint8_t byte = static_cast<uint8_t>(data_[pos_++]);
      if ((byte & 0x80) == 0) {
        if (shift == 63 && byte > 1) {
          return Status::Corruption("varint64 overflows 64 bits");
        }
        return v | static_cast<uint64_t>(byte) << shift;
      }
      v |= static_cast<uint64_t>(byte & 0x7f) << shift;
      shift += 7;
    }
    return Status::Corruption("varint64 too long");
  }

  Result<std::string> GetString() {
    auto len = GetVarint64();
    if (!len.ok()) return len.status();
    if (pos_ + *len > data_.size()) return Truncated("string body");
    std::string s(data_.substr(pos_, *len));
    pos_ += *len;
    return s;
  }

  /// Zero-copy variant of GetString: the returned view borrows the bytes
  /// the reader was constructed over, so it is valid exactly as long as
  /// that buffer. Used by the view-based wire decoders, whose backing
  /// buffer outlives AcceptPropagation (DESIGN.md §10).
  Result<std::string_view> GetStringView() {
    auto len = GetVarint64();
    if (!len.ok()) return len.status();
    if (pos_ + *len > data_.size()) return Truncated("string body");
    std::string_view s = data_.substr(pos_, *len);
    pos_ += *len;
    return s;
  }

  /// GetStringView whose length prefix is a padded backpatch slot (the
  /// sharded serve writes segment lengths that way).
  Result<std::string_view> GetStringViewPadded() {
    auto len = GetVarint64Padded();
    if (!len.ok()) return len.status();
    if (pos_ + *len > data_.size()) return Truncated("string body");
    std::string_view s = data_.substr(pos_, *len);
    pos_ += *len;
    return s;
  }

  /// Bounds-checked view of the next `n` raw bytes, advancing past them.
  /// The view borrows the reader's backing buffer (same lifetime contract
  /// as GetStringView). Decoders use this instead of touching data()+pos
  /// themselves — raw pointer arithmetic in decode TUs is rejected by
  /// tools/epilint_ast.py decode-bounds-discipline.
  Result<std::string_view> GetBytesView(size_t n) {
    if (pos_ + n > data_.size()) return Truncated("raw bytes");
    std::string_view s = data_.substr(pos_, n);
    pos_ += n;
    return s;
  }

  /// Advances past `n` bytes without reading them. Returns false (without
  /// moving) when fewer than `n` bytes remain.
  bool Skip(size_t n) {
    if (pos_ + n > data_.size()) return false;
    pos_ += n;
    return true;
  }

  size_t remaining() const { return data_.size() - pos_; }
  size_t position() const { return pos_; }
  bool AtEnd() const { return pos_ == data_.size(); }

 private:
  static Status Truncated(const char* what) {
    return Status::Corruption(std::string("truncated input reading ") + what);
  }

  std::string_view data_;
  size_t pos_ = 0;
};

}  // namespace epidemic

#endif  // EPIDEMIC_COMMON_BYTES_H_
