#include <string_view>
#include <variant>

#include "fuzz/harness.h"
#include "net/codec.h"

namespace epidemic::fuzz {

/// Boundary: net::Decode — every tagged frame the transport delivers
/// (OOB tags 3-4, the client tags 5-13 and 16, the v3 exchange 17-18).
/// Numbers 1 and 2 (the retired whole-database v1 exchange) and 14 and 15
/// (the retired sharded wire v2) must be rejected as unknown.
///
/// Oracle beyond sanitizers: any frame the decoder accepts must survive an
/// encode/decode round trip, and the re-encoding must be a fixed point.
/// (The original bytes need not equal the re-encoding: the padded
/// backpatch-slot varints are deliberate non-canonical aliases.)
int Target_codec(const uint8_t* data, size_t size) {
  std::string_view frame(reinterpret_cast<const char*>(data), size);
  Result<net::Message> decoded = net::Decode(frame);
  if (!decoded.ok()) return 0;

  std::string encoded = net::Encode(*decoded);
  Result<net::Message> again = net::Decode(encoded);
  OracleExpectOk(again.status(), "codec",
                 "re-decode of an accepted, re-encoded frame");
  if (net::Encode(*again) != encoded) {
    OracleFail("codec", "encode is not a fixed point over decode");
  }
  return 0;
}

}  // namespace epidemic::fuzz

EPIFUZZ_DEFINE_TARGET(codec)
