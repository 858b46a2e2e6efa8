#ifndef EPIDEMIC_NET_CODEC_H_
#define EPIDEMIC_NET_CODEC_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"
#include "core/messages.h"
#include "vv/vv_codec.h"

namespace epidemic::net {

/// Client-facing RPCs used by the server module, sharing the protocol
/// codec so everything on the wire has one format.
struct ClientUpdateRequest {
  std::string item_name;
  std::string value;
};

struct ClientReadRequest {
  std::string item_name;
};

/// Deletes an item (writes a tombstone) at the addressed server.
struct ClientDeleteRequest {
  std::string item_name;
};

/// Asks the server for its DebugString (DBVV, counters, sizes).
struct ClientStatsRequest {};

/// Atomically reads-and-resets the server's aggregated protocol counters
/// (all shard locks held for the duration). The reply payload is the
/// DebugString rendered from the counter snapshot taken at reset time.
struct ClientResetStatsRequest {};

/// Admin: asks the server to run one anti-entropy pull from `peer` now,
/// outside its background schedule.
struct ClientSyncRequest {
  NodeId peer = 0;
};

/// Admin: asks a durable server to checkpoint (snapshot + truncate
/// journal) now.
struct ClientCheckpointRequest {};

/// Lists live items by name prefix. The reply payload is a scan listing:
/// varint count followed by (name, value) string pairs — see
/// EncodeScanListing/DecodeScanListing.
struct ClientScanRequest {
  std::string prefix;
  uint64_t limit = 0;  // 0 = unlimited
};

std::string EncodeScanListing(
    const std::vector<std::pair<std::string, std::string>>& items);
Result<std::vector<std::pair<std::string, std::string>>> DecodeScanListing(
    std::string_view payload);

/// Request that the server perform an out-of-bound fetch of an item from a
/// given peer before answering (priority read, §5.2 motivation).
struct ClientOobFetchRequest {
  NodeId from_peer = 0;
  std::string item_name;
};

/// Generic reply for client operations: a status code (0 = OK) plus either
/// an error message or the read value.
struct ClientReply {
  uint8_t code = 0;  // StatusCode numeric value
  std::string payload;
};

/// Every message the codec understands. Each alternative's tag comes from
/// its type (TagOf in codec.cc), so an alternative without a tag does not
/// compile.
using Message =
    std::variant<OobRequest, OobResponse, ClientUpdateRequest,
                 ClientReadRequest, ClientOobFetchRequest, ClientReply,
                 ClientDeleteRequest, ClientStatsRequest, ClientScanRequest,
                 ClientSyncRequest, ClientCheckpointRequest,
                 ShardedPropagationRequest, ShardedPropagationResponse,
                 ClientResetStatsRequest>;

/// Wire tags; stable across versions, one byte on the wire.
/// Tag 16 is the atomic stats reset; tags 17-18 are the anti-entropy
/// exchange, wire format v3 (delta-encoded IVVs, indexed tails —
/// DESIGN.md §10). Numbers 1 and 2 belonged to the retired whole-database
/// v1 exchange, and 14 and 15 to the retired sharded wire v2; none may
/// ever be reused: an older peer would misparse them (docs/PROTOCOL.md
/// §6). Tags 17-31 are reserved for v3; enum entries named *V3 must live
/// in that range (enforced by tools/protocol_lint.py wire-tag-v3-range).
enum class MessageType : uint8_t {
  // 1, 2: retired (whole-database wire v1); never reuse.
  kOobRequest = 3,
  kOobResponse = 4,
  kClientUpdate = 5,
  kClientRead = 6,
  kClientOobFetch = 7,
  kClientReply = 8,
  kClientDelete = 9,
  kClientStats = 10,
  kClientScan = 11,
  kClientSync = 12,
  kClientCheckpoint = 13,
  // 14, 15: retired (sharded wire v2); never reuse.
  kClientResetStats = 16,
  kShardedPropagationRequestV3 = 17,
  kShardedPropagationResponseV3 = 18,
};

/// Serializes any protocol message into a self-describing byte string
/// (leading type tag + body). The inverse of Decode().
std::string Encode(const Message& msg);

/// Parses a frame produced by Encode(). Returns Corruption on malformed or
/// trailing bytes.
Result<Message> Decode(std::string_view frame);

/// Version-vector serialization lives in vv/vv_codec.h (shared with the
/// snapshot format); re-exported here for callers of the wire codec.
using ::epidemic::DecodeVersionVector;
using ::epidemic::EncodeVersionVector;

}  // namespace epidemic::net

#endif  // EPIDEMIC_NET_CODEC_H_
