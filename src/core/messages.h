#ifndef EPIDEMIC_CORE_MESSAGES_H_
#define EPIDEMIC_CORE_MESSAGES_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "vv/version_vector.h"

namespace epidemic {

// Anti-entropy between processes speaks one format, wire v3 (tags 17/18):
// IVVs delta-encoded against the segment's base DBVV, tail items
// referenced by index, zero-copy decode (DESIGN.md §10). In process, a
// source answers a PropagationRequest (§5.1) with a borrowed
// PropagationResponseView, and the recipient accepts that view. The owned
// PropagationResponse, WireItem and WireLogRecord below are only the form
// in which tests and fuzz seeds write a response by hand
// (wire::MakeResponseView borrows one as a view); nothing in src/
// produces one. None of these has a wire encoding of its own. Request
// flag bit 0x01 once asked for compressed segments; sources ignore it and
// never compress.

/// Kept only because perfbench/src/layers.cc names it.
inline constexpr uint8_t kWireV3 = 3;

/// Request flag: the request is an epoch probe — it carries no shard
/// DBVVs, only `last_epoch`, the source mutation epoch the requester saw
/// on its last completed pull. If the source's epoch still matches, the
/// reply is the O(1) "you-are-current"; otherwise the source answers
/// kPropRespFlagResend and the requester repeats the round with the full
/// per-shard handshake. The whole-database analogue of the paper's O(1)
/// DBVV dominance check: a quiescent round costs O(1), not O(S).
inline constexpr uint8_t kPropFlagEpochProbe = 0x02;

/// Response flag: the probe's epoch no longer matches — resend the
/// handshake with shard DBVVs. Carries no segments; the requester must
/// not cache the attached epoch (no data was served under it).
inline constexpr uint8_t kPropRespFlagResend = 0x01;

/// Step (1) of update propagation (§5.1): recipient i sends its DBVV to the
/// prospective source j.
struct PropagationRequest {
  NodeId requester = 0;
  VersionVector dbvv;
};

/// A log-vector record as shipped on the wire. Items are identified by name
/// because ItemIds are node-local. Constant size per record (§6) up to the
/// item name.
struct WireLogRecord {
  std::string item_name;
  UpdateCount seq = 0;
};

/// A member of the item set S (Fig. 2): the source's regular copy of a data
/// item together with its IVV. Tombstones (deleted items) replicate like
/// values so deletes win everywhere.
struct WireItem {
  std::string name;
  std::string value;
  bool deleted = false;
  VersionVector ivv;
};

/// Source j's reply (Fig. 2), owned: either "you-are-current", or the tail
/// vector D (one tail of missed records per origin node, oldest first)
/// plus the set S of referenced items. Written by hand in tests and fuzz
/// seeds; see PropagationResponseView for the form the protocol uses.
struct PropagationResponse {
  bool you_are_current = false;
  std::vector<std::vector<WireLogRecord>> tails;  // D_k indexed by origin k
  std::vector<WireItem> items;                    // S
};

/// Borrowed counterparts of WireLogRecord / WireItem /
/// PropagationResponse, and the only form the protocol serves and
/// accepts: every string is a view into storage owned by someone
/// longer-lived (the source's store on the serve path, the decode buffer
/// on the accept path), and the IVV is a pointer into either the store or
/// a decoded-IVV arena. This is the zero-copy spine of wire v3 (DESIGN.md
/// §10): a response travels source store → encoder → network → decode
/// buffer → recipient store with names and values copied exactly once,
/// into the store.
struct WireLogRecordView {
  std::string_view item_name;
  UpdateCount seq = 0;
  /// Index of the record's item within the response's item set S. The v3
  /// encoder writes this index instead of repeating the name. Every view
  /// producer fills it in (the serve path, both decoders,
  /// MakeResponseView), and the accept resolves the record's item through
  /// it, checked against the name.
  uint32_t item_index = 0;
};

struct WireItemView {
  std::string_view name;
  std::string_view value;
  bool deleted = false;
  const VersionVector* ivv = nullptr;  // owned by store / decode storage
};

struct PropagationResponseView {
  bool you_are_current = false;
  std::vector<std::vector<WireLogRecordView>> tails;  // D_k by origin k
  std::vector<WireItemView> items;                    // S

  /// Empties the view while keeping every vector's capacity (including
  /// the per-origin tail vectors), so a reused view allocates only on the
  /// first exchange it serves.
  void Reset(size_t num_tails) {
    you_are_current = false;
    if (tails.size() > num_tails) tails.resize(num_tails);
    for (auto& tail : tails) tail.clear();
    if (tails.size() < num_tails) tails.resize(num_tails);
    items.clear();
  }
};

/// Sharded handshake (wire v3, tag 17): one round trip carries the DBVV of
/// every shard, so a recipient lagging on any subset of shards pulls all of
/// them in a single exchange. Each shard is a complete instance of the
/// paper's protocol state, so the per-shard semantics (Fig. 2-4) are
/// untouched; the aggregate handshake is O(S) DBVV comparisons but still
/// ships only O(m) items.
struct ShardedPropagationRequest {
  NodeId requester = 0;
  std::vector<VersionVector> shard_dbvvs;  // indexed by shard
  /// kPropFlag* bits.
  uint8_t flags = 0;
  /// With kPropFlagEpochProbe, the source mutation epoch this requester
  /// recorded from its last completed pull (0 = never pulled).
  uint64_t last_epoch = 0;
};

/// One shard's segment of a sharded reply: the shard index plus the
/// encoded v3 segment body (wire::EncodeShardSegmentBodyV3Into). Bodies
/// stay opaque at the envelope layer so each shard can be encoded at the
/// source and decoded at the recipient independently — in parallel, inside
/// that shard's single-writer section only.
struct ShardedPropagationSegment {
  uint32_t shard = 0;
  std::string body;
};

/// Source reply to a sharded handshake. Shards found current by the O(1)
/// DBVV check are simply omitted; an empty segment list is the sharded
/// "you-are-current". `num_shards` echoes the source's shard count so a
/// topology mismatch is detected before any state is touched.
struct ShardedPropagationResponse {
  uint32_t num_shards = 0;
  std::vector<ShardedPropagationSegment> segments;
  /// Never read or serialized: every sharded reply is v3. Kept only
  /// because perfbench/src/layers.cc assigns it.
  uint8_t wire_version = kWireV3;
  /// kPropRespFlag* bits.
  uint8_t resp_flags = 0;
  /// The source's mutation epoch sampled *before* serving, so anything
  /// the segments miss has a later epoch. The requester caches it after a
  /// successful accept and probes with it next round.
  uint64_t epoch = 0;

  bool resend_requested() const {
    return (resp_flags & kPropRespFlagResend) != 0;
  }
};

/// Out-of-bound copy request (§5.2) for a single named item.
struct OobRequest {
  NodeId requester = 0;
  std::string item_name;
};

/// Out-of-bound reply: the source's auxiliary copy if one exists, otherwise
/// its regular copy, with the corresponding IVV. `found` is false when the
/// source has never heard of the item.
struct OobResponse {
  bool found = false;
  std::string item_name;
  std::string value;
  bool deleted = false;
  VersionVector ivv;
};

}  // namespace epidemic

#endif  // EPIDEMIC_CORE_MESSAGES_H_
