#ifndef EPIDEMIC_CORE_WIRE_H_
#define EPIDEMIC_CORE_WIRE_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/buffer_pool.h"
#include "common/bytes.h"
#include "common/result.h"
#include "core/messages.h"

namespace epidemic::wire {

/// Binary body encodings of the protocol messages (no leading type tag —
/// envelopes belong to the callers: the net codec adds a tag byte, the
/// journal adds a record tag). Shared by the wire codec and the journal so
/// there is exactly one serialization of each message.

void EncodeOobRequestBody(ByteWriter& w, const OobRequest& m);
void EncodeOobResponseBody(ByteWriter& w, const OobResponse& m);

Result<OobRequest> DecodeOobRequestBody(ByteReader& r);
Result<OobResponse> DecodeOobResponseBody(ByteReader& r);

// ---------------------------------------------------------------------------
// Sharded exchange, wire format v3 (DESIGN.md §10)
// ---------------------------------------------------------------------------

/// Encoder knobs for one v3 segment: none are left. Kept only because
/// perfbench/src/layers.cc passes one to EncodeShardSegmentBodyV3.
struct V3SegmentOptions {};

/// Owns the decoded per-item IVVs a PropagationResponseView points into.
/// Must stay alive until AcceptPropagation has consumed the view. Reusable
/// across segments — decode clears and refills it, keeping capacity.
struct SegmentViewStorage {
  std::vector<VersionVector> ivvs;
};

/// v3 sharded handshake body: requester, flags byte, the requester's
/// cached source epoch, then the shard DBVVs (kPropFlagEpochProbe rounds
/// carry only the epoch, zero shard DBVVs — the O(1) quiescent round).
void EncodeShardedRequestBodyV3(ByteWriter& w,
                                const ShardedPropagationRequest& m);
Result<ShardedPropagationRequest> DecodeShardedRequestBodyV3(ByteReader& r);

/// v3 sharded reply body: response flags byte, the source's mutation epoch
/// (sampled before serving), the source's shard count, then the segment
/// count and each segment as [shard varint][length][body]. The segment
/// count and the segment lengths may be padded varints (the serve
/// backpatches them); every other field is canonical.
void EncodeShardedResponseBodyV3(ByteWriter& w,
                                 const ShardedPropagationResponse& m);
Result<ShardedPropagationResponse> DecodeShardedResponseBodyV3(ByteReader& r);

/// Zero-copy view of a decoded v3 sharded reply: segment bodies are views
/// into the reader's buffer (the received wire frame), which must outlive
/// the view. The anti-entropy pull path uses this to hand each segment to
/// its shard's accept task without ever materializing the (potentially
/// multi-megabyte) bodies as owned strings.
struct ShardedSegmentView {
  uint32_t shard = 0;
  std::string_view body;
};
struct ShardedResponseEnvelopeView {
  uint8_t resp_flags = 0;
  uint64_t epoch = 0;
  uint32_t num_shards = 0;
  std::vector<ShardedSegmentView> segments;
  bool resend_requested() const {
    return (resp_flags & kPropRespFlagResend) != 0;
  }
  bool partial() const { return (resp_flags & kPropRespFlagPartial) != 0; }
};
/// View-decoding twin of DecodeShardedResponseBodyV3: same
/// layout, same validations, no segment-body copies.
Status DecodeShardedPropagationResponseEnvelopeV3(
    ByteReader& r, ShardedResponseEnvelopeView* out);

/// Appends one stale shard's reply as a v3 segment body to `w`. Layout,
/// after a zero flags byte:
///
///   base DBVV (dense) · item set S (name, value, deleted, delta-IVV vs
///   base) · tails D_k (per record: varint item index into S, then the
///   seq — absolute for the first record, `seq - prev - 1` after).
///
/// Requires `!m.you_are_current` (current shards are skipped before any
/// buffer is touched) and every tail record's `item_index` filled in.
void EncodeShardSegmentBodyV3Into(ByteWriter& w,
                                  const PropagationResponseView& m,
                                  const VersionVector& base);

/// EncodeShardSegmentBodyV3Into over `*out` (replacing its contents,
/// keeping capacity); `opts` and `pool` are unused. Kept only because
/// perfbench/src/layers.cc calls this five-argument form.
void EncodeShardSegmentBodyV3(const PropagationResponseView& m,
                              const VersionVector& base,
                              const V3SegmentOptions& opts, BufferPool* pool,
                              std::string* out);

/// Zero-copy decode of a v3 segment body. On success `out`'s string views
/// point into `body` and its IVV pointers into `storage->ivvs`; both must
/// outlive the view. Rejects trailing bytes, any flag bit (0x01 was the
/// retired compression flag), out-of-range item indices, and malformed
/// deltas.
Status DecodeShardSegmentBodyV3(std::string_view body,
                                SegmentViewStorage* storage,
                                PropagationResponseView* out);

/// Borrow a hand-written owned response (tests, fuzz seeds) as a view
/// (string views and IVV pointers into `m`, which must outlive `*out`).
/// Each tail record's `item_index` is resolved by name, so the view can be
/// v3-encoded or accepted like a decoded one; a name missing from S keeps
/// index 0, which the accept rejects because the names differ.
void MakeResponseView(const PropagationResponse& m,
                      PropagationResponseView* out);
// A temporary would leave every view dangling the moment the call returns.
void MakeResponseView(PropagationResponse&&, PropagationResponseView*) = delete;

}  // namespace epidemic::wire

#endif  // EPIDEMIC_CORE_WIRE_H_
