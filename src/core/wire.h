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

void EncodePropagationRequestBody(ByteWriter& w, const PropagationRequest& m);
void EncodePropagationResponseBody(ByteWriter& w,
                                   const PropagationResponse& m);
void EncodeOobRequestBody(ByteWriter& w, const OobRequest& m);
void EncodeOobResponseBody(ByteWriter& w, const OobResponse& m);
void EncodeShardedPropagationRequestBody(ByteWriter& w,
                                         const ShardedPropagationRequest& m);
void EncodeShardedPropagationResponseBody(ByteWriter& w,
                                          const ShardedPropagationResponse& m);

Result<PropagationRequest> DecodePropagationRequestBody(ByteReader& r);
Result<PropagationResponse> DecodePropagationResponseBody(ByteReader& r);
Result<OobRequest> DecodeOobRequestBody(ByteReader& r);
Result<OobResponse> DecodeOobResponseBody(ByteReader& r);
Result<ShardedPropagationRequest> DecodeShardedPropagationRequestBody(
    ByteReader& r);
Result<ShardedPropagationResponse> DecodeShardedPropagationResponseBody(
    ByteReader& r);

/// Helpers for the opaque per-shard segments of a sharded reply: a segment
/// body is exactly an encoded PropagationResponse body, produced at the
/// source and parsed at the recipient under that shard's lock only.
std::string EncodeShardSegmentBody(const PropagationResponse& m);
Result<PropagationResponse> DecodeShardSegmentBody(std::string_view body);

// ---------------------------------------------------------------------------
// Wire format v3 (DESIGN.md §10)
// ---------------------------------------------------------------------------

/// v3 segment-body flag bits (first byte of every v3 segment body).
inline constexpr uint8_t kSegFlagCompressed = 0x01;

/// Upper bound on a decompressed v3 segment, enforced before allocating.
inline constexpr size_t kMaxSegmentBytes = size_t{1} << 30;

/// Encoder knobs for one v3 segment. `compress` is only set when the
/// requester advertised kPropFlagAcceptCompressed; bodies smaller than
/// `min_compress_bytes` skip the attempt (the LZ77 pass costs more than
/// it saves on tiny segments).
struct V3SegmentOptions {
  bool compress = false;
  size_t min_compress_bytes = 512;
};

/// Owns everything a decoded PropagationResponseView borrows that is not
/// the caller's receive buffer: the decompressed backing bytes (when the
/// segment was compressed) and the decoded per-item IVVs. Must stay alive
/// until AcceptPropagation has consumed the view. Reusable across
/// segments — decode clears and refills it, keeping capacity.
struct SegmentViewStorage {
  std::string backing;
  std::vector<VersionVector> ivvs;
};

/// v3 sharded handshake body: v2 layout plus a negotiation flags byte and
/// the requester's cached source epoch (kPropFlagEpochProbe rounds carry
/// only the epoch, zero shard DBVVs — the O(1) quiescent round).
void EncodeShardedPropagationRequestBodyV3(
    ByteWriter& w, const ShardedPropagationRequest& m);
Result<ShardedPropagationRequest> DecodeShardedPropagationRequestBodyV3(
    ByteReader& r);

/// v3 sharded reply body: response flags byte + the source's mutation
/// epoch (sampled before serving), then the v2 envelope layout.
void EncodeShardedPropagationResponseBodyV3(
    ByteWriter& w, const ShardedPropagationResponse& m);
Result<ShardedPropagationResponse> DecodeShardedPropagationResponseBodyV3(
    ByteReader& r);

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
};
/// View-decoding twin of DecodeShardedPropagationResponseBodyV3: same
/// layout, same validations, no segment-body copies.
Status DecodeShardedPropagationResponseEnvelopeV3(
    ByteReader& r, ShardedResponseEnvelopeView* out);

/// Encodes one stale shard's reply as a self-framed v3 segment body into
/// `*out` (replacing its contents, keeping capacity — pass a pooled
/// buffer). Layout, after the flags byte and optional compression frame:
///
///   base DBVV (dense) · item set S (name, value, deleted, delta-IVV vs
///   base) · tails D_k (per record: varint item index into S, then the
///   seq — absolute for the first record, `seq - prev - 1` after).
///
/// Requires `!m.you_are_current` (current shards are skipped before any
/// buffer is touched) and every tail record's `item_index` filled in.
/// `pool` (nullable) supplies compression scratch.
void EncodeShardSegmentBodyV3(const PropagationResponseView& m,
                              const VersionVector& base,
                              const V3SegmentOptions& opts, BufferPool* pool,
                              std::string* out);

/// Appends an *uncompressed* v3 segment body (flags byte + inner layout,
/// identical to EncodeShardSegmentBodyV3 with compression off) directly to
/// `w`. Lets the serve path encode each stale shard straight into the
/// response frame, skipping the per-segment staging buffer and the
/// segment→frame stitch copy. Same preconditions as
/// EncodeShardSegmentBodyV3.
void EncodeShardSegmentBodyV3Into(ByteWriter& w,
                                  const PropagationResponseView& m,
                                  const VersionVector& base);

/// Zero-copy decode of a v3 segment body. On success `out`'s string views
/// point into `body` (or into `storage->backing` when the segment was
/// compressed) and its IVV pointers into `storage->ivvs`; both `body` and
/// `*storage` must outlive the view. Rejects trailing bytes, unknown flag
/// bits, out-of-range item indices, and malformed deltas.
Status DecodeShardSegmentBodyV3(std::string_view body,
                                SegmentViewStorage* storage,
                                PropagationResponseView* out);

/// Zero-copy decode of a *v2* response body (the view-based variant of
/// DecodePropagationResponseBody): names and values become views into
/// `body`, IVVs are decoded dense into `storage->ivvs`. v2 bodies identify
/// tail items by name; each record's `item_index` is resolved by name, as
/// MakeResponseView does.
Status DecodePropagationResponseBodyView(std::string_view body,
                                         SegmentViewStorage* storage,
                                         PropagationResponseView* out);

/// Borrow an owned response as a view (string views and IVV pointers into
/// `m`, which must outlive `*out`). Each tail record's `item_index` is
/// resolved by name, so the view can be v3-encoded or accepted like a
/// decoded one; a name missing from S keeps index 0, which the accept
/// rejects because the names differ.
void MakeResponseView(const PropagationResponse& m,
                      PropagationResponseView* out);
// A temporary would leave every view dangling the moment the call returns.
void MakeResponseView(PropagationResponse&&, PropagationResponseView*) = delete;

/// Deep-copies a view into an owned response (test / journal helper).
PropagationResponse MaterializeResponse(const PropagationResponseView& m);

}  // namespace epidemic::wire

#endif  // EPIDEMIC_CORE_WIRE_H_
