#include "core/wire.h"

#include <cassert>
#include <string>
#include <unordered_map>
#include <utility>

#include "vv/vv_codec.h"

namespace epidemic::wire {

void EncodeOobRequestBody(ByteWriter& w, const OobRequest& m) {
  w.PutVarint64(m.requester);
  w.PutString(m.item_name);
}

void EncodeOobResponseBody(ByteWriter& w, const OobResponse& m) {
  w.PutU8(m.found ? 1 : 0);
  w.PutString(m.item_name);
  if (!m.found) return;
  w.PutString(m.value);
  w.PutU8(m.deleted ? 1 : 0);
  EncodeVersionVector(&w, m.ivv);
}

// ---------------------------------------------------------------------------
// Wire format v3
// ---------------------------------------------------------------------------

void EncodeShardedRequestBodyV3(ByteWriter& w,
                                const ShardedPropagationRequest& m) {
  w.PutVarint64(m.requester);
  w.PutU8(m.flags);
  w.PutVarint64(m.last_epoch);
  w.PutVarint64(m.shard_dbvvs.size());
  for (const VersionVector& vv : m.shard_dbvvs) {
    EncodeVersionVector(&w, vv);
  }
}

Result<ShardedPropagationRequest> DecodeShardedRequestBodyV3(ByteReader& r) {
  ShardedPropagationRequest m;
  auto requester = r.GetVarint64();
  if (!requester.ok()) return requester.status();
  m.requester = static_cast<NodeId>(*requester);
  auto flags = r.GetU8();
  if (!flags.ok()) return flags.status();
  m.flags = *flags;
  auto last_epoch = r.GetVarint64();
  if (!last_epoch.ok()) return last_epoch.status();
  m.last_epoch = *last_epoch;
  auto count = r.GetVarint64();
  if (!count.ok()) return count.status();
  if (*count > (1u << 16)) return Status::Corruption("absurd shard count");
  if ((m.flags & kPropFlagEpochProbe) != 0 && *count != 0) {
    return Status::Corruption("epoch probe carrying shard DBVVs");
  }
  m.shard_dbvvs.reserve(static_cast<size_t>(*count));
  for (uint64_t i = 0; i < *count; ++i) {
    auto vv = DecodeVersionVector(&r);
    if (!vv.ok()) return vv.status();
    m.shard_dbvvs.push_back(std::move(*vv));
  }
  return m;
}

void EncodeShardedResponseBodyV3(ByteWriter& w,
                                 const ShardedPropagationResponse& m) {
  // Segment bodies dominate the frame; reserving their sum up front turns
  // the stitch into one allocation instead of a doubling series that
  // re-copies megabytes.
  size_t total = 24;
  for (const ShardedPropagationSegment& seg : m.segments) {
    total += seg.body.size() + 12;
  }
  w.Reserve(w.size() + total);
  w.PutU8(m.resp_flags);
  w.PutVarint64(m.epoch);
  w.PutVarint64(m.num_shards);
  w.PutVarint64(m.segments.size());
  for (const ShardedPropagationSegment& seg : m.segments) {
    w.PutVarint64(seg.shard);
    w.PutString(seg.body);
  }
}

Result<ShardedPropagationResponse> DecodeShardedResponseBodyV3(ByteReader& r) {
  ShardedResponseEnvelopeView env;
  EPI_RETURN_NOT_OK(DecodeShardedPropagationResponseEnvelopeV3(r, &env));
  ShardedPropagationResponse m;
  m.resp_flags = env.resp_flags;
  m.epoch = env.epoch;
  m.num_shards = env.num_shards;
  m.segments.reserve(env.segments.size());
  for (const ShardedSegmentView& seg : env.segments) {
    m.segments.push_back(
        ShardedPropagationSegment{seg.shard, std::string(seg.body)});
  }
  return m;
}

Status DecodeShardedPropagationResponseEnvelopeV3(
    ByteReader& r, ShardedResponseEnvelopeView* out) {
  out->segments.clear();
  auto resp_flags = r.GetU8();
  if (!resp_flags.ok()) return resp_flags.status();
  if ((*resp_flags & ~(kPropRespFlagResend | kPropRespFlagPartial)) != 0) {
    return Status::Corruption("unknown sharded response flags");
  }
  if (*resp_flags == (kPropRespFlagResend | kPropRespFlagPartial)) {
    return Status::Corruption("reply both partial and resend");
  }
  auto epoch = r.GetVarint64();
  if (!epoch.ok()) return epoch.status();
  auto num_shards = r.GetVarint64();
  if (!num_shards.ok()) return num_shards.status();
  if (*num_shards > (1u << 16)) return Status::Corruption("absurd shard count");
  // The segment count and each segment's length prefix are padded-varint
  // backpatch slots in the serve (server::ShardedExchange::Serve),
  // so these two fields — and only these — decode with the padded getters.
  auto count = r.GetVarint64Padded();
  if (!count.ok()) return count.status();
  if (*count > *num_shards) {
    return Status::Corruption("more segments than shards");
  }
  if ((*resp_flags & kPropRespFlagResend) != 0 && *count != 0) {
    return Status::Corruption("resend reply carrying segments");
  }
  // A partial reply with nothing in it would let a source keep a puller
  // handshaking without ever making progress.
  if ((*resp_flags & kPropRespFlagPartial) != 0 && *count == 0) {
    return Status::Corruption("partial reply carrying no segments");
  }
  out->resp_flags = *resp_flags;
  out->epoch = *epoch;
  out->num_shards = static_cast<uint32_t>(*num_shards);
  out->segments.reserve(static_cast<size_t>(*count));
  uint64_t prev_shard = 0;
  for (uint64_t i = 0; i < *count; ++i) {
    auto shard = r.GetVarint64();
    if (!shard.ok()) return shard.status();
    // Strictly increasing shard indices < num_shards: rejects duplicates
    // and out-of-range segments before any shard state is touched.
    if (*shard >= *num_shards || (i > 0 && *shard <= prev_shard)) {
      return Status::Corruption("segment shard indices not strictly "
                                "increasing within the shard count");
    }
    prev_shard = *shard;
    auto body = r.GetStringViewPadded();
    if (!body.ok()) return body.status();
    out->segments.push_back(
        ShardedSegmentView{static_cast<uint32_t>(*shard), *body});
  }
  return Status::OK();
}

namespace {

/// Cheap upper-bound-ish estimate of the inner v3 segment size, so the
/// ByteWriter reserves once instead of doubling. Per item: length
/// prefixes + deleted byte + a typical few-byte delta IVV; per tail
/// record: index + seq varints.
size_t EstimateSegmentInnerSize(const PropagationResponseView& m,
                                const VersionVector& base) {
  size_t est = 2 * base.size() + 16;
  for (const WireItemView& item : m.items) {
    est += item.name.size() + item.value.size() + 16;
  }
  for (const auto& tail : m.tails) {
    est += 2 + 8 * tail.size();
  }
  return est;
}

void EncodeSegmentInnerV3(ByteWriter& w, const PropagationResponseView& m,
                          const VersionVector& base) {
  EncodeVersionVector(&w, base);
  w.PutVarint64(m.items.size());
  for (const WireItemView& item : m.items) {
    w.PutString(item.name);
    w.PutString(item.value);
    w.PutU8(item.deleted ? 1 : 0);
    EncodeVersionVectorDelta(&w, *item.ivv, base);
  }
  w.PutVarint64(m.tails.size());
  for (const auto& tail : m.tails) {
    w.PutVarint64(tail.size());
    UpdateCount prev = 0;
    bool first = true;
    for (const WireLogRecordView& rec : tail) {
      w.PutVarint64(rec.item_index);
      // Records within a tail are strictly increasing in seq, so after
      // the first (absolute) value the gap-minus-one never underflows —
      // and non-increasing sequences are inexpressible on the wire.
      w.PutVarint64(first ? rec.seq : rec.seq - prev - 1);
      prev = rec.seq;
      first = false;
    }
  }
}

}  // namespace

void EncodeShardSegmentBodyV3Into(ByteWriter& w,
                                  const PropagationResponseView& m,
                                  const VersionVector& base) {
  // Current shards never reach the encoder: the O(1) DBVV check skips
  // them before any buffer is constructed.
  assert(!m.you_are_current);
  w.Reserve(w.size() + EstimateSegmentInnerSize(m, base) + 1);
  w.PutU8(0);  // flags: none defined
  EncodeSegmentInnerV3(w, m, base);
}

void EncodeShardSegmentBodyV3(const PropagationResponseView& m,
                              const VersionVector& base,
                              const V3SegmentOptions& /*opts*/,
                              BufferPool* /*pool*/, std::string* out) {
  ByteWriter w(std::move(*out));
  EncodeShardSegmentBodyV3Into(w, m, base);
  *out = w.Release();
}

namespace {

/// Resolves every tail record's `item_index` by name, for owned responses,
/// which identify tail items by name only. A name missing from S keeps
/// index 0; the accept rejects it, the names differ.
void FillTailIndicesByName(PropagationResponseView* out) {
  std::unordered_map<std::string_view, uint32_t> index;
  index.reserve(out->items.size());
  for (size_t i = 0; i < out->items.size(); ++i) {
    index.emplace(out->items[i].name, static_cast<uint32_t>(i));
  }
  for (auto& tail : out->tails) {
    for (WireLogRecordView& rec : tail) {
      auto it = index.find(rec.item_name);
      rec.item_index = it != index.end() ? it->second : 0;
    }
  }
}

/// Item set and tails of a v3 segment body, reading from `r` whose backing
/// bytes the produced views borrow: delta IVVs against `base`, and tail
/// records naming their item by index into S.
Status DecodeViewItemsAndTails(ByteReader& r, const VersionVector& base,
                               SegmentViewStorage* storage,
                               PropagationResponseView* out) {
  auto num_items = r.GetVarint64();
  if (!num_items.ok()) return num_items.status();
  // Every item costs at least four bytes (two length prefixes, deleted
  // byte, IVV header), so a count beyond the remaining bytes is corrupt —
  // checked before reserving anything.
  if (*num_items > r.remaining()) {
    return Status::Corruption("item count exceeds segment size");
  }
  storage->ivvs.clear();
  storage->ivvs.reserve(static_cast<size_t>(*num_items));
  out->items.clear();
  out->items.reserve(static_cast<size_t>(*num_items));
  for (uint64_t i = 0; i < *num_items; ++i) {
    WireItemView item;
    auto name = r.GetStringView();
    if (!name.ok()) return name.status();
    item.name = *name;
    auto value = r.GetStringView();
    if (!value.ok()) return value.status();
    item.value = *value;
    auto deleted = r.GetU8();
    if (!deleted.ok()) return deleted.status();
    item.deleted = (*deleted != 0);
    auto vv = DecodeVersionVectorDelta(&r, base);
    if (!vv.ok()) return vv.status();
    // reserve() above makes these pushes stable, so the pointer into the
    // arena survives the loop.
    storage->ivvs.push_back(std::move(*vv));
    item.ivv = &storage->ivvs.back();
    out->items.push_back(item);
  }

  auto num_tails = r.GetVarint64();
  if (!num_tails.ok()) return num_tails.status();
  if (*num_tails > (1u << 20)) return Status::Corruption("absurd tail count");
  if (out->tails.size() > *num_tails) out->tails.resize(*num_tails);
  for (auto& tail : out->tails) tail.clear();
  if (out->tails.size() < *num_tails) out->tails.resize(*num_tails);
  for (auto& tail : out->tails) {
    auto count = r.GetVarint64();
    if (!count.ok()) return count.status();
    if (*count > r.remaining()) {
      return Status::Corruption("tail record count exceeds segment size");
    }
    tail.reserve(static_cast<size_t>(*count));
    UpdateCount prev = 0;
    for (uint64_t i = 0; i < *count; ++i) {
      WireLogRecordView rec;
      auto idx = r.GetVarint64();
      if (!idx.ok()) return idx.status();
      if (*idx >= out->items.size()) {
        return Status::Corruption("tail item index out of range");
      }
      rec.item_index = static_cast<uint32_t>(*idx);
      rec.item_name = out->items[rec.item_index].name;
      auto seq = r.GetVarint64();
      if (!seq.ok()) return seq.status();
      rec.seq = (i == 0) ? *seq : prev + 1 + *seq;
      if (rec.seq < prev) {
        return Status::Corruption("tail seq overflow");
      }
      prev = rec.seq;
      tail.push_back(rec);
    }
  }
  return Status::OK();
}

}  // namespace

Status DecodeShardSegmentBodyV3(std::string_view body,
                                SegmentViewStorage* storage,
                                PropagationResponseView* out) {
  ByteReader r(body);
  auto flags = r.GetU8();
  if (!flags.ok()) return flags.status();
  if (*flags != 0) return Status::Corruption("unknown v3 segment flags");
  out->you_are_current = false;
  auto base = DecodeVersionVector(&r);
  if (!base.ok()) return base.status();
  Status s = DecodeViewItemsAndTails(r, *base, storage, out);
  if (!s.ok()) return s;
  if (!r.AtEnd()) {
    return Status::Corruption("trailing bytes after v3 segment body");
  }
  return Status::OK();
}

void MakeResponseView(const PropagationResponse& m,
                      PropagationResponseView* out) {
  out->you_are_current = m.you_are_current;
  out->items.clear();
  out->items.reserve(m.items.size());
  for (const WireItem& item : m.items) {
    out->items.push_back(
        WireItemView{item.name, item.value, item.deleted, &item.ivv});
  }
  if (out->tails.size() > m.tails.size()) out->tails.resize(m.tails.size());
  for (auto& tail : out->tails) tail.clear();
  if (out->tails.size() < m.tails.size()) out->tails.resize(m.tails.size());
  for (size_t k = 0; k < m.tails.size(); ++k) {
    auto& tail = out->tails[k];
    tail.reserve(m.tails[k].size());
    for (const WireLogRecord& rec : m.tails[k]) {
      tail.push_back(WireLogRecordView{rec.item_name, rec.seq});
    }
  }
  FillTailIndicesByName(out);
}

Result<OobRequest> DecodeOobRequestBody(ByteReader& r) {
  OobRequest m;
  auto requester = r.GetVarint64();
  if (!requester.ok()) return requester.status();
  m.requester = static_cast<NodeId>(*requester);
  auto name = r.GetString();
  if (!name.ok()) return name.status();
  m.item_name = std::move(*name);
  return m;
}

Result<OobResponse> DecodeOobResponseBody(ByteReader& r) {
  OobResponse m;
  auto found = r.GetU8();
  if (!found.ok()) return found.status();
  m.found = (*found != 0);
  auto name = r.GetString();
  if (!name.ok()) return name.status();
  m.item_name = std::move(*name);
  if (!m.found) return m;
  auto value = r.GetString();
  if (!value.ok()) return value.status();
  m.value = std::move(*value);
  auto deleted = r.GetU8();
  if (!deleted.ok()) return deleted.status();
  m.deleted = (*deleted != 0);
  auto vv = DecodeVersionVector(&r);
  if (!vv.ok()) return vv.status();
  m.ivv = std::move(*vv);
  return m;
}

}  // namespace epidemic::wire
