#include "net/codec.h"

#include <utility>

#include "core/wire.h"

namespace epidemic::net {

namespace {

// Protocol-message bodies are shared with the journal (core/wire.h); only
// the client messages are encoded here.

void EncodeBody(ByteWriter& w, const OobRequest& m) {
  wire::EncodeOobRequestBody(w, m);
}

void EncodeBody(ByteWriter& w, const OobResponse& m) {
  wire::EncodeOobResponseBody(w, m);
}

void EncodeBody(ByteWriter& w, const ClientUpdateRequest& m) {
  w.PutString(m.item_name);
  w.PutString(m.value);
}

void EncodeBody(ByteWriter& w, const ClientReadRequest& m) {
  w.PutString(m.item_name);
}

void EncodeBody(ByteWriter& w, const ClientOobFetchRequest& m) {
  w.PutVarint64(m.from_peer);
  w.PutString(m.item_name);
}

void EncodeBody(ByteWriter& w, const ClientReply& m) {
  w.PutU8(m.code);
  w.PutString(m.payload);
}

void EncodeBody(ByteWriter& w, const ClientDeleteRequest& m) {
  w.PutString(m.item_name);
}

void EncodeBody(ByteWriter&, const ClientStatsRequest&) {}

void EncodeBody(ByteWriter& w, const ClientScanRequest& m) {
  w.PutString(m.prefix);
  w.PutVarint64(m.limit);
}

void EncodeBody(ByteWriter& w, const ClientSyncRequest& m) {
  w.PutVarint64(m.peer);
}

void EncodeBody(ByteWriter&, const ClientCheckpointRequest&) {}

void EncodeBody(ByteWriter& w, const ShardedPropagationRequest& m) {
  wire::EncodeShardedRequestBodyV3(w, m);
}

void EncodeBody(ByteWriter& w, const ShardedPropagationResponse& m) {
  wire::EncodeShardedResponseBodyV3(w, m);
}

void EncodeBody(ByteWriter&, const ClientResetStatsRequest&) {}

// One tag per message type. Encode resolves the overload from the
// variant's alternative, so an alternative without a tag here fails to
// compile instead of borrowing another message's number.
MessageType TagOf(const OobRequest&) { return MessageType::kOobRequest; }
MessageType TagOf(const OobResponse&) { return MessageType::kOobResponse; }
MessageType TagOf(const ClientUpdateRequest&) {
  return MessageType::kClientUpdate;
}
MessageType TagOf(const ClientReadRequest&) {
  return MessageType::kClientRead;
}
MessageType TagOf(const ClientOobFetchRequest&) {
  return MessageType::kClientOobFetch;
}
MessageType TagOf(const ClientReply&) { return MessageType::kClientReply; }
MessageType TagOf(const ClientDeleteRequest&) {
  return MessageType::kClientDelete;
}
MessageType TagOf(const ClientStatsRequest&) {
  return MessageType::kClientStats;
}
MessageType TagOf(const ClientScanRequest&) {
  return MessageType::kClientScan;
}
MessageType TagOf(const ClientSyncRequest&) {
  return MessageType::kClientSync;
}
MessageType TagOf(const ClientCheckpointRequest&) {
  return MessageType::kClientCheckpoint;
}
MessageType TagOf(const ShardedPropagationRequest&) {
  return MessageType::kShardedPropagationRequestV3;
}
MessageType TagOf(const ShardedPropagationResponse&) {
  return MessageType::kShardedPropagationResponseV3;
}
MessageType TagOf(const ClientResetStatsRequest&) {
  return MessageType::kClientResetStats;
}

template <typename T>
Result<Message> Wrap(Result<T> r) {
  if (!r.ok()) return r.status();
  return Message(std::move(*r));
}

Result<Message> DecodeClientUpdate(ByteReader& r) {
  ClientUpdateRequest m;
  auto name = r.GetString();
  if (!name.ok()) return name.status();
  m.item_name = std::move(*name);
  auto value = r.GetString();
  if (!value.ok()) return value.status();
  m.value = std::move(*value);
  return Message(std::move(m));
}

Result<Message> DecodeClientRead(ByteReader& r) {
  ClientReadRequest m;
  auto name = r.GetString();
  if (!name.ok()) return name.status();
  m.item_name = std::move(*name);
  return Message(std::move(m));
}

Result<Message> DecodeClientOobFetch(ByteReader& r) {
  ClientOobFetchRequest m;
  auto peer = r.GetVarint64();
  if (!peer.ok()) return peer.status();
  m.from_peer = static_cast<NodeId>(*peer);
  auto name = r.GetString();
  if (!name.ok()) return name.status();
  m.item_name = std::move(*name);
  return Message(std::move(m));
}

Result<Message> DecodeClientDelete(ByteReader& r) {
  ClientDeleteRequest m;
  auto name = r.GetString();
  if (!name.ok()) return name.status();
  m.item_name = std::move(*name);
  return Message(std::move(m));
}

Result<Message> DecodeClientReply(ByteReader& r) {
  ClientReply m;
  auto code = r.GetU8();
  if (!code.ok()) return code.status();
  m.code = *code;
  auto payload = r.GetString();
  if (!payload.ok()) return payload.status();
  m.payload = std::move(*payload);
  return Message(std::move(m));
}

Result<Message> DecodeClientScan(ByteReader& r) {
  ClientScanRequest m;
  auto prefix = r.GetString();
  if (!prefix.ok()) return prefix.status();
  m.prefix = std::move(*prefix);
  auto limit = r.GetVarint64();
  if (!limit.ok()) return limit.status();
  m.limit = *limit;
  return Message(std::move(m));
}

}  // namespace

std::string EncodeScanListing(
    const std::vector<std::pair<std::string, std::string>>& items) {
  ByteWriter w;
  w.PutVarint64(items.size());
  for (const auto& [name, value] : items) {
    w.PutString(name);
    w.PutString(value);
  }
  return w.Release();
}

Result<std::vector<std::pair<std::string, std::string>>> DecodeScanListing(
    std::string_view payload) {
  ByteReader r(payload);
  auto count = r.GetVarint64();
  if (!count.ok()) return count.status();
  if (*count > (1u << 24)) return Status::Corruption("absurd listing size");
  // Every pair costs at least two length bytes, so a count beyond half the
  // remaining bytes is corrupt — checked before reserving anything.
  if (*count > r.remaining() / 2) {
    return Status::Corruption("listing count exceeds payload size");
  }
  std::vector<std::pair<std::string, std::string>> out;
  out.reserve(static_cast<size_t>(*count));
  for (uint64_t i = 0; i < *count; ++i) {
    auto name = r.GetString();
    if (!name.ok()) return name.status();
    auto value = r.GetString();
    if (!value.ok()) return value.status();
    out.emplace_back(std::move(*name), std::move(*value));
  }
  if (!r.AtEnd()) return Status::Corruption("trailing bytes after listing");
  return out;
}

std::string Encode(const Message& msg) {
  ByteWriter w;
  std::visit(
      [&w](const auto& m) {
        w.PutU8(static_cast<uint8_t>(TagOf(m)));
        EncodeBody(w, m);
      },
      msg);
  return w.Release();
}

Result<Message> Decode(std::string_view frame) {
  ByteReader r(frame);
  auto tag = r.GetU8();
  if (!tag.ok()) return tag.status();

  Result<Message> result = Status::Corruption("unknown message tag " +
                                              std::to_string(*tag));
  switch (static_cast<MessageType>(*tag)) {
    case MessageType::kOobRequest:
      result = Wrap(wire::DecodeOobRequestBody(r));
      break;
    case MessageType::kOobResponse:
      result = Wrap(wire::DecodeOobResponseBody(r));
      break;
    case MessageType::kClientUpdate:
      result = DecodeClientUpdate(r);
      break;
    case MessageType::kClientRead:
      result = DecodeClientRead(r);
      break;
    case MessageType::kClientOobFetch:
      result = DecodeClientOobFetch(r);
      break;
    case MessageType::kClientReply:
      result = DecodeClientReply(r);
      break;
    case MessageType::kClientDelete:
      result = DecodeClientDelete(r);
      break;
    case MessageType::kClientStats:
      result = Message(ClientStatsRequest{});
      break;
    case MessageType::kClientScan:
      result = DecodeClientScan(r);
      break;
    case MessageType::kClientSync: {
      auto peer = r.GetVarint64();
      if (!peer.ok()) {
        result = peer.status();
      } else {
        result = Message(ClientSyncRequest{static_cast<NodeId>(*peer)});
      }
      break;
    }
    case MessageType::kClientCheckpoint:
      result = Message(ClientCheckpointRequest{});
      break;
    case MessageType::kClientResetStats:
      result = Message(ClientResetStatsRequest{});
      break;
    case MessageType::kShardedPropagationRequestV3:
      result = Wrap(wire::DecodeShardedRequestBodyV3(r));
      break;
    case MessageType::kShardedPropagationResponseV3:
      result = Wrap(wire::DecodeShardedResponseBodyV3(r));
      break;
  }
  if (result.ok() && !r.AtEnd()) {
    return Status::Corruption("trailing bytes after message body");
  }
  return result;
}

}  // namespace epidemic::net
