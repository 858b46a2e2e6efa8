#include "core/snapshot.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>

#include "common/bytes.h"
#include "common/hash.h"
#include "vv/vv_codec.h"

namespace epidemic {

namespace {
constexpr char kMagic[] = "EPISNAP1";  // 8 bytes, version in the last digit
constexpr char kShardedMagic[] = "EPISHRD1";  // sharded container format
constexpr size_t kMagicLen = 8;

Status WriteFileAtomic(const std::string& blob, const std::string& path) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    return Status::IOError("cannot open '" + tmp + "' for writing");
  }
  const size_t written = std::fwrite(blob.data(), 1, blob.size(), f);
  const bool flushed = (std::fflush(f) == 0);
  std::fclose(f);
  if (written != blob.size() || !flushed) {
    std::remove(tmp.c_str());
    return Status::IOError("short write to '" + tmp + "'");
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IOError("cannot rename snapshot into '" + path + "'");
  }
  return Status::OK();
}

}  // namespace

Result<std::string> ReadFileFully(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    if (errno == ENOENT) return Status::NotFound("no file at '" + path + "'");
    return Status::IOError("cannot open '" + path +
                           "': " + std::strerror(errno));
  }
  std::string blob;
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    blob.append(buf, n);
  }
  const bool read_error = (std::ferror(f) != 0);
  std::fclose(f);
  if (read_error) return Status::IOError("error reading '" + path + "'");
  return blob;
}

/// Friend of Replica; does the actual state walking.
class SnapshotCodec {
 public:
  static std::string Encode(const Replica& r) {
    ByteWriter w;
    w.PutBytes(kMagic, kMagicLen);
    w.PutVarint64(r.id_);
    w.PutVarint64(r.num_nodes_);
    EncodeVersionVector(&w, r.dbvv_);

    // Items in creation order, so ItemIds are reproduced exactly on load
    // and the log sections can reference them by id.
    w.PutVarint64(r.store_.size());
    for (const Item& item : r.store_) {
      w.PutString(item.name);
      w.PutString(item.value);
      w.PutU8(item.deleted ? 1 : 0);
      EncodeVersionVector(&w, item.ivv);
      w.PutU8(item.HasAux() ? 1 : 0);
      if (item.HasAux()) {
        w.PutString(item.aux->value);
        w.PutU8(item.aux->deleted ? 1 : 0);
        EncodeVersionVector(&w, item.aux->ivv);
      }
    }

    // Log vector: per origin, records oldest-first.
    for (NodeId k = 0; k < r.num_nodes_; ++k) {
      const OriginLog& log = r.logs_.ForOrigin(k);
      w.PutVarint64(log.size());
      for (ItemId x = log.head(); x != kNoItem; x = log.next(x)) {
        w.PutVarint64(x);
        w.PutVarint64(log.seq(x));
      }
    }

    // Auxiliary log in global order (relative order is what matters; the
    // sequence counter is regenerated on load).
    w.PutVarint64(r.aux_log_.size());
    for (const AuxRecord* rec = r.aux_log_.head(); rec != nullptr;
         rec = rec->next) {
      w.PutVarint64(rec->item);
      EncodeVersionVector(&w, rec->vv);
      w.PutString(rec->op.new_value);
      w.PutU8(rec->op.deleted ? 1 : 0);
    }

    // Trailing CRC-32C over everything above: bit rot is detected before
    // the structural parse even starts.
    std::string body = w.Release();
    ByteWriter out;
    out.PutBytes(body.data(), body.size());
    out.PutFixed32(Crc32c(body));
    return out.Release();
  }

  static Result<std::unique_ptr<Replica>> Decode(std::string_view blob,
                                                 ConflictListener* listener) {
    // Single-owner escape: the replica built below is freshly constructed
    // and unpublished until this function returns it — the decoding thread
    // IS its single writer.
    AssertShardContextHeld();
    if (blob.size() < kMagicLen + 4 ||
        blob.substr(0, kMagicLen) != std::string_view(kMagic, kMagicLen)) {
      return Status::Corruption("not an epidemic snapshot (bad magic)");
    }
    const std::string_view body = blob.substr(0, blob.size() - 4);
    uint32_t stored_crc;
    {
      ByteReader crc_reader(blob.substr(blob.size() - 4));
      auto crc = crc_reader.GetFixed32();
      if (!crc.ok()) return crc.status();
      stored_crc = *crc;
    }
    if (Crc32c(body) != stored_crc) {
      return Status::Corruption("snapshot checksum mismatch");
    }
    ByteReader reader(body.substr(kMagicLen));

    auto id = reader.GetVarint64();
    if (!id.ok()) return id.status();
    auto num_nodes = reader.GetVarint64();
    if (!num_nodes.ok()) return num_nodes.status();
    if (*num_nodes == 0 || *num_nodes > (1u << 20) || *id >= *num_nodes) {
      return Status::Corruption("implausible snapshot header");
    }
    auto replica = std::make_unique<Replica>(
        static_cast<NodeId>(*id), static_cast<size_t>(*num_nodes), listener);

    auto dbvv = DecodeVersionVector(&reader);
    if (!dbvv.ok()) return dbvv.status();
    if (dbvv->size() != *num_nodes) {
      return Status::Corruption("snapshot DBVV width mismatch");
    }
    replica->dbvv_ = std::move(*dbvv);

    auto item_count = reader.GetVarint64();
    if (!item_count.ok()) return item_count.status();
    for (uint64_t i = 0; i < *item_count; ++i) {
      auto name = reader.GetString();
      if (!name.ok()) return name.status();
      if (name->empty()) return Status::Corruption("empty item name");
      Item& item = replica->store_.GetOrCreate(*name);
      if (item.id != i) {
        return Status::Corruption("duplicate item name in snapshot");
      }
      auto value = reader.GetString();
      if (!value.ok()) return value.status();
      item.value = std::move(*value);
      auto deleted = reader.GetU8();
      if (!deleted.ok()) return deleted.status();
      item.deleted = (*deleted != 0);
      auto ivv = DecodeVersionVector(&reader);
      if (!ivv.ok()) return ivv.status();
      if (ivv->size() != *num_nodes) {
        return Status::Corruption("item IVV width mismatch");
      }
      item.ivv = std::move(*ivv);
      auto has_aux = reader.GetU8();
      if (!has_aux.ok()) return has_aux.status();
      if (*has_aux != 0) {
        item.aux = std::make_unique<AuxCopy>();
        auto aux_value = reader.GetString();
        if (!aux_value.ok()) return aux_value.status();
        item.aux->value = std::move(*aux_value);
        auto aux_deleted = reader.GetU8();
        if (!aux_deleted.ok()) return aux_deleted.status();
        item.aux->deleted = (*aux_deleted != 0);
        auto aux_ivv = DecodeVersionVector(&reader);
        if (!aux_ivv.ok()) return aux_ivv.status();
        if (aux_ivv->size() != *num_nodes) {
          return Status::Corruption("aux IVV width mismatch");
        }
        item.aux->ivv = std::move(*aux_ivv);
      }
    }

    for (NodeId k = 0; k < *num_nodes; ++k) {
      auto rec_count = reader.GetVarint64();
      if (!rec_count.ok()) return rec_count.status();
      for (uint64_t i = 0; i < *rec_count; ++i) {
        auto item_id = reader.GetVarint64();
        if (!item_id.ok()) return item_id.status();
        auto seq = reader.GetVarint64();
        if (!seq.ok()) return seq.status();
        if (*item_id >= replica->store_.size()) {
          return Status::Corruption("log record references unknown item");
        }
        if (*seq == 0) {
          return Status::Corruption("log record with sequence number 0");
        }
        const auto id = static_cast<ItemId>(*item_id);
        OriginLog& log = replica->logs_.ForOrigin(k);
        if (log.seq(id) != 0) {
          return Status::Corruption("duplicate log record for item '" +
                                    replica->store_.Get(id).name + "'");
        }
        log.AddLogRecord(id, *seq);
      }
    }

    auto aux_count = reader.GetVarint64();
    if (!aux_count.ok()) return aux_count.status();
    for (uint64_t i = 0; i < *aux_count; ++i) {
      auto item_id = reader.GetVarint64();
      if (!item_id.ok()) return item_id.status();
      if (*item_id >= replica->store_.size()) {
        return Status::Corruption("aux record references unknown item");
      }
      auto vv = DecodeVersionVector(&reader);
      if (!vv.ok()) return vv.status();
      auto op_value = reader.GetString();
      if (!op_value.ok()) return op_value.status();
      auto op_deleted = reader.GetU8();
      if (!op_deleted.ok()) return op_deleted.status();
      replica->aux_log_.Append(
          static_cast<ItemId>(*item_id), *vv,
          UpdateOp{std::move(*op_value), *op_deleted != 0});
    }

    if (!reader.AtEnd()) {
      return Status::Corruption("trailing bytes after snapshot");
    }
    EPI_RETURN_NOT_OK(replica->CheckInvariants());
    return replica;
  }
};

std::string EncodeSnapshot(const Replica& replica) {
  return SnapshotCodec::Encode(replica);
}

Result<std::unique_ptr<Replica>> DecodeSnapshot(std::string_view blob,
                                                ConflictListener* listener) {
  return SnapshotCodec::Decode(blob, listener);
}

Status SaveSnapshot(const Replica& replica, const std::string& path) {
  return WriteFileAtomic(EncodeSnapshot(replica), path);
}

Result<std::unique_ptr<Replica>> LoadSnapshot(const std::string& path,
                                              ConflictListener* listener) {
  auto blob = ReadFileFully(path);
  if (!blob.ok()) return blob.status();
  return DecodeSnapshot(*blob, listener);
}

std::string EncodeShardedSnapshot(const ShardedReplica& replica) {
  ByteWriter w;
  w.PutBytes(kShardedMagic, kMagicLen);
  w.PutVarint64(replica.num_shards());
  for (size_t k = 0; k < replica.num_shards(); ++k) {
    w.PutString(EncodeSnapshot(replica.shard(k)));
  }
  std::string body = w.Release();
  ByteWriter out;
  out.PutBytes(body.data(), body.size());
  out.PutFixed32(Crc32c(body));
  return out.Release();
}

Result<std::unique_ptr<ShardedReplica>> DecodeShardedSnapshot(
    std::string_view blob, ConflictListener* listener) {
  if (blob.size() < kMagicLen + 4 ||
      blob.substr(0, kMagicLen) !=
          std::string_view(kShardedMagic, kMagicLen)) {
    return Status::Corruption("not a sharded epidemic snapshot (bad magic)");
  }
  const std::string_view body = blob.substr(0, blob.size() - 4);
  uint32_t stored_crc;
  {
    ByteReader crc_reader(blob.substr(blob.size() - 4));
    auto crc = crc_reader.GetFixed32();
    if (!crc.ok()) return crc.status();
    stored_crc = *crc;
  }
  if (Crc32c(body) != stored_crc) {
    return Status::Corruption("sharded snapshot checksum mismatch");
  }
  ByteReader reader(body.substr(kMagicLen));

  auto num_shards = reader.GetVarint64();
  if (!num_shards.ok()) return num_shards.status();
  if (*num_shards == 0 || *num_shards > (1u << 16)) {
    return Status::Corruption("implausible shard count");
  }
  std::vector<std::unique_ptr<Replica>> shards;
  shards.reserve(static_cast<size_t>(*num_shards));
  for (uint64_t k = 0; k < *num_shards; ++k) {
    auto shard_blob = reader.GetString();
    if (!shard_blob.ok()) return shard_blob.status();
    auto shard = DecodeSnapshot(*shard_blob, listener);
    if (!shard.ok()) {
      return Status::Corruption("shard " + std::to_string(k) + ": " +
                                shard.status().message());
    }
    shards.push_back(std::move(*shard));
  }
  if (!reader.AtEnd()) {
    return Status::Corruption("trailing bytes after sharded snapshot");
  }
  if (shards.size() > 1) {
    for (uint64_t k = 0; k < shards.size(); ++k) {
      if (shards[k]->id() != shards[0]->id() ||
          shards[k]->num_nodes() != shards[0]->num_nodes()) {
        return Status::Corruption("shards disagree on node identity");
      }
    }
  }
  // Every item must live in the shard the name hash assigns it to —
  // otherwise the snapshot was taken under a different shard count.
  for (uint64_t k = 0; k < shards.size(); ++k) {
    for (const Item& item : shards[k]->items()) {
      if (ShardedReplica::ShardOf(item.name, shards.size()) != k) {
        return Status::Internal("item '" + item.name + "' found in shard " +
                                std::to_string(k) +
                                " but hashes elsewhere; shard count changed?");
      }
    }
  }
  return std::make_unique<ShardedReplica>(std::move(shards));
}

}  // namespace epidemic
