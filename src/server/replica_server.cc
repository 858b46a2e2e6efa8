#include "server/replica_server.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/logging.h"
#include "core/wire.h"
#include "net/codec.h"

namespace epidemic::server {

using net::ClientOobFetchRequest;
using net::ClientReadRequest;
using net::ClientReply;
using net::ClientUpdateRequest;
using net::Message;
using runtime::AssertShardContext;
using runtime::ExclusiveToken;
using runtime::ShardReadCache;
using runtime::ShardToken;
using runtime::TaskKind;

namespace {

std::string EncodeStatusReply(const Status& s, std::string payload = "") {
  ClientReply reply;
  reply.code = static_cast<uint8_t>(s.code());
  // Only the message crosses the wire; the client rebuilds the Status from
  // the code, so no "NotFound: NotFound:" double prefixes.
  reply.payload = s.ok() ? std::move(payload) : s.message();
  return net::Encode(Message(std::move(reply)));
}

/// Converts a decoded ClientReply back into a Status/value pair.
Result<std::string> ReplyToResult(const ClientReply& reply) {
  if (reply.code == 0) return reply.payload;
  return Status(static_cast<StatusCode>(reply.code), reply.payload);
}

Status NotFoundFor(std::string_view item) {
  // Must match Replica::Read's wording: optimistic hits on absent items
  // return exactly what the task path would have.
  return Status::NotFound("no item named '" + std::string(item) + "'");
}

runtime::ShardScheduler::Options SchedulerOptions(size_t num_shards,
                                                  size_t workers,
                                                  size_t read_cache_slots) {
  runtime::ShardScheduler::Options opts;
  opts.num_shards = num_shards;
  opts.workers = workers;
  opts.read_cache_slots = read_cache_slots;
  return opts;
}

}  // namespace

ReplicaServer::ReplicaServer(NodeId id, size_t num_nodes,
                             net::Transport* transport, Options options)
    : id_(id),
      transport_(transport),
      options_(std::move(options)),
      memory_(std::make_unique<ShardedReplica>(
          id, num_nodes, options_.num_shards, &listener_)) {
  sched_ = std::make_unique<runtime::ShardScheduler>(SchedulerOptions(
      memory_->num_shards(), options_.ae_workers, options_.read_cache_slots));
  InitShardList();
  peer_epoch_count_ = num_nodes;
  peer_epoch_ = std::make_unique<std::atomic<uint64_t>[]>(peer_epoch_count_);
}

ReplicaServer::ReplicaServer(std::unique_ptr<JournaledShardedReplica> durable,
                             net::Transport* transport, Options options)
    : id_(durable->view().id()),
      transport_(transport),
      options_(std::move(options)),
      durable_(std::move(durable)) {
  sched_ = std::make_unique<runtime::ShardScheduler>(SchedulerOptions(
      durable_->num_shards(), options_.ae_workers, options_.read_cache_slots));
  InitShardList();
  peer_epoch_count_ = durable_->view().num_nodes();
  peer_epoch_ = std::make_unique<std::atomic<uint64_t>[]>(peer_epoch_count_);
}

ReplicaServer::~ReplicaServer() { Stop(); }

void ReplicaServer::Start() {
  if (options_.anti_entropy_interval_micros <= 0 || options_.peers.empty()) {
    return;
  }
  MutexLock lock(thread_mu_);
  if (started_) return;
  started_ = true;
  stopping_ = false;
  ae_thread_ = std::thread([this] { AntiEntropyLoop(); });
}

void ReplicaServer::Stop() {
  {
    MutexLock lock(thread_mu_);
    if (!started_) return;
    stopping_ = true;
  }
  cv_.notify_all();
  if (ae_thread_.joinable()) ae_thread_.join();
  MutexLock lock(thread_mu_);
  started_ = false;
}

void ReplicaServer::AntiEntropyLoop() {
  size_t next_peer = 0;
  for (;;) {
    {
      // Hand-rolled deadline loop (not the predicate overload) so the
      // guarded read of stopping_ stays visible to the analysis.
      const auto deadline =
          std::chrono::steady_clock::now() +
          std::chrono::microseconds(options_.anti_entropy_interval_micros);
      MutexLock lock(thread_mu_);
      while (!stopping_) {
        if (cv_.wait_until(thread_mu_, deadline) ==
            std::cv_status::timeout) {
          break;
        }
      }
      if (stopping_) return;
    }
    NodeId peer = options_.peers[next_peer];
    next_peer = (next_peer + 1) % options_.peers.size();
    Status s = PullFrom(peer);
    if (!s.ok() && !s.IsUnavailable()) {
      EPI_LOG(kWarning) << "node " << id_ << ": anti-entropy pull from "
                        << peer << " failed: " << s.ToString();
    }
  }
}

void ReplicaServer::ServeShardedPropagation(
    const ShardedPropagationRequest& req, uint64_t epoch,
    std::vector<std::string>* parts) {
  ShardedReplica& rep = sharded();
  const size_t num_shards = rep.num_shards();
  const bool probe = (req.flags & kPropFlagEpochProbe) != 0;
  // parts[0]: the envelope, tag byte included. `epoch` was sampled before
  // any shard serves: a mutation racing with the serve lands with a later
  // epoch, so the requester's next probe mismatches and re-pulls — stale
  // probes are conservative, never lossy (every mutation goes through a
  // mutating task, which is exactly what bumps the epoch).
  ByteWriter env(buffer_pool_.Get());
  env.PutU8(
      static_cast<uint8_t>(net::MessageType::kShardedPropagationResponseV3));
  env.PutU8(probe && req.last_epoch != epoch ? kPropRespFlagResend : 0);
  env.PutVarint64(epoch);
  env.PutVarint64(num_shards);
  parts->clear();
  if (!WantsSegments(req)) {
    // No segments, canonical one-byte count: a matching probe (the O(1)
    // quiescent round), a missed probe (resend), or a topology mismatch,
    // which carries our shard count so the requester rejects it instead
    // of applying garbage.
    env.PutVarint64(0);
    parts->push_back(env.Release());
    return;
  }
  // The segment count precedes the segments but is only known after the
  // serve; reserve a padded-varint slot and patch it in at the end. Same
  // trick for each segment's length prefix (5 bytes covers the 1 GiB
  // segment cap). The decoders read exactly these two fields with the
  // padded getters (GetVarint64Padded/GetStringViewPadded) — every other
  // wire varint is canonical-only.
  const size_t count_pos = env.size();
  env.PutPaddedVarint(0, 3);
  // One anti-entropy round is S tasks fanned out to the shard owners and
  // joined — not S lock acquisitions. Each stale shard encodes its
  // self-contained piece — [shard varint][padded length][body] — into its
  // own pooled slot parts[1 + k] inside its single-writer section (the
  // view borrows the shard's store, so encoding must complete there — the
  // §4.1/§8 discipline the views rely on). The slots are disjoint, so the
  // owners fill them in parallel; a vectored transport then sends the
  // pieces with no stitch copy, and Flatten() reproduces the contiguous
  // frame bytes.
  parts->resize(1 + num_shards);
  sched_->ExecuteBatchIndexed(
      AllShardsList(), TaskKind::kServe, /*mutates=*/false,
      [this, &rep, &req, parts](const ShardToken& token, size_t k) {
        AssertShardContext(token);
        const PropagationResponseView& view = rep.HandleShardPropagationView(
            k, PropagationRequest{req.requester, req.shard_dbvvs[k]});
        if (view.you_are_current) return;
        ByteWriter cw(buffer_pool_.Get());
        cw.PutVarint64(k);
        const size_t len_pos = cw.size();
        cw.PutPaddedVarint(0, 5);
        const size_t body_start = cw.size();
        wire::EncodeShardSegmentBodyV3Into(cw, view, rep.shard(k).dbvv());
        cw.OverwritePaddedVarint(len_pos, cw.size() - body_start, 5);
        (*parts)[1 + k] = cw.Release();
      });
  // Current shards left their slot empty; drop those slots, keeping the
  // stale ones in shard order.
  parts->erase(std::remove_if(parts->begin() + 1, parts->end(),
                              [](const std::string& p) { return p.empty(); }),
               parts->end());
  env.OverwritePaddedVarint(count_pos, parts->size() - 1, 3);
  (*parts)[0] = env.Release();
}

uint64_t ReplicaServer::ServeDigest(const ShardedPropagationRequest& req) {
  // FNV-1a, mixed 64 bits at a time. Collisions only cost correctness of
  // the *hit rate*, never of the data: a colliding digest still has to
  // match the current mutation epoch, and the worst case is replaying a
  // reply built for a different request DBVV — which the accept side
  // treats as ordinary duplicate shipping (idempotent). To keep even that
  // cosmetic risk negligible the full entry stores the digest of record
  // and the slot index is taken from it, so two requests disagree only on
  // a full 64-bit collision.
  uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  mix(req.flags);
  mix(req.shard_dbvvs.size());
  for (const VersionVector& vv : req.shard_dbvvs) {
    mix(vv.size());
    for (NodeId j = 0; j < vv.size(); ++j) mix(vv[j]);
  }
  return h;
}

bool ReplicaServer::LookupServeCache(uint64_t digest, uint64_t epoch,
                                     net::VectoredReply* reply) {
  std::shared_ptr<const CachedServeFrame> entry;
  {
    MutexLock lock(serve_cache_mu_);
    entry = serve_cache_[digest % kServeCacheSlots];
  }
  if (entry == nullptr || entry->digest != digest || entry->epoch != epoch) {
    return false;
  }
  // Aliasing shared_ptr: the reply keeps the whole entry alive but the
  // transport only sees the immutable pieces.
  const std::vector<std::string>* parts = &entry->parts;
  reply->shared =
      std::shared_ptr<const std::vector<std::string>>(std::move(entry), parts);
  return true;
}

void ReplicaServer::InsertServeCache(
    std::shared_ptr<const CachedServeFrame> entry) {
  const size_t slot = entry->digest % kServeCacheSlots;
  MutexLock lock(serve_cache_mu_);
  serve_cache_[slot] = std::move(entry);
}

Status ReplicaServer::AcceptShardedSegments(
    uint32_t num_shards,
    const std::vector<wire::ShardedSegmentView>& segments) {
  ShardedReplica& rep = sharded();
  if (num_shards != rep.num_shards()) {
    return Status::InvalidArgument(
        "peer runs " + std::to_string(num_shards) + " shards, we run " +
        std::to_string(rep.num_shards()));
  }
  for (const wire::ShardedSegmentView& seg : segments) {
    if (seg.shard >= rep.num_shards()) {
      return Status::InvalidArgument("segment shard out of range");
    }
  }
  // Each segment decodes and applies as one task on its shard; the
  // segments name distinct shards (the codec enforces strictly increasing
  // indices), so the tasks share nothing but the join. Segments decode
  // zero-copy: the views (string_views into the segment bytes, IVVs in
  // the per-segment storage) are consumed by the shard's accept inside
  // the task, so nothing outlives its backing.
  std::vector<Status> statuses(segments.size());
  std::vector<wire::SegmentViewStorage> storages(segments.size());
  std::vector<size_t> shards;
  shards.reserve(segments.size());
  for (const wire::ShardedSegmentView& seg : segments) {
    shards.push_back(seg.shard);
  }
  sched_->ExecuteBatchIndexed(
      shards, TaskKind::kAccept, /*mutates=*/true,
      [this, &rep, &segments, &statuses, &storages](const ShardToken& token,
                                                    size_t i) {
        AssertShardContext(token);
        const wire::ShardedSegmentView& seg = segments[i];
        if (durable_ != nullptr) {
          statuses[i] =
              durable_->AcceptShardPropagationSegmentV3(seg.shard, seg.body);
          return;
        }
        PropagationResponseView view;
        Status s =
            wire::DecodeShardSegmentBodyV3(seg.body, &storages[i], &view);
        statuses[i] = s.ok() ? rep.AcceptShardPropagation(seg.shard, view) : s;
      });
  for (const Status& s : statuses) {
    if (!s.ok()) return s;
  }
  return Status::OK();
}

std::string ReplicaServer::HandleRequest(std::string_view request) {
  net::VectoredReply reply;
  HandleRequestV(request, &reply);
  // Flatten reproduces the exact frame bytes a contiguous encoder would
  // have produced, so non-vectored transports (InProc, the simulator) see
  // no difference — and still exercise the serve cache.
  return reply.Flatten();
}

void ReplicaServer::HandleRequestV(std::string_view request,
                                   net::VectoredReply* reply) {
  reply->Recycle();
  // Every non-vectored branch replies as one owned piece.
  const auto respond = [reply](std::string frame) {
    reply->owned.push_back(std::move(frame));
  };
  Result<Message> decoded = net::Decode(request);
  if (!decoded.ok()) return respond(EncodeStatusReply(decoded.status()));
  Message& msg = *decoded;

  if (auto* sharded_req = std::get_if<ShardedPropagationRequest>(&msg)) {
    // Boundary width check: shard DBVVs from the network must match this
    // cluster's node count before they reach the width-EPI_CHECKed
    // VersionVector comparisons. A wrong-width vector is a hostile or
    // misconfigured peer, not a programming error — reply, don't abort.
    // (Epoch probes carry zero shard DBVVs; the loop is vacuous.)
    for (const VersionVector& vv : sharded_req->shard_dbvvs) {
      if (vv.size() != sharded().num_nodes()) {
        return respond(EncodeStatusReply(
            Status::InvalidArgument("shard DBVV of wrong width")));
      }
    }
    // Sample the epoch FIRST: a mutation racing with the serve can only
    // make a later probe or cache lookup mismatch, never produce a stale
    // "current" answer or a stale hit.
    const uint64_t epoch0 = sched_->MutationEpoch();
    if (!WantsSegments(*sharded_req)) {
      // Probe or topology mismatch: a zero-segment envelope, never cached.
      ServeShardedPropagation(*sharded_req, epoch0, &reply->owned);
      reply->recycle_pool = &buffer_pool_;
      return;
    }
    // Fan-out serve cache: a full serve's reply is a pure function of
    // (request flags + shard DBVVs, mutation epoch) — serves are read-only
    // tasks, so they never bump the epoch, and every mutation does. A hit
    // skips the serve entirely, which also skips the §4.1
    // requester-frontier recording the serve would have done — that only
    // *lags* the peer-DBVV frontier (stability detection, Theorem 5), it
    // never affects what is shipped, so it is conservative, and the next
    // miss from that peer catches it up.
    const uint64_t digest = ServeDigest(*sharded_req);
    if (LookupServeCache(digest, epoch0, reply)) {
      // relaxed: monotonic stats counter, read only for reporting.
      serve_cache_hits_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    // relaxed: monotonic stats counter (see above).
    serve_cache_misses_.fetch_add(1, std::memory_order_relaxed);
    auto entry = std::make_shared<CachedServeFrame>();
    entry->digest = digest;
    entry->epoch = epoch0;
    ServeShardedPropagation(*sharded_req, epoch0, &entry->parts);
    if (sched_->MutationEpoch() == epoch0) {
      // No mutating task completed across the serve: the pieces are the
      // epoch0 reply, byte for byte (the epoch is monotonic, so equal
      // endpoints pin every sample in between). Publish for replay.
      const std::vector<std::string>* parts = &entry->parts;
      reply->shared =
          std::shared_ptr<const std::vector<std::string>>(entry, parts);
      InsertServeCache(std::move(entry));
    } else {
      // A mutation raced the serve; the reply is still a correct snapshot
      // to send once, but caching it under epoch0 would be wrong and under
      // the new epoch unverifiable. Send and recycle.
      reply->owned = std::move(entry->parts);
      reply->recycle_pool = &buffer_pool_;
    }
    return;
  }
  if (auto* oob_req = std::get_if<OobRequest>(&msg)) {
    const size_t k = sharded().ShardOf(oob_req->item_name);
    std::string frame;
    sched_->Execute(k, TaskKind::kServe, /*mutates=*/false,
                    [this, oob_req, &frame](const ShardToken& token) {
                      AssertShardContext(token);
                      frame = net::Encode(
                          Message(sharded().HandleOobRequest(*oob_req)));
                    });
    return respond(std::move(frame));
  }
  if (auto* update = std::get_if<ClientUpdateRequest>(&msg)) {
    return respond(EncodeStatusReply(Update(update->item_name, update->value)));
  }
  if (auto* del = std::get_if<net::ClientDeleteRequest>(&msg)) {
    return respond(EncodeStatusReply(Delete(del->item_name)));
  }
  if (auto* read = std::get_if<ClientReadRequest>(&msg)) {
    Result<std::string> value = Read(read->item_name);
    if (!value.ok()) return respond(EncodeStatusReply(value.status()));
    return respond(EncodeStatusReply(Status::OK(), std::move(*value)));
  }
  if (std::get_if<net::ClientStatsRequest>(&msg) != nullptr) {
    return respond(EncodeStatusReply(Status::OK(), Stats()));
  }
  if (std::get_if<net::ClientResetStatsRequest>(&msg) != nullptr) {
    return respond(EncodeStatusReply(Status::OK(), Stats(/*reset=*/true)));
  }
  if (auto* scan = std::get_if<net::ClientScanRequest>(&msg)) {
    auto items = Scan(scan->prefix, static_cast<size_t>(scan->limit));
    return respond(
        EncodeStatusReply(Status::OK(), net::EncodeScanListing(items)));
  }
  if (auto* sync = std::get_if<net::ClientSyncRequest>(&msg)) {
    if (sync->peer == id_) {
      return respond(
          EncodeStatusReply(Status::InvalidArgument("cannot self-sync")));
    }
    return respond(EncodeStatusReply(PullFrom(sync->peer)));
  }
  if (std::get_if<net::ClientCheckpointRequest>(&msg) != nullptr) {
    return respond(EncodeStatusReply(Checkpoint()));
  }
  if (auto* fetch = std::get_if<ClientOobFetchRequest>(&msg)) {
    Status s = OobFetch(fetch->from_peer, fetch->item_name);
    if (!s.ok()) return respond(EncodeStatusReply(s));
    Result<std::string> value = Read(fetch->item_name);
    if (!value.ok()) return respond(EncodeStatusReply(value.status()));
    return respond(EncodeStatusReply(Status::OK(), std::move(*value)));
  }
  respond(EncodeStatusReply(
      Status::InvalidArgument("message type not servable")));
}

Status ReplicaServer::Update(std::string_view item, std::string_view value) {
  const size_t k = sharded().ShardOf(item);
  Status status;
  sched_->Execute(k, TaskKind::kLocalUpdate, /*mutates=*/true,
                  [this, item, value, &status](const ShardToken& token) {
                    AssertShardContext(token);
                    status = durable_ != nullptr
                                 ? durable_->Update(item, value)
                                 : memory_->Update(item, value);
                  });
  return status;
}

Status ReplicaServer::Delete(std::string_view item) {
  const size_t k = sharded().ShardOf(item);
  Status status;
  sched_->Execute(k, TaskKind::kLocalUpdate, /*mutates=*/true,
                  [this, item, &status](const ShardToken& token) {
                    AssertShardContext(token);
                    status = durable_ != nullptr ? durable_->Delete(item)
                                                 : memory_->Delete(item);
                  });
  return status;
}

Result<std::string> ReplicaServer::Read(std::string_view item) {
  const size_t k = sharded().ShardOf(item);

  // Optimistic lock-free path: a version sample, a cache probe, and a
  // re-validation — no gate, no task, no queue. Any mutating task on the
  // shard bumps the version and sends us to the fallback below.
  ShardReadCache* cache = sched_->read_cache(k);
  if (cache != nullptr) {
    const uint64_t sample = sched_->ReadVersion(k);
    std::string value;
    const ShardReadCache::Outcome outcome = cache->Lookup(item, sample, &value);
    if (outcome != ShardReadCache::Outcome::kMiss &&
        sched_->ValidateVersion(k, sample)) {
      // relaxed: monotonic stats counter, read only for reporting.
      optimistic_read_hits_.fetch_add(1, std::memory_order_relaxed);
      if (outcome == ShardReadCache::Outcome::kAbsent) return NotFoundFor(item);
      return value;
    }
  }

  // Fallback: read inside the shard's section and publish the result for
  // the next optimistic reader at the version current while we hold it.
  Result<std::string> result = Status::Internal("read task did not run");
  sched_->Execute(k, TaskKind::kRead, /*mutates=*/false,
                  [this, item, cache, &result](const ShardToken& token) {
                    AssertShardContext(token);
                    result = sharded().Read(item);
                    if (cache == nullptr) return;
                    const uint64_t version = sched_->CurrentVersion(token);
                    if (result.ok()) {
                      cache->Publish(item, *result, /*absent=*/false, version);
                    } else if (result.status().IsNotFound()) {
                      cache->Publish(item, {}, /*absent=*/true, version);
                    }
                  });
  return result;
}

Status ReplicaServer::ResolveConflict(std::string_view item,
                                      const VersionVector& remote_vv,
                                      std::string_view value) {
  const size_t k = sharded().ShardOf(item);
  Status status;
  sched_->Execute(k, TaskKind::kLocalUpdate, /*mutates=*/true,
                  [this, item, &remote_vv, value,
                   &status](const ShardToken& token) {
                    AssertShardContext(token);
                    status = durable_ != nullptr
                                 ? durable_->ResolveConflict(item, remote_vv,
                                                             value)
                                 : memory_->ResolveConflict(item, remote_vv,
                                                            value);
                  });
  return status;
}

std::vector<std::pair<std::string, std::string>> ReplicaServer::Scan(
    std::string_view prefix, size_t limit) const {
  // One shard at a time: a scan is a convenience listing, not a consistent
  // whole-database snapshot, so it does not stall writers on all shards.
  std::vector<std::pair<std::string, std::string>> out;
  const ShardedReplica& rep = sharded();
  for (size_t k = 0; k < rep.num_shards(); ++k) {
    sched_->Execute(k, TaskKind::kSnapshot, /*mutates=*/false,
                    [&rep, &out, prefix, k](const ShardToken&) {
                      auto part = rep.shard(k).Scan(prefix, /*limit=*/0);
                      out.insert(out.end(),
                                 std::make_move_iterator(part.begin()),
                                 std::make_move_iterator(part.end()));
                    });
  }
  std::sort(out.begin(), out.end());
  if (limit > 0 && out.size() > limit) out.resize(limit);
  return out;
}

void ReplicaServer::AppendSchedulerSummary(std::string* out,
                                           bool reset) const {
  const runtime::SchedulerStats s = sched_->Stats(reset);
  // relaxed: monotonic stats counter folded into a report; a hit racing the
  // read lands in this report or the next, both acceptable.
  const uint64_t opt_read_hits =
      reset ? optimistic_read_hits_.exchange(0, std::memory_order_relaxed)
            : optimistic_read_hits_.load(std::memory_order_relaxed);
  out->append("\nsched: tasks=" + std::to_string(s.TotalTasks()) +
              " inline=" + std::to_string(s.inline_tasks) +
              " fast_path=" + std::to_string(s.fast_path_runs) +
              " barriers=" + std::to_string(s.exclusive_barriers) +
              " queue_peak=" + std::to_string(s.queue_depth_peak) +
              " opt_read_hits=" + std::to_string(opt_read_hits));
  for (size_t w = 0; w < s.workers.size(); ++w) {
    out->append(" w" + std::to_string(w) + "=" +
                std::to_string(s.workers[w].tasks_executed) + "/" +
                std::to_string(s.workers[w].queue_depth_peak));
  }
}

void ReplicaServer::AppendNetSummary(std::string* out, bool reset) const {
  const net::TransportStats t = transport_->Stats(reset);
  out->append("\nnet: calls=" + std::to_string(t.calls) +
              " opened=" + std::to_string(t.connections_opened) +
              " reused=" + std::to_string(t.connections_reused) +
              " reconnects=" + std::to_string(t.reconnects) +
              " backoff_skips=" + std::to_string(t.backoff_skips) +
              " bytes_sent=" + std::to_string(t.bytes_sent) +
              " bytes_received=" + std::to_string(t.bytes_received));
  // relaxed: monotonic stats counters folded into a report; an event racing
  // the read lands in this report or the next, both acceptable.
  const auto take = [reset](std::atomic<uint64_t>& c) {
    return reset ? c.exchange(0, std::memory_order_relaxed)
                 : c.load(std::memory_order_relaxed);
  };
  out->append("\nserve_cache: hits=" + std::to_string(take(serve_cache_hits_)) +
              " misses=" + std::to_string(take(serve_cache_misses_)));
}

std::string ReplicaServer::Stats(bool reset) {
  ShardedReplica& rep = sharded();
  std::string summary;
  // The shard counters are read and zeroed inside one cross-shard barrier,
  // so no shard task falls between the two. The counters outside the
  // shards are each taken once, by a load or by an exchange with zero.
  sched_->ExecuteExclusive(
      /*mutates=*/false, [&rep, &summary, reset](const ExclusiveToken& token) {
        AssertShardContext(token);
        summary = rep.DebugString();
        if (reset) rep.ResetStats();
      });
  AppendSchedulerSummary(&summary, reset);
  AppendNetSummary(&summary, reset);
  return summary;
}

ReplicaStats ReplicaServer::TotalStats() {
  ShardedReplica& rep = sharded();
  ReplicaStats total;
  sched_->ExecuteExclusive(
      /*mutates=*/false, [&rep, &total](const ExclusiveToken& token) {
        AssertShardContext(token);
        total = rep.TotalStats();
      });
  // Optimistic read hits never entered a shard section, so the per-shard
  // counters cannot have seen them.
  // relaxed: monotonic stats counter folded into a report; a hit racing
  // the load lands in this report or the next, both acceptable.
  total.reads += optimistic_read_hits_.load(std::memory_order_relaxed);
  return total;
}

Status ReplicaServer::PullFrom(NodeId peer) {
  // Snapshot the per-shard DBVV handshake as one scheduler batch, release
  // everything for the RPC, and merge the response per shard. Shards
  // mutated between build and accept (by a concurrent pull, say) simply
  // make the peer ship a little extra; AcceptPropagation skips re-shipped
  // records it already holds.
  ShardedReplica& rep = sharded();
  const size_t num_shards = rep.num_shards();
  ShardedPropagationRequest req;
  req.requester = id_;
  const auto snapshot_dbvvs = [this, &rep, &req, num_shards] {
    req.shard_dbvvs.resize(num_shards);
    sched_->ExecuteBatchIndexed(AllShardsList(), TaskKind::kSnapshot,
                                /*mutates=*/false,
                                [&rep, &req](const ShardToken& token,
                                             size_t k) {
                                  AssertShardContext(token);
                                  req.shard_dbvvs[k] = rep.shard(k).dbvv();
                                });
  };
  // Probe first when this peer's mutation epoch is cached from a previous
  // completed pull: if the source is unchanged, the round is O(1) — no
  // DBVV snapshots built, shipped, or compared. A changed source costs
  // one extra (tiny) round trip before the full handshake.
  // relaxed: conservative epoch cache; a stale epoch makes the probe miss
  // and fall back to the full handshake — never lossy.
  const uint64_t cached_epoch =
      peer < peer_epoch_count_
          ? peer_epoch_[peer].load(std::memory_order_relaxed)
          : 0;
  bool probing = cached_epoch != 0;
  if (probing) {
    req.flags = kPropFlagEpochProbe;
    req.last_epoch = cached_epoch;
  } else {
    snapshot_dbvvs();
  }
  // Response frames land in a pooled buffer reused across pulls (and
  // across the probe→resend retry inside this call) through CallInto, so
  // the steady-state round never allocates a fresh frame-sized string per
  // round trip. The zero-copy accept below borrows views into it; the
  // buffer outlives them (returned to the pool only at scope exit).
  PooledBuffer wire(&buffer_pool_);
  for (;;) {
    Status call_status =
        transport_->CallInto(peer, net::Encode(Message(req)), &*wire);
    if (!call_status.ok()) return call_status;
    if (wire->empty() ||
        static_cast<uint8_t>((*wire)[0]) !=
            static_cast<uint8_t>(
                net::MessageType::kShardedPropagationResponseV3)) {
      // Not a propagation reply. An error ClientReply is the peer refusing
      // the handshake (a shard DBVV of the wrong width, say): return its
      // status as is.
      Result<Message> decoded = net::Decode(*wire);
      if (!decoded.ok()) return decoded.status();
      const auto* refusal = std::get_if<ClientReply>(&*decoded);
      if (refusal != nullptr && refusal->code != 0) {
        return ReplyToResult(*refusal).status();
      }
      return Status::Corruption("peer sent a non-propagation reply");
    }
    // Decode the envelope as views into the received frame (`*wire`
    // outlives the accept below), so the segment bodies — the bulk of the
    // frame — are never copied out of it.
    ByteReader reader(std::string_view(*wire).substr(1));
    wire::ShardedResponseEnvelopeView env;
    EPI_RETURN_NOT_OK(
        wire::DecodeShardedPropagationResponseEnvelopeV3(reader, &env));
    if (!reader.AtEnd()) {
      return Status::Corruption("trailing bytes after message body");
    }
    if (env.resend_requested()) {
      // Only a probe can miss; a resend answering the full handshake would
      // loop forever.
      if (!probing) return Status::Corruption("resend reply to a handshake");
      // Probe missed: repeat the round as the full per-shard handshake.
      probing = false;
      req.flags = 0;
      req.last_epoch = 0;
      snapshot_dbvvs();
      continue;
    }
    if (probing) return Status::OK();  // current by epoch; nothing to apply
    Status s = AcceptShardedSegments(env.num_shards, env.segments);
    if (s.ok() && env.epoch != 0 && peer < peer_epoch_count_) {
      // relaxed: conservative epoch cache; stale probes re-pull.
      peer_epoch_[peer].store(env.epoch, std::memory_order_relaxed);
    }
    return s;
  }
}

Status ReplicaServer::OobFetch(NodeId peer, std::string_view item) {
  const size_t k = sharded().ShardOf(item);
  OobRequest req;
  sched_->Execute(k, TaskKind::kSnapshot, /*mutates=*/false,
                  [this, item, &req](const ShardToken&) {
                    req = sharded().BuildOobRequest(item);
                  });
  Result<std::string> wire =
      transport_->Call(peer, net::Encode(Message(std::move(req))));
  if (!wire.ok()) return wire.status();
  Result<Message> decoded = net::Decode(*wire);
  if (!decoded.ok()) return decoded.status();
  auto* resp = std::get_if<OobResponse>(&*decoded);
  if (resp == nullptr) {
    return Status::Corruption("peer sent a non-OOB reply");
  }
  Status status;
  sched_->Execute(k, TaskKind::kAccept, /*mutates=*/true,
                  [this, resp, &status](const ShardToken& token) {
                    AssertShardContext(token);
                    status = durable_ != nullptr
                                 ? durable_->AcceptOobResponse(*resp)
                                 : memory_->AcceptOobResponse(*resp);
                  });
  return status;
}

void ReplicaServer::WithReplica(
    const std::function<void(const ShardedReplica&)>& fn) const {
  const ShardedReplica& rep = sharded();
  sched_->ExecuteExclusive(/*mutates=*/false,
                           [&rep, &fn](const ExclusiveToken&) { fn(rep); });
}

Status ReplicaServer::Checkpoint() {
  if (durable_ == nullptr) {
    return Status::FailedPrecondition("server runs in-memory");
  }
  // Shard by shard: each checkpoint is internally consistent (it is one
  // shard's whole protocol state), so no global barrier is needed.
  Status first_error = Status::OK();
  for (size_t k = 0; k < durable_->num_shards(); ++k) {
    sched_->Execute(k, TaskKind::kSnapshot, /*mutates=*/false,
                    [this, k, &first_error](const ShardToken& token) {
                      AssertShardContext(token);
                      Status s = durable_->CheckpointShard(k);
                      if (!s.ok() && first_error.ok()) first_error = s;
                    });
  }
  return first_error;
}

uint64_t ReplicaServer::conflicts_detected() const {
  const ShardedReplica& rep = sharded();
  uint64_t total = 0;
  for (size_t k = 0; k < rep.num_shards(); ++k) {
    sched_->Execute(k, TaskKind::kStats, /*mutates=*/false,
                    [&rep, &total, k](const ShardToken&) {
                      total += rep.shard(k).stats().conflicts_detected;
                    });
  }
  return total;
}

// ---------------------------------------------------------------------------
// ReplicaClient.

namespace {
Result<std::string> CallForReply(net::Transport* transport, NodeId server,
                                 Message msg) {
  Result<std::string> wire = transport->Call(server, net::Encode(msg));
  if (!wire.ok()) return wire.status();
  Result<Message> decoded = net::Decode(*wire);
  if (!decoded.ok()) return decoded.status();
  auto* reply = std::get_if<ClientReply>(&*decoded);
  if (reply == nullptr) return Status::Corruption("expected a client reply");
  return ReplyToResult(*reply);
}
}  // namespace

Status ReplicaClient::Update(std::string_view item, std::string_view value) {
  Result<std::string> r = CallForReply(
      transport_, server_,
      Message(ClientUpdateRequest{std::string(item), std::string(value)}));
  return r.status();
}

Status ReplicaClient::Delete(std::string_view item) {
  Result<std::string> r =
      CallForReply(transport_, server_,
                   Message(net::ClientDeleteRequest{std::string(item)}));
  return r.status();
}

Result<std::string> ReplicaClient::Read(std::string_view item) {
  return CallForReply(transport_, server_,
                      Message(ClientReadRequest{std::string(item)}));
}

Result<std::string> ReplicaClient::OobRead(NodeId from_peer,
                                           std::string_view item) {
  return CallForReply(
      transport_, server_,
      Message(ClientOobFetchRequest{from_peer, std::string(item)}));
}

Result<std::vector<std::pair<std::string, std::string>>> ReplicaClient::Scan(
    std::string_view prefix, uint64_t limit) {
  Result<std::string> payload = CallForReply(
      transport_, server_,
      Message(net::ClientScanRequest{std::string(prefix), limit}));
  if (!payload.ok()) return payload.status();
  return net::DecodeScanListing(*payload);
}

Result<std::string> ReplicaClient::Stats() {
  return CallForReply(transport_, server_,
                      Message(net::ClientStatsRequest{}));
}

Result<std::string> ReplicaClient::ResetStats() {
  return CallForReply(transport_, server_,
                      Message(net::ClientResetStatsRequest{}));
}

Status ReplicaClient::TriggerSync(NodeId peer) {
  return CallForReply(transport_, server_,
                      Message(net::ClientSyncRequest{peer}))
      .status();
}

Status ReplicaClient::TriggerCheckpoint() {
  return CallForReply(transport_, server_,
                      Message(net::ClientCheckpointRequest{}))
      .status();
}

}  // namespace epidemic::server
