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

std::unique_ptr<runtime::ShardScheduler> MakeScheduler(size_t num_shards,
                                                       size_t workers) {
  runtime::ShardScheduler::Options opts;
  opts.num_shards = num_shards;
  opts.workers = workers;
  return std::make_unique<runtime::ShardScheduler>(opts);
}

}  // namespace

ReplicaServer::ReplicaServer(NodeId id, size_t num_nodes,
                             net::Transport* transport, Options options)
    : ReplicaServer(std::make_unique<ShardedReplica>(
                        id, num_nodes, options.num_shards, &listener_),
                    transport, options) {}

ReplicaServer::ReplicaServer(std::unique_ptr<ShardedReplica> replica,
                             net::Transport* transport, Options options)
    : id_(replica->id()),
      transport_(transport),
      options_(std::move(options)),
      replica_(std::move(replica)),
      sched_(MakeScheduler(replica_->num_shards(), options_.ae_workers)),
      exchange_(*replica_, *sched_, buffer_pool_),
      peer_epoch_(std::make_unique<std::atomic<uint64_t>[]>(
          replica_->num_nodes())),
      peer_epoch_count_(replica_->num_nodes()) {}

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
      if (vv.size() != replica_->num_nodes()) {
        return respond(EncodeStatusReply(
            Status::InvalidArgument("shard DBVV of wrong width")));
      }
    }
    // Sample the epoch FIRST: a mutation racing with the serve can only
    // make a later probe or cache lookup mismatch, never produce a stale
    // "current" answer or a stale hit.
    const uint64_t epoch0 = sched_->MutationEpoch();
    if (!exchange_.WantsSegments(*sharded_req)) {
      // Probe or topology mismatch: a zero-segment envelope, never cached.
      exchange_.Serve(*sharded_req, epoch0, &reply->owned);
      reply->recycle_pool = &buffer_pool_;
      return;
    }
    // Fan-out serve cache: a complete serve's reply is a pure function of
    // (request flags + shard DBVVs, mutation epoch) — serves are read-only
    // tasks, so they never bump the epoch, and every mutation does (a
    // partial reply also depends on where the serve started, and is never
    // cached). A hit
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
    const bool partial = exchange_.Serve(*sharded_req, epoch0, &entry->parts);
    if (!partial && sched_->MutationEpoch() == epoch0) {
      // No mutating task completed across the serve: the pieces are the
      // epoch0 reply, byte for byte (the epoch is monotonic, so equal
      // endpoints pin every sample in between). Publish for replay.
      const std::vector<std::string>* parts = &entry->parts;
      reply->shared =
          std::shared_ptr<const std::vector<std::string>>(entry, parts);
      InsertServeCache(std::move(entry));
    } else {
      // A mutation raced the serve, or the reply is partial. Either is a
      // correct reply to send once. Caching the first under epoch0 would
      // be wrong and under the new epoch unverifiable. Caching partial
      // replies would pin every step of a catch-up here: the steps share
      // one epoch and differ in digest, so they would fill the slots with
      // up to a budget each. Send and recycle.
      reply->owned = std::move(entry->parts);
      reply->recycle_pool = &buffer_pool_;
    }
    return;
  }
  if (auto* oob_req = std::get_if<OobRequest>(&msg)) {
    return respond(exchange_.ServeOobFrame(*oob_req));
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
  Status status;
  sched_->Execute(replica_->ShardOf(item), TaskKind::kLocalUpdate,
                  /*mutates=*/true,
                  [this, item, value, &status](const ShardToken& token) {
                    AssertShardContext(token);
                    status = replica_->Update(item, value);
                  });
  return status;
}

Status ReplicaServer::Delete(std::string_view item) {
  Status status;
  sched_->Execute(replica_->ShardOf(item), TaskKind::kLocalUpdate,
                  /*mutates=*/true,
                  [this, item, &status](const ShardToken& token) {
                    AssertShardContext(token);
                    status = replica_->Delete(item);
                  });
  return status;
}

Result<std::string> ReplicaServer::Read(std::string_view item) {
  Result<std::string> result = Status::Internal("read task did not run");
  sched_->Execute(replica_->ShardOf(item), TaskKind::kRead,
                  /*mutates=*/false,
                  [this, item, &result](const ShardToken& token) {
                    AssertShardContext(token);
                    result = replica_->Read(item);
                  });
  return result;
}

Status ReplicaServer::ResolveConflict(std::string_view item,
                                      const VersionVector& remote_vv,
                                      std::string_view value) {
  Status status;
  sched_->Execute(replica_->ShardOf(item), TaskKind::kLocalUpdate,
                  /*mutates=*/true,
                  [this, item, &remote_vv, value,
                   &status](const ShardToken& token) {
                    AssertShardContext(token);
                    status = replica_->ResolveConflict(item, remote_vv, value);
                  });
  return status;
}

std::vector<std::pair<std::string, std::string>> ReplicaServer::Scan(
    std::string_view prefix, size_t limit) const {
  // One shard at a time: a scan is a convenience listing, not a consistent
  // whole-database snapshot, so it does not stall writers on all shards.
  std::vector<std::pair<std::string, std::string>> out;
  const ShardedReplica& rep = *replica_;
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
  // Every read is a shard task, so opt_read_hits is always 0. The key is
  // kept only because perfbench/src/cluster.cc parses it.
  out->append("\nsched: tasks=" + std::to_string(s.TotalTasks()) +
              " inline=" + std::to_string(s.inline_tasks) +
              " fast_path=" + std::to_string(s.fast_path_runs) +
              " barriers=" + std::to_string(s.exclusive_barriers) +
              " queue_peak=" + std::to_string(s.queue_depth_peak) +
              " opt_read_hits=0");
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
  ShardedReplica& rep = *replica_;
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
  ShardedReplica& rep = *replica_;
  ReplicaStats total;
  sched_->ExecuteExclusive(
      /*mutates=*/false, [&rep, &total](const ExclusiveToken& token) {
        AssertShardContext(token);
        total = rep.TotalStats();
      });
  return total;
}

Status ReplicaServer::PullFrom(NodeId peer) {
  // Snapshot the per-shard DBVV handshake as one scheduler batch, release
  // everything for the RPC, and merge the response per shard. Shards
  // mutated between build and accept (by a concurrent pull, say) simply
  // make the peer ship a little extra; AcceptPropagation skips re-shipped
  // records it already holds.
  ShardedPropagationRequest req;
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
    req.requester = id_;
    req.flags = kPropFlagEpochProbe;
    req.last_epoch = cached_epoch;
  } else {
    req = exchange_.Handshake();
  }
  // Response frames land in a pooled buffer reused across pulls (and
  // across the round trips inside this call) through CallInto, so the
  // steady-state round never allocates a fresh frame-sized string per
  // round trip. The zero-copy accept below borrows views into it; the
  // buffer outlives them (returned to the pool only at scope exit).
  PooledBuffer wire(&buffer_pool_);
  // A partial reply stopped at the source's serve budget; each one is
  // followed at once by a fresh handshake for the shards it left out. An
  // honest source needs at most S continuations (each reply ships at
  // least one stale shard), unless it keeps writing into shards it has
  // already shipped; past that the pull gives up, so a lying source costs
  // S + 1 handshakes, not a loop, and the next round starts afresh.
  size_t continuations = 0;
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
    wire::ShardedResponseEnvelopeView env;
    EPI_RETURN_NOT_OK(DecodeReplyFrame(*wire, &env));
    if (env.resend_requested()) {
      // Only a probe can miss; a resend answering the full handshake would
      // loop forever.
      if (!probing) return Status::Corruption("resend reply to a handshake");
      // Probe missed: repeat the round as the full per-shard handshake.
      probing = false;
      req = exchange_.Handshake();
      continue;
    }
    if (probing) return Status::OK();  // current by epoch; nothing to apply
    EPI_RETURN_NOT_OK(exchange_.Accept(env.num_shards, env.segments));
    if (!env.partial()) {
      // The reply compared every shard against the latest handshake, so
      // its epoch vouches for the whole database. A partial one does not.
      if (env.epoch != 0 && peer < peer_epoch_count_) {
        // relaxed: conservative epoch cache; stale probes re-pull.
        peer_epoch_[peer].store(env.epoch, std::memory_order_relaxed);
      }
      return Status::OK();
    }
    if (continuations == replica_->num_shards()) {
      return Status::Unavailable(
          "peer " + std::to_string(peer) + " still partial after " +
          std::to_string(continuations) + " continuations");
    }
    ++continuations;
    req = exchange_.Handshake();
  }
}

Status ReplicaServer::OobFetch(NodeId peer, std::string_view item) {
  Result<std::string> wire = transport_->Call(
      peer, net::Encode(Message(exchange_.OobRequestFor(item))));
  if (!wire.ok()) return wire.status();
  return exchange_.AcceptOobFrame(*wire);
}

void ReplicaServer::WithReplica(
    const std::function<void(const ShardedReplica&)>& fn) const {
  const ShardedReplica& rep = *replica_;
  sched_->ExecuteExclusive(/*mutates=*/false,
                           [&rep, &fn](const ExclusiveToken&) { fn(rep); });
}

Status ReplicaServer::Checkpoint() {
  // Shard by shard: each checkpoint is internally consistent (it is one
  // shard's whole protocol state), so no global barrier is needed. A shard
  // without a journal answers FailedPrecondition.
  Status first_error = Status::OK();
  for (size_t k = 0; k < replica_->num_shards(); ++k) {
    sched_->Execute(k, TaskKind::kSnapshot, /*mutates=*/false,
                    [this, k, &first_error](const ShardToken& token) {
                      AssertShardContext(token);
                      Status s = replica_->shard(k).Checkpoint();
                      if (!s.ok() && first_error.ok()) first_error = s;
                    });
  }
  return first_error;
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
