#include "server/sharded_exchange.h"

#include <algorithm>

#include "common/bytes.h"
#include "net/codec.h"
#include "net/transport.h"

namespace epidemic::server {

using runtime::AssertShardContext;
using runtime::ShardToken;
using runtime::TaskKind;

namespace {

std::vector<size_t> ShardList(size_t num_shards) {
  std::vector<size_t> shards(num_shards);
  for (size_t k = 0; k < num_shards; ++k) shards[k] = k;
  return shards;
}

std::unique_ptr<runtime::ShardScheduler> InlineScheduler(size_t num_shards) {
  runtime::ShardScheduler::Options opts;
  opts.num_shards = num_shards;
  opts.workers = 0;
  // Driven from one thread, an inline scheduler runs every task before the
  // call returns and never queues one, so its channels stay empty: take the
  // smallest (the queue rounds up to two cells) rather than initialise 256
  // cells per shard for every exchange the model checker restores.
  opts.channel_capacity = 1;
  return std::make_unique<runtime::ShardScheduler>(opts);
}

}  // namespace

ShardedExchange::ShardedExchange(ShardedReplica& replica,
                                 runtime::ShardScheduler& sched,
                                 BufferPool& pool)
    : replica_(replica),
      sched_(sched),
      pool_(pool),
      all_shards_(ShardList(sched.num_shards())) {}

ShardedExchange::ShardedExchange(ShardedReplica& replica, BufferPool& pool)
    : replica_(replica),
      owned_sched_(InlineScheduler(replica.num_shards())),
      sched_(*owned_sched_),
      pool_(pool),
      all_shards_(ShardList(replica.num_shards())) {}

ShardedPropagationRequest ShardedExchange::Handshake() {
  ShardedReplica& rep = replica_;
  ShardedPropagationRequest req;
  req.requester = rep.id();
  req.shard_dbvvs.resize(rep.num_shards());
  sched_.ExecuteBatchIndexed(all_shards_, TaskKind::kSnapshot,
                             /*mutates=*/false,
                             [&rep, &req](const ShardToken& token, size_t k) {
                               AssertShardContext(token);
                               req.shard_dbvvs[k] = rep.shard(k).dbvv();
                             });
  return req;
}

void ShardedExchange::Serve(const ShardedPropagationRequest& req,
                            uint64_t epoch, std::vector<std::string>* parts) {
  ShardedReplica& rep = replica_;
  const size_t num_shards = rep.num_shards();
  const bool probe = (req.flags & kPropFlagEpochProbe) != 0;
  // parts[0]: the envelope, tag byte included. `epoch` was sampled before
  // any shard serves: a mutation racing with the serve lands with a later
  // epoch, so the requester's next probe mismatches and re-pulls — stale
  // probes are conservative, never lossy (every mutation goes through a
  // mutating task, which is exactly what bumps the epoch).
  ByteWriter env(pool_.Get());
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
  // pieces with no stitch copy, and their concatenation is the contiguous
  // frame.
  parts->resize(1 + num_shards);
  sched_.ExecuteBatchIndexed(
      all_shards_, TaskKind::kServe, /*mutates=*/false,
      [this, &rep, &req, parts](const ShardToken& token, size_t k) {
        AssertShardContext(token);
        const PropagationResponseView& view = rep.HandleShardPropagationView(
            k, PropagationRequest{req.requester, req.shard_dbvvs[k]});
        if (view.you_are_current) return;
        ByteWriter cw(pool_.Get());
        cw.PutVarint64(k);
        const size_t len_pos = cw.size();
        cw.PutPaddedVarint(0, 5);
        const size_t body_start = cw.size();
        // The delta base is this shard's DBVV: §4.1 gives ivv(x)[j] ≤ V[j]
        // for every item in the shard, so complement deltas never
        // underflow.
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

std::string ShardedExchange::ServeFrame(const ShardedPropagationRequest& req) {
  // The same flatten-and-recycle a non-vectored ReplicaServer::HandleRequest
  // runs on an uncached serve.
  net::VectoredReply reply;
  Serve(req, sched_.MutationEpoch(), &reply.owned);
  reply.recycle_pool = &pool_;
  return reply.Flatten();
}

Status ShardedExchange::Accept(
    uint32_t num_shards,
    const std::vector<wire::ShardedSegmentView>& segments) {
  ShardedReplica& rep = replica_;
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
  // storage local to the task) are consumed by the shard's accept inside
  // the task, so nothing outlives its backing.
  std::vector<Status> statuses(segments.size());
  std::vector<size_t> shards;
  shards.reserve(segments.size());
  for (const wire::ShardedSegmentView& seg : segments) {
    shards.push_back(seg.shard);
  }
  sched_.ExecuteBatchIndexed(
      shards, TaskKind::kAccept, /*mutates=*/true,
      [&rep, &segments, &statuses](const ShardToken& token, size_t i) {
        AssertShardContext(token);
        statuses[i] = rep.AcceptShardPropagationSegmentV3(segments[i].shard,
                                                          segments[i].body);
      });
  for (const Status& s : statuses) {
    if (!s.ok()) return s;
  }
  return Status::OK();
}

Status ShardedExchange::AcceptFrame(std::string_view frame) {
  wire::ShardedResponseEnvelopeView env;
  EPI_RETURN_NOT_OK(DecodeReplyFrame(frame, &env));
  return Accept(env.num_shards, env.segments);
}

OobRequest ShardedExchange::OobRequestFor(std::string_view item) {
  OobRequest req;
  sched_.Execute(replica_.ShardOf(item), TaskKind::kSnapshot,
                 /*mutates=*/false, [this, item, &req](const ShardToken&) {
                   req = replica_.BuildOobRequest(item);
                 });
  return req;
}

std::string ShardedExchange::ServeOobFrame(const OobRequest& req) {
  std::string frame;
  sched_.Execute(replica_.ShardOf(req.item_name), TaskKind::kServe,
                 /*mutates=*/false,
                 [this, &req, &frame](const ShardToken& token) {
                   AssertShardContext(token);
                   frame = net::Encode(
                       net::Message(replica_.HandleOobRequest(req)));
                 });
  return frame;
}

Status ShardedExchange::AcceptOobFrame(std::string_view frame) {
  Result<net::Message> decoded = net::Decode(frame);
  if (!decoded.ok()) return decoded.status();
  const auto* resp = std::get_if<OobResponse>(&*decoded);
  if (resp == nullptr) return Status::Corruption("peer sent a non-OOB reply");
  // The task runs on the shard the accept routes to: the reply's item,
  // whatever the request named.
  Status status;
  sched_.Execute(replica_.ShardOf(resp->item_name), TaskKind::kAccept,
                 /*mutates=*/true,
                 [this, resp, &status](const ShardToken& token) {
                   AssertShardContext(token);
                   status = replica_.AcceptOobResponse(*resp);
                 });
  return status;
}

Status DecodeReplyFrame(std::string_view frame,
                        wire::ShardedResponseEnvelopeView* env) {
  if (frame.empty() ||
      static_cast<uint8_t>(frame[0]) !=
          static_cast<uint8_t>(
              net::MessageType::kShardedPropagationResponseV3)) {
    return Status::Corruption("not a sharded propagation reply");
  }
  ByteReader reader(frame.substr(1));
  EPI_RETURN_NOT_OK(
      wire::DecodeShardedPropagationResponseEnvelopeV3(reader, env));
  if (!reader.AtEnd()) {
    return Status::Corruption("trailing bytes after message body");
  }
  return Status::OK();
}

Result<size_t> PullSharded(ShardedExchange& recipient,
                           ShardedExchange& source) {
  const std::string frame = source.ServeFrame(recipient.Handshake());
  // The adopted count is read under the recipient's cross-shard barrier,
  // like ReplicaServer::TotalStats, once before and once after the accept.
  const auto items_adopted = [&recipient] {
    uint64_t adopted = 0;
    const ShardedReplica& rep = recipient.replica();
    recipient.sched().ExecuteExclusive(
        /*mutates=*/false, [&rep, &adopted](const runtime::ExclusiveToken&) {
          adopted = rep.TotalStats().items_adopted;
        });
    return adopted;
  };
  const uint64_t before = items_adopted();
  EPI_RETURN_NOT_OK(recipient.AcceptFrame(frame));
  return static_cast<size_t>(items_adopted() - before);
}

Status PullOob(ShardedExchange& recipient, ShardedExchange& source,
               std::string_view item) {
  return recipient.AcceptOobFrame(
      source.ServeOobFrame(recipient.OobRequestFor(item)));
}

}  // namespace epidemic::server
