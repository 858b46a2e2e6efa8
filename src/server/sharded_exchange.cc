#include "server/sharded_exchange.h"

#include <algorithm>
#include <atomic>

#include "common/bytes.h"
#include "common/logging.h"
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
                                 BufferPool& pool, size_t serve_budget)
    : replica_(replica),
      sched_(sched),
      pool_(pool),
      serve_budget_(serve_budget),
      all_shards_(ShardList(sched.num_shards())),
      resume_(std::make_unique<std::atomic<size_t>[]>(replica.num_nodes())) {
  EPI_CHECK(serve_budget_ > 0);  // the first stale shard always ships
}

ShardedExchange::ShardedExchange(ShardedReplica& replica, BufferPool& pool,
                                 size_t serve_budget)
    : replica_(replica),
      owned_sched_(InlineScheduler(replica.num_shards())),
      sched_(*owned_sched_),
      pool_(pool),
      serve_budget_(serve_budget),
      all_shards_(ShardList(replica.num_shards())),
      resume_(std::make_unique<std::atomic<size_t>[]>(replica.num_nodes())) {
  EPI_CHECK(serve_budget_ > 0);
}

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

bool ShardedExchange::Serve(const ShardedPropagationRequest& req,
                            uint64_t epoch, std::vector<std::string>* parts) {
  ShardedReplica& rep = replica_;
  const size_t num_shards = rep.num_shards();
  // parts[0]: the envelope, tag byte included. `epoch` was sampled before
  // any shard serves: a mutation racing with the serve lands with a later
  // epoch, so the requester's next probe mismatches and re-pulls — stale
  // probes are conservative, never lossy (every mutation goes through a
  // mutating task, which is exactly what bumps the epoch).
  const auto envelope = [this, epoch, num_shards](uint8_t flags) {
    ByteWriter env(pool_.Get());
    env.PutU8(static_cast<uint8_t>(
        net::MessageType::kShardedPropagationResponseV3));
    env.PutU8(flags);
    env.PutVarint64(epoch);
    env.PutVarint64(num_shards);
    return env;
  };
  parts->clear();
  if (!WantsSegments(req)) {
    // No segments, canonical one-byte count: a matching probe (the O(1)
    // quiescent round), a missed probe (resend), or a topology mismatch,
    // which carries our shard count so the requester rejects it instead
    // of applying garbage.
    const bool probe = (req.flags & kPropFlagEpochProbe) != 0;
    ByteWriter env =
        envelope(probe && req.last_epoch != epoch ? kPropRespFlagResend : 0);
    env.PutVarint64(0);
    parts->push_back(env.Release());
    return false;
  }
  // One anti-entropy round is S tasks fanned out to the shard owners and
  // joined — not S lock acquisitions. Each stale shard encodes its
  // self-contained piece — [shard varint][padded length][body] — into its
  // own pooled slot parts[1 + k] inside its single-writer section (the
  // view borrows the shard's store, so encoding must complete there — the
  // §4.1/§8 discipline the views rely on). The slots are disjoint, so the
  // owners fill them in parallel; a vectored transport then sends the
  // pieces with no stitch copy, and their concatenation is the contiguous
  // frame. Each segment's length prefix is a padded-varint slot patched
  // once the body is encoded (5 bytes covers the 1 GiB segment cap).
  //
  // The budget admits whole shards only: a shard is one complete instance
  // of the protocol (§4.1), so a reply may carry any subset of the stale
  // shards, and the ones left out stay behind at the requester, whose
  // next handshake asks for them again. A shard left out records neither
  // a serve nor the requester's DBVV for the stability frontier, which
  // only delays the frontier, as a serve-cache hit does. The serve starts
  // where the last partial reply to this requester stopped: a shard that
  // stays stale however often it ships (an unresolved conflict, Fig. 3)
  // would otherwise spend the budget first on every pull and starve the
  // shards after it. Owner workers run the tasks concurrently, so the
  // running total is an atomic; the left-out marks are disjoint slots.
  const bool tracked = req.requester < rep.num_nodes();
  // relaxed: the cursor only orders the shards; any start serves right.
  const size_t start =
      tracked ? resume_[req.requester].load(std::memory_order_relaxed) : 0;
  std::vector<size_t> rotated;
  if (start != 0) {
    rotated.reserve(num_shards);
    for (size_t i = 0; i < num_shards; ++i) {
      rotated.push_back((start + i) % num_shards);
    }
  }
  const std::vector<size_t>& order = start == 0 ? all_shards_ : rotated;
  std::atomic<size_t> served_bytes{0};
  std::vector<char> left_out(num_shards, 0);
  parts->resize(1 + num_shards);
  sched_.ExecuteBatchIndexed(
      order, TaskKind::kServe, /*mutates=*/false,
      [this, &rep, &req, parts, &order, &served_bytes, &left_out](
          const ShardToken& token, size_t i) {
        AssertShardContext(token);
        const size_t k = order[i];
        // relaxed: tasks racing here can only both serve, which bounds the
        // reply by one piece per worker past the budget.
        if (served_bytes.load(std::memory_order_relaxed) >= serve_budget_) {
          left_out[k] = !VersionVector::DominatesOrEqual(
              req.shard_dbvvs[k], rep.shard(k).dbvv());
          return;
        }
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
        // relaxed: a running total; the load above explains the race.
        served_bytes.fetch_add(cw.size(), std::memory_order_relaxed);
        (*parts)[1 + k] = cw.Release();
      });
  // Current and left-out shards left their slot empty; drop those slots,
  // keeping the served ones in shard order.
  parts->erase(std::remove_if(parts->begin() + 1, parts->end(),
                              [](const std::string& p) { return p.empty(); }),
               parts->end());
  // The next serve to this requester starts at the first shard left out,
  // or at shard 0 after a complete reply.
  const auto first_left_out =
      std::find_if(order.begin(), order.end(),
                   [&left_out](size_t k) { return left_out[k] != 0; });
  const bool partial = first_left_out != order.end();
  if (tracked) {
    // relaxed: see the load above.
    resume_[req.requester].store(partial ? *first_left_out : 0,
                                 std::memory_order_relaxed);
  }
  ByteWriter env = envelope(partial ? kPropRespFlagPartial : 0);
  // The count keeps the 3-byte padded form the decoders read with
  // GetVarint64Padded (as the segment lengths do); every other wire
  // varint is canonical-only.
  env.PutPaddedVarint(parts->size() - 1, 3);
  (*parts)[0] = env.Release();
  return partial;
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

Result<bool> PullStep(ShardedExchange& recipient, ShardedExchange& source) {
  const std::string frame = source.ServeFrame(recipient.Handshake());
  wire::ShardedResponseEnvelopeView env;
  EPI_RETURN_NOT_OK(DecodeReplyFrame(frame, &env));
  EPI_RETURN_NOT_OK(recipient.Accept(env.num_shards, env.segments));
  return env.partial();
}

Result<size_t> PullSharded(ShardedExchange& recipient,
                           ShardedExchange& source) {
  // The adopted count is read under the recipient's cross-shard barrier,
  // like ReplicaServer::TotalStats, once before and once after the pull.
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
  for (size_t continuations = 0;; ++continuations) {
    Result<bool> partial = PullStep(recipient, source);
    if (!partial.ok()) return partial.status();
    if (!*partial) break;
    if (continuations == recipient.replica().num_shards()) {
      return Status::Unavailable("source still partial after " +
                                 std::to_string(continuations) +
                                 " continuations");
    }
  }
  return static_cast<size_t>(items_adopted() - before);
}

Status PullOob(ShardedExchange& recipient, ShardedExchange& source,
               std::string_view item) {
  return recipient.AcceptOobFrame(
      source.ServeOobFrame(recipient.OobRequestFor(item)));
}

}  // namespace epidemic::server
