#ifndef EPIDEMIC_SERVER_SHARDED_EXCHANGE_H_
#define EPIDEMIC_SERVER_SHARDED_EXCHANGE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/buffer_pool.h"
#include "common/result.h"
#include "common/status.h"
#include "core/messages.h"
#include "core/sharded_replica.h"
#include "core/wire.h"
#include "runtime/scheduler.h"

namespace epidemic::server {

/// The sharded node-to-node exchanges, defined once. Anti-entropy (§5.1
/// over S shards, wire v3, DESIGN.md §10-§11): the handshake snapshot,
/// the serve (SendPropagation, Fig. 2) and the accept (AcceptPropagation,
/// Figs. 3-4), each one batch on the scheduler that owns the node's
/// shards. Out-of-bound copying (§5.2): the request, the serve and the
/// accept, each one task on the item's shard. ReplicaServer runs these
/// steps around its transport calls; callers without a server (the model
/// checker, tests, benches, fuzz seeds) run them on an inline scheduler
/// through PullSharded and PullOob, so every in-process exchange crosses
/// the frame bytes a daemon sends.
///
/// An exchange binds one node's shards to their scheduler and to the pool
/// its reply pieces come from. It owns nothing else but the [0, S) shard
/// list its all-shard batches fan out over, built once so no round
/// re-materializes it.
class ShardedExchange {
 public:
  /// Binds `replica` to `sched`, which must run one scheduler shard per
  /// replica shard.
  ShardedExchange(ShardedReplica& replica, runtime::ShardScheduler& sched,
                  BufferPool& pool);

  /// Binds `replica` to an inline scheduler of its own (workers = 0:
  /// every task runs on the calling thread before the call returns).
  ShardedExchange(ShardedReplica& replica, BufferPool& pool);

  /// True when `req` asks for segments: not an epoch probe, and one DBVV
  /// per local shard. Only such serves touch the shards.
  bool WantsSegments(const ShardedPropagationRequest& req) const {
    return (req.flags & kPropFlagEpochProbe) == 0 &&
           req.shard_dbvvs.size() == replica_.num_shards();
  }

  /// Step 1, the handshake: this node's id and every shard's DBVV,
  /// snapshotted as one batch.
  ShardedPropagationRequest Handshake();

  /// Step 2, the serve: fills `parts` with the reply frame as pieces.
  /// parts[0] is the envelope (tag byte included) stamped with `epoch`,
  /// which the caller sampled before serving. A request that wants no
  /// segments gets the envelope alone, with a canonical zero count: a
  /// probe answer (current or resend) or a topology mismatch. Otherwise
  /// every stale shard encodes its self-contained piece ([shard
  /// varint][padded length slot][body]) into its own pooled slot inside
  /// one ExecuteBatchIndexed fan-out — disjoint slots, so owner workers
  /// fill them in parallel — and after the join the empty slots are
  /// dropped and the padded segment count is backpatched. A vectored
  /// transport sends the pieces as-is; their concatenation is the frame.
  /// Every piece comes from the pool.
  void Serve(const ShardedPropagationRequest& req, uint64_t epoch,
             std::vector<std::string>* parts);

  /// Serve stamped with the scheduler's current mutation epoch, as one
  /// contiguous frame: the bytes a daemon replies to `req` with. The
  /// pieces go back to the pool.
  std::string ServeFrame(const ShardedPropagationRequest& req);

  /// Step 3, the accept: refuses a source with another shard count or an
  /// out-of-range segment before any state changes, then decodes each
  /// segment zero-copy into task-local storage and accepts it as a task on
  /// its shard (ShardedReplica::AcceptShardPropagationSegmentV3; a shard
  /// with a journal appends the accepted view), fanned out as one batch.
  /// Segment bodies are views into the received frame, which must outlive
  /// the call.
  Status Accept(uint32_t num_shards,
                const std::vector<wire::ShardedSegmentView>& segments);

  /// Decodes a reply frame (DecodeReplyFrame) and runs Accept on it.
  Status AcceptFrame(std::string_view frame);

  /// §5.2 step 1: the out-of-bound request for `item`.
  OobRequest OobRequestFor(std::string_view item);

  /// §5.2 step 2: the reply frame a daemon sends to `req` (an encoded
  /// OobResponse, tag byte included).
  std::string ServeOobFrame(const OobRequest& req);

  /// §5.2 step 3: decodes an out-of-bound reply frame and accepts the copy
  /// on its item's shard. A frame holding any other message is Corruption.
  Status AcceptOobFrame(std::string_view frame);

  ShardedReplica& replica() { return replica_; }
  runtime::ShardScheduler& sched() { return sched_; }

 private:
  ShardedReplica& replica_;
  std::unique_ptr<runtime::ShardScheduler> owned_sched_;  // inline form only
  runtime::ShardScheduler& sched_;
  BufferPool& pool_;
  std::vector<size_t> all_shards_;
};

/// Decodes a whole v3 reply frame (tag byte included) as views into
/// `frame`, which must outlive `*env`: no segment body is copied.
Status DecodeReplyFrame(std::string_view frame,
                        wire::ShardedResponseEnvelopeView* env);

/// One in-process pull of `source` into `recipient` through the daemon's
/// steps and frame bytes: handshake on the recipient, serve on the source,
/// the pieces concatenated into one frame, the envelope decoded, the
/// segments accepted. Returns the number of items the recipient adopted.
Result<size_t> PullSharded(ShardedExchange& recipient,
                           ShardedExchange& source);

/// One in-process out-of-bound fetch of `item` from `source` into
/// `recipient` through the daemon's steps and frame bytes: the request on
/// the recipient, the serve on the source, the accept on the recipient.
/// NotFound (the source never heard of the item) and Conflict are the
/// accept's own §5.2 outcomes.
Status PullOob(ShardedExchange& recipient, ShardedExchange& source,
               std::string_view item);

}  // namespace epidemic::server

#endif  // EPIDEMIC_SERVER_SHARDED_EXCHANGE_H_
