#ifndef EPIDEMIC_CORE_SNAPSHOT_H_
#define EPIDEMIC_CORE_SNAPSHOT_H_

#include <memory>
#include <string>
#include <string_view>

#include "common/result.h"
#include "common/status.h"
#include "core/replica.h"
#include "core/sharded_replica.h"

namespace epidemic {

/// Durable snapshots of a replica's full protocol state.
///
/// A snapshot captures everything the protocol needs to resume after a
/// process restart: every item (value, tombstone, IVV, P(x)-backed log
/// membership), the auxiliary copies and the auxiliary redo log, the DBVV,
/// and the complete log vector. Counters (ReplicaStats) and the conflict
/// listener are runtime-only and are not captured.
///
/// Restart safety is what makes the §8.2 failure story complete: a crashed
/// node that recovers from its last snapshot simply resumes anti-entropy —
/// its DBVV is by construction dominated by (or equal to) the live nodes',
/// so the next exchanges pull exactly what it missed.
///
/// The format is a versioned binary blob (magic "EPISNAP1") using the same
/// primitives as the wire codec, ending in a CRC-32C over the whole body,
/// so bit rot is rejected before parsing. Snapshots are self-contained and
/// little-endian on the wire.
///
/// Soft state is intentionally NOT captured: stats counters, the conflict
/// listener, and the stability-tracking peer DBVVs (losing the latter just
/// makes the stability frontier conservatively restart at zero).

/// Serializes `replica` into a snapshot blob.
std::string EncodeSnapshot(const Replica& replica);

/// Reconstructs a replica from a snapshot blob. `listener` (optional, must
/// outlive the replica) receives future conflict reports. Fails with
/// Corruption on malformed input and Internal if the decoded state violates
/// protocol invariants.
Result<std::unique_ptr<Replica>> DecodeSnapshot(
    std::string_view blob, ConflictListener* listener = nullptr);

/// EncodeSnapshot + atomic write to `path` (via rename of a temp file).
Status SaveSnapshot(const Replica& replica, const std::string& path);

/// Reads the whole of `path`. NotFound only when the file does not exist;
/// any other failure to open or read it is IOError, so recovery never
/// mistakes state it cannot read for state that is absent.
Result<std::string> ReadFileFully(const std::string& path);

/// Reads `path` and decodes it.
Result<std::unique_ptr<Replica>> LoadSnapshot(
    const std::string& path, ConflictListener* listener = nullptr);

// -------------------------------------------------------------------------
// Sharded snapshots: a container (magic "EPISHRD1") holding the shard
// count followed by one length-prefixed standard EPISNAP1 blob per shard.
// Each shard blob keeps its own CRC, so per-shard bit rot is still pinned
// to the shard it hit; the container adds a trailing CRC of its own over
// the envelope. Shard k's blob restores shard k — the item→shard mapping
// is implied by the shard count and re-checked on load.

/// Serializes every shard of `replica` into one container blob.
std::string EncodeShardedSnapshot(const ShardedReplica& replica);

/// Reconstructs a sharded replica from a container blob. Fails with
/// Corruption on malformed input, and with Internal if any item sits in a
/// shard `ShardOf` disagrees with (a shard-count mismatch in disguise).
Result<std::unique_ptr<ShardedReplica>> DecodeShardedSnapshot(
    std::string_view blob, ConflictListener* listener = nullptr);

/// EncodeShardedSnapshot + atomic write to `path`.
Status SaveShardedSnapshot(const ShardedReplica& replica,
                           const std::string& path);

/// Reads `path` and decodes it as a sharded snapshot.
Result<std::unique_ptr<ShardedReplica>> LoadShardedSnapshot(
    const std::string& path, ConflictListener* listener = nullptr);

}  // namespace epidemic

#endif  // EPIDEMIC_CORE_SNAPSHOT_H_
