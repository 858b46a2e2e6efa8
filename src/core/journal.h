#ifndef EPIDEMIC_CORE_JOURNAL_H_
#define EPIDEMIC_CORE_JOURNAL_H_

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>

#include "common/result.h"
#include "common/status.h"
#include "core/messages.h"
#include "core/replica.h"
#include "vv/version_vector.h"

namespace epidemic {

/// Write-ahead journal + deterministic replay recovery.
///
/// A Replica is a deterministic state machine over its *inputs*: user
/// updates/deletes, conflict resolutions, accepted propagation responses,
/// and accepted out-of-bound responses. `Journal::Open` recovers a replica
/// from its directory and attaches a Journal, which the replica owns; the
/// replica appends every input to it *before* applying it, after the
/// input's checks, so an input the replica rejects leaves no record (it
/// would fail replay and stop the node from restarting). Recovery rebuilds
/// the exact replica state by replaying the journal through the ordinary
/// code paths — no second set of mutation logic to keep in sync.
///
/// Pairing with snapshots (snapshot.h): `Replica::Checkpoint()` writes a
/// snapshot and truncates the journal, bounding recovery time; recovery is
/// then snapshot load + replay of the journal suffix.
///
/// Record framing: varint length + payload, where the payload is a one-byte
/// record tag followed by the same binary encodings the wire codec uses.
/// A torn final record (crash mid-append) is detected, ignored and cut off
/// before the journal is appended to again; an append that fails part-way
/// cuts its own partial frame back off.
///
/// ReplayJournalBytes replays a raw journal byte stream (varint-length +
/// payload + CRC-32C frames) into `replica` through the ordinary code
/// paths. A torn or checksum-failing frame ends the replay at the last
/// good prefix — that is the crash-recovery contract, not an error.
/// Returns the number of records applied, or Corruption when a checksummed
/// record fails to apply (a record that passed CRC must replay; anything
/// else means the journal and the code disagree).
///
/// This is the exact loop Journal::Open runs over journal.log, exposed so
/// recovery tests and the fuzz harness can drive the same decode-then-apply
/// path on arbitrary bytes. `good_prefix`, when given, receives the byte
/// length of the frames replayed; Open truncates the file to it before
/// appending again.
Result<uint64_t> ReplayJournalBytes(Replica& replica, std::string_view data,
                                    size_t* good_prefix = nullptr)
    REQUIRES_SHARD_CONTEXT;

class Journal {
 public:
  /// Recovers (or freshly creates) a replica backed by the files
  /// `<dir>/journal.log` and `<dir>/snapshot.bin`, with the journal
  /// attached. The directory must exist. A file that exists but cannot be
  /// opened or read is IOError, never a fresh start. `listener` may be null
  /// and must outlive the replica.
  static Result<std::unique_ptr<Replica>> Open(
      const std::string& dir, NodeId id, size_t num_nodes,
      ConflictListener* listener = nullptr);

  ~Journal();

  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  /// Journal records appended since the last checkpoint (for tests and
  /// monitoring).
  uint64_t records_since_checkpoint() const { return records_; }

 private:
  friend class Replica;  // the only caller of the appends and Checkpoint

  Journal(std::string dir, std::FILE* file, uint64_t size, uint64_t records);

  // One append per record kind, called by the owning Replica once the
  // input has passed its checks and before it changes anything. A failed
  // append returns IOError and leaves the file holding whole records only.
  Status AppendUpdate(std::string_view name, std::string_view value);
  Status AppendDelete(std::string_view name);
  Status AppendResolve(std::string_view name, const VersionVector& remote_vv,
                       std::string_view value);
  /// The one propagation record: `resp`, already validated, as a v3
  /// segment body against `base`, the accepting replica's DBVV.
  Status AppendPropagation(const PropagationResponseView& resp,
                           const VersionVector& base);
  Status AppendOob(const OobResponse& resp);

  /// Writes `replica`'s snapshot and truncates the journal (through
  /// Replica::Checkpoint, inside the replica's shard context: the snapshot
  /// must observe a quiescent replica). Recovery afterwards is snapshot +
  /// (empty) journal. On failure the journal stays open for appends. A
  /// truncation that fails after the snapshot was written leaves records
  /// the snapshot already covers, and recovery replays them over it. When
  /// journal.log no longer names the open file (removed or replaced),
  /// appends move to a fresh, empty journal.log; if that cannot be opened
  /// the result is IOError.
  Status Checkpoint(const Replica& replica);

  /// Frames `payload` and appends it. On a failed write the file is cut
  /// back to `size_`; when even that fails, every later append is refused
  /// until a checkpoint empties the journal, since replay would stop at
  /// the torn bytes.
  Status Append(std::string_view payload);

  std::string dir_;
  std::FILE* file_;
  uint64_t size_;  // bytes of whole records in the file
  uint64_t records_;
  bool torn_ = false;
};

}  // namespace epidemic

#endif  // EPIDEMIC_CORE_JOURNAL_H_
