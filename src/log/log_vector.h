#ifndef EPIDEMIC_LOG_LOG_VECTOR_H_
#define EPIDEMIC_LOG_LOG_VECTOR_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "common/thread_annotations.h"
#include "vv/version_vector.h"

namespace epidemic {

/// Dense per-node index of a data item inside one replica's item store.
/// Ids are local to a node; the wire format always carries item *names*.
using ItemId = uint32_t;

/// "No item": the end of a log list, an empty index slot.
inline constexpr ItemId kNoItem = std::numeric_limits<ItemId>::max();

/// One record of the log vector (paper §4.2): "data item x was updated by
/// the origin node; the update's sequence number there was `seq`", as
/// CollectTail reports it.
///
/// Records register only the *fact* of an update, never redo information, so
/// they are constant-size — the property §6 relies on when bounding message
/// overhead to a constant per shipped item.
struct LogRecord {
  ItemId item = 0;
  UpdateCount seq = 0;  // value of V_jj at the origin j, including this update
};

/// One component L_ij of the log vector: updates originated at one node `j`,
/// in j's execution order, with **at most one record per data item** — when a
/// newer record for x arrives, the older one is unlinked in O(1) (Fig. 1).
///
/// The pointer P_j(x) of the paper is x's slot in this component: a dense
/// array indexed by ItemId holds, per item, the seq of its record (0 = no
/// record; origin sequence numbers start at 1) and the ItemIds of its
/// neighbours in the list, which is ordered by seq with the oldest record at
/// the head. A record costs no allocation of its own; the array grows to
/// the highest ItemId the component has held a record for.
class OriginLog {
 public:
  OriginLog() = default;

  OriginLog(const OriginLog&) = delete;
  OriginLog& operator=(const OriginLog&) = delete;
  OriginLog(OriginLog&& other) noexcept;

  /// AddLogRecord (§4.2): inserts (item, seq) at its seq-ordered position —
  /// the tail in the common case — and unlinks the previous record for the
  /// same item, found in x's slot. `seq` must be positive. O(1) when records
  /// arrive in origin order; linear in the displacement when a
  /// conflict-induced record drop at a third party delivered them out of
  /// order (post-§5.1 executions only).
  void AddLogRecord(ItemId item, UpdateCount seq) REQUIRES_SHARD_CONTEXT;

  /// Removes x's record (used when conflict handling drops records referring
  /// to a conflicting item from a received tail — §5.1 step 2 — and by
  /// tests). Aborts when x has no record here. O(1).
  void Remove(ItemId item) REQUIRES_SHARD_CONTEXT;

  /// Seq of x's record in this component, or 0 when it has none.
  UpdateCount seq(ItemId item) const {
    return item < slots_.size() ? slots_[item].seq : 0;
  }

  /// Oldest / newest record's item, or kNoItem when empty.
  ItemId head() const { return head_; }
  ItemId tail() const { return tail_; }

  /// Neighbours of the record of `item`, which must have one: the next
  /// newer / older record's item, or kNoItem at the ends.
  ItemId next(ItemId item) const { return slots_[item].next; }
  ItemId prev(ItemId item) const { return slots_[item].prev; }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Collects the suffix of records with `seq > after`, oldest first, by
  /// walking back from the tail — time linear in the number of records
  /// *selected*, never in the log length (§6: "computing tails D_k is done
  /// in time linear in the number of records selected").
  ///
  /// Returns the number appended to `*out`.
  size_t CollectTail(UpdateCount after, std::vector<LogRecord>* out) const;

 private:
  struct Slot {
    UpdateCount seq = 0;
    ItemId prev = kNoItem;
    ItemId next = kNoItem;
  };

  void Unlink(ItemId item);

  std::vector<Slot> slots_;
  ItemId head_ = kNoItem;
  ItemId tail_ = kNoItem;
  size_t size_ = 0;
};

/// The full log vector L_i of node i (§4.2): one OriginLog per node in the
/// replica set. Total records are bounded by n·N since each component holds
/// at most one record per item.
class LogVector {
 public:
  explicit LogVector(size_t num_nodes) : logs_(num_nodes) {}

  /// Mutable access hands out the component for AddLogRecord/Remove, so it
  /// requires the owner's context; const inspection is capability-free.
  OriginLog& ForOrigin(NodeId j) REQUIRES_SHARD_CONTEXT { return logs_[j]; }
  const OriginLog& ForOrigin(NodeId j) const { return logs_[j]; }

  size_t num_nodes() const { return logs_.size(); }

  /// Total record count across all components (≤ n·N).
  size_t TotalRecords() const;

 private:
  std::vector<OriginLog> logs_;
};

}  // namespace epidemic

#endif  // EPIDEMIC_LOG_LOG_VECTOR_H_
