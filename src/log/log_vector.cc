#include "log/log_vector.h"

#include <utility>

#include "common/logging.h"

namespace epidemic {

OriginLog::OriginLog(OriginLog&& other) noexcept
    : slots_(std::move(other.slots_)),
      head_(std::exchange(other.head_, kNoItem)),
      tail_(std::exchange(other.tail_, kNoItem)),
      size_(std::exchange(other.size_, 0)) {}

void OriginLog::AddLogRecord(ItemId item, UpdateCount seq) {
  EPI_DCHECK(seq > 0 && item != kNoItem);
  if (item >= slots_.size()) slots_.resize(static_cast<size_t>(item) + 1);
  // Unlink the superseded record for the same item first — found in O(1) in
  // x's slot, the P_j(x) pointer — so it cannot get in the way of the
  // position search below. A dominating copy always carries an
  // equal-or-newer record for its item, so this never removes a record
  // newer than the incoming one.
  if (slots_[item].seq != 0) Unlink(item);

  // Insert in sequence order. The paper's AddLogRecord appends at the tail,
  // which is right while received tails are contiguous suffixes of the
  // origin's history; once a conflict drops records from a tail (§5.1
  // step 2), a third party can relay a newer record before the recipient
  // ever sees an older one for a different item, and a blind append would
  // break the strictly-increasing order CollectTail's suffix walk and the
  // recipient-side tail validation both depend on. Walking back from the
  // tail keeps the common in-order case O(1).
  ItemId after = tail_;
  while (after != kNoItem && slots_[after].seq > seq) {
    after = slots_[after].prev;
  }
  // Each origin sequence number names exactly one update of one item, so no
  // two records may ever claim the same seq.
  EPI_DCHECK(after == kNoItem || slots_[after].seq != seq);
  Slot& slot = slots_[item];
  slot.seq = seq;
  slot.prev = after;
  slot.next = after != kNoItem ? slots_[after].next : head_;
  if (slot.next != kNoItem) {
    slots_[slot.next].prev = item;
  } else {
    tail_ = item;
  }
  if (after != kNoItem) {
    slots_[after].next = item;
  } else {
    head_ = item;
  }
  ++size_;
}

void OriginLog::Remove(ItemId item) {
  EPI_CHECK(seq(item) != 0) << "Remove: item " << item
                            << " has no record in this log";
  Unlink(item);
}

void OriginLog::Unlink(ItemId item) {
  Slot& slot = slots_[item];
  if (slot.prev != kNoItem) {
    slots_[slot.prev].next = slot.next;
  } else {
    head_ = slot.next;
  }
  if (slot.next != kNoItem) {
    slots_[slot.next].prev = slot.prev;
  } else {
    tail_ = slot.prev;
  }
  slot = Slot{};
  --size_;
}

size_t OriginLog::CollectTail(UpdateCount after,
                              std::vector<LogRecord>* out) const {
  // Records are in origin order, i.e. strictly increasing seq, so the
  // matching records form a suffix. Walk back from the tail to find its
  // start, then emit oldest-first.
  ItemId first = kNoItem;
  for (ItemId x = tail_; x != kNoItem && slots_[x].seq > after;
       x = slots_[x].prev) {
    first = x;
  }
  size_t count = 0;
  for (ItemId x = first; x != kNoItem; x = slots_[x].next) {
    out->push_back(LogRecord{x, slots_[x].seq});
    ++count;
  }
  return count;
}

size_t LogVector::TotalRecords() const {
  size_t total = 0;
  for (const OriginLog& log : logs_) total += log.size();
  return total;
}

}  // namespace epidemic
