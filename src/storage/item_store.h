#ifndef EPIDEMIC_STORAGE_ITEM_STORE_H_
#define EPIDEMIC_STORAGE_ITEM_STORE_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/thread_annotations.h"
#include "log/log_vector.h"
#include "vv/version_vector.h"

namespace epidemic {

/// Auxiliary copy of a data item (§4.3), created by out-of-bound copying.
/// It has its own value and its own (auxiliary) IVV; user operations are
/// served from it while the regular copy continues to take part in scheduled
/// update propagation.
struct AuxCopy {
  std::string value;
  bool deleted = false;  // tombstone state of the auxiliary copy
  VersionVector ivv;
};

/// One data item replica plus its control state.
///
/// Control state holds everything the protocol needs in O(1) while the item
/// is being accessed anyway (§6):
///   * `ivv`          — the item version vector of the regular copy, stored
///                      inline for up to four nodes,
///   * `is_selected`  — the IsSelected flag used by SendPropagation to build
///                      the item set S without a per-item hash probe,
///   * `aux`          — auxiliary copy + IVV, present only while the item is
///                      out-of-bound.
/// The pointer array P(x) of Fig. 1 is not stored here: P_j(x) is x's slot,
/// indexed by `id`, in log component L_j (log/log_vector.h).
struct Item {
  Item(ItemId id_in, std::string_view name_in, size_t num_nodes)
      : id(id_in), name(name_in), ivv(num_nodes) {}

  Item(const Item&) = delete;
  Item& operator=(const Item&) = delete;

  ItemId id;
  bool deleted = false;  // tombstone: the item was deleted by an update.
                         // Tombstones replicate like ordinary values so the
                         // delete wins everywhere; the control state stays.
  bool is_selected = false;
  std::string name;
  std::string value;  // regular copy
  VersionVector ivv;  // regular IVV
  std::unique_ptr<AuxCopy> aux;

  bool HasAux() const { return aux != nullptr; }

  /// The copy user operations act on: auxiliary if present, else regular
  /// (§5.3).
  const std::string& UserValue() const { return aux ? aux->value : value; }
  bool UserDeleted() const { return aux ? aux->deleted : deleted; }
  const VersionVector& UserIvv() const { return aux ? aux->ivv : ivv; }
};

/// Name-addressable store of a node's data-item replicas.
///
/// Item ids are dense per-node indices handed out in creation order, so the
/// log can reference items by integer and resolve them back in O(1). The
/// paper's model has no item deletion, so ids are stable for the life of the
/// store.
///
/// Items live in fixed-size chunks that never move, so an `Item&` stays
/// valid for the life of the store, across any number of creations; `Get`
/// is chunk and offset arithmetic. The name index is an open-addressing
/// table of ItemIds (linear probing, load ≤ 1/2) that compares against the
/// name where the item stores it, so a name is held once.
class ItemStore {
 public:
  explicit ItemStore(size_t num_nodes) : num_nodes_(num_nodes) {}
  ~ItemStore();

  ItemStore(const ItemStore&) = delete;
  ItemStore& operator=(const ItemStore&) = delete;

  /// Returns the item named `name`, creating an empty replica (zero IVV,
  /// empty value) on first reference — a fresh replica that has seen no
  /// updates, per the initialization rule of §3.
  Item& GetOrCreate(std::string_view name) REQUIRES_SHARD_CONTEXT;

  /// Returns the item or nullptr. Mutable access hands out an Item the
  /// caller may write, so it requires the owner's context; const
  /// inspection is capability-free.
  Item* Find(std::string_view name) REQUIRES_SHARD_CONTEXT {
    const ItemId id = Lookup(name);
    return id == kNoItem ? nullptr : &Get(id);
  }
  const Item* Find(std::string_view name) const {
    const ItemId id = Lookup(name);
    return id == kNoItem ? nullptr : &Get(id);
  }

  Item& Get(ItemId id) REQUIRES_SHARD_CONTEXT {
    return chunks_[id / kChunkItems][id % kChunkItems];
  }
  const Item& Get(ItemId id) const {
    return chunks_[id / kChunkItems][id % kChunkItems];
  }

  size_t size() const { return size_; }
  size_t num_nodes() const { return num_nodes_; }

  /// Iteration support (creation order).
  class Iterator {
   public:
    Iterator(const ItemStore* store, ItemId id) : store_(store), id_(id) {}
    const Item& operator*() const { return store_->Get(id_); }
    Iterator& operator++() {
      ++id_;
      return *this;
    }
    bool operator==(const Iterator& other) const { return id_ == other.id_; }

   private:
    const ItemStore* store_;
    ItemId id_;
  };
  Iterator begin() const { return Iterator(this, 0); }
  Iterator end() const { return Iterator(this, static_cast<ItemId>(size_)); }

 private:
  static constexpr size_t kChunkItems = 64;

  /// The index slot holding `name`'s id, or the empty slot where it would
  /// go. The index must not be empty.
  size_t Probe(std::string_view name) const;

  ItemId Lookup(std::string_view name) const {
    return index_.empty() ? kNoItem : index_[Probe(name)];
  }

  /// Doubles the index and reinserts every item.
  void GrowIndex() REQUIRES_SHARD_CONTEXT;

  size_t num_nodes_;
  size_t size_ = 0;
  std::vector<Item*> chunks_;   // kChunkItems items each, never moved
  std::vector<ItemId> index_;   // power-of-two size; kNoItem = empty
};

}  // namespace epidemic

#endif  // EPIDEMIC_STORAGE_ITEM_STORE_H_
