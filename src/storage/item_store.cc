#include "storage/item_store.h"

#include <functional>

#include "common/logging.h"

namespace epidemic {

namespace {
size_t HashName(std::string_view name) {
  return std::hash<std::string_view>{}(name);
}
}  // namespace

ItemStore::~ItemStore() {
  std::allocator<Item> alloc;
  for (size_t id = 0; id < size_; ++id) {
    std::destroy_at(&chunks_[id / kChunkItems][id % kChunkItems]);
  }
  for (Item* chunk : chunks_) alloc.deallocate(chunk, kChunkItems);
}

Item& ItemStore::GetOrCreate(std::string_view name) {
  if (2 * (size_ + 1) > index_.size()) GrowIndex();
  const size_t slot = Probe(name);
  if (index_[slot] != kNoItem) return Get(index_[slot]);

  EPI_CHECK(size_ < kNoItem) << "item store full";
  const auto id = static_cast<ItemId>(size_);
  if (id % kChunkItems == 0) {
    chunks_.push_back(std::allocator<Item>().allocate(kChunkItems));
  }
  Item* item = std::construct_at(&chunks_.back()[id % kChunkItems], id, name,
                                 num_nodes_);
  ++size_;
  index_[slot] = id;
  return *item;
}

size_t ItemStore::Probe(std::string_view name) const {
  const size_t mask = index_.size() - 1;
  size_t slot = HashName(name) & mask;
  while (index_[slot] != kNoItem && Get(index_[slot]).name != name) {
    slot = (slot + 1) & mask;
  }
  return slot;
}

void ItemStore::GrowIndex() {
  index_.assign(index_.empty() ? 8 : 2 * index_.size(), kNoItem);
  const size_t mask = index_.size() - 1;
  for (ItemId id = 0; id < size_; ++id) {
    size_t slot = HashName(Get(id).name) & mask;
    while (index_[slot] != kNoItem) slot = (slot + 1) & mask;
    index_[slot] = id;
  }
}

}  // namespace epidemic
