#include "storage/item_store.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/sharded_replica.h"

namespace epidemic {
namespace {

// The per-item budget: an item's record, IVV included for up to four nodes,
// fits in 128 bytes of its chunk.
static_assert(sizeof(Item) <= 128);

TEST(ItemStoreTest, StartsEmpty) {
  ItemStore store(3);
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.num_nodes(), 3u);
  EXPECT_EQ(store.Find("x"), nullptr);
}

TEST(ItemStoreTest, GetOrCreateMakesFreshReplica) {
  ItemStore store(3);
  Item& item = store.GetOrCreate("x");
  EXPECT_EQ(item.name, "x");
  EXPECT_EQ(item.id, 0u);
  EXPECT_EQ(item.value, "");
  EXPECT_EQ(item.ivv, VersionVector(3));  // zero IVV per §3
  EXPECT_FALSE(item.deleted);
  EXPECT_FALSE(item.is_selected);
  EXPECT_FALSE(item.HasAux());
}

TEST(ItemStoreTest, GetOrCreateIsIdempotent) {
  ItemStore store(2);
  Item& a = store.GetOrCreate("x");
  a.value = "hello";
  Item& b = store.GetOrCreate("x");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(b.value, "hello");
  EXPECT_EQ(store.size(), 1u);
}

TEST(ItemStoreTest, DenseIdsInCreationOrder) {
  ItemStore store(2);
  EXPECT_EQ(store.GetOrCreate("a").id, 0u);
  EXPECT_EQ(store.GetOrCreate("b").id, 1u);
  EXPECT_EQ(store.GetOrCreate("c").id, 2u);
  EXPECT_EQ(store.GetOrCreate("b").id, 1u);  // stable
}

TEST(ItemStoreTest, FindByName) {
  ItemStore store(2);
  store.GetOrCreate("x").value = "v";
  Item* found = store.Find("x");
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->value, "v");
  EXPECT_EQ(store.Find("y"), nullptr);

  const ItemStore& cstore = store;
  ASSERT_NE(cstore.Find("x"), nullptr);
  EXPECT_EQ(cstore.Find("y"), nullptr);
}

TEST(ItemStoreTest, GetById) {
  ItemStore store(2);
  store.GetOrCreate("a");
  store.GetOrCreate("b");
  EXPECT_EQ(store.Get(1).name, "b");
}

TEST(ItemStoreTest, IterationInCreationOrder) {
  ItemStore store(1);
  store.GetOrCreate("c");
  store.GetOrCreate("a");
  std::vector<std::string> names;
  for (const Item& item : store) names.push_back(item.name);
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "c");
  EXPECT_EQ(names[1], "a");
}

TEST(ItemTest, UserValuePrefersAuxCopy) {
  ItemStore store(2);
  Item& item = store.GetOrCreate("x");
  item.value = "regular";
  item.ivv.Increment(0);
  EXPECT_EQ(item.UserValue(), "regular");
  EXPECT_EQ(item.UserIvv(), item.ivv);

  item.aux = std::make_unique<AuxCopy>();
  item.aux->value = "aux";
  item.aux->ivv = VersionVector(2);
  item.aux->ivv.Increment(1);
  EXPECT_TRUE(item.HasAux());
  EXPECT_EQ(item.UserValue(), "aux");
  EXPECT_EQ(item.UserIvv(), item.aux->ivv);

  item.aux.reset();
  EXPECT_EQ(item.UserValue(), "regular");
}

TEST(ItemStoreTest, ReferencesStayValidAcrossGrowth) {
  ItemStore store(3);
  Item& first = store.GetOrCreate("first");
  first.value = "kept";
  for (int i = 0; i < 10000; ++i) {
    store.GetOrCreate("item" + std::to_string(i));
  }
  EXPECT_EQ(&store.GetOrCreate("first"), &first);
  EXPECT_EQ(&store.Get(0), &first);
  EXPECT_EQ(first.id, 0u);
  EXPECT_EQ(first.name, "first");
  EXPECT_EQ(first.value, "kept");
}

// The first `count` names resolve to their ids; absent names do not.
void ExpectIndexed(const ItemStore& store,
                   const std::vector<std::string>& names, size_t count,
                   const std::vector<std::string>& absent) {
  for (size_t i = 0; i < count; ++i) {
    const Item* item = store.Find(names[i]);
    ASSERT_NE(item, nullptr) << names[i];
    ASSERT_EQ(item->id, i) << names[i];
  }
  for (const std::string& name : absent) {
    EXPECT_EQ(store.Find(name), nullptr) << name;
  }
}

void IndexAll(const std::vector<std::string>& names,
              const std::vector<std::string>& absent) {
  ItemStore store(3);
  for (size_t i = 0; i < names.size(); ++i) {
    ASSERT_EQ(store.GetOrCreate(names[i]).id, i) << names[i];
    // Creating item 2^k grows the index; check everything right after.
    if ((i & (i - 1)) == 0) ExpectIndexed(store, names, i + 1, absent);
  }
  EXPECT_EQ(store.size(), names.size());
  ExpectIndexed(store, names, names.size(), absent);
}

TEST(ItemStoreTest, IndexFindsEveryNameThroughGrowth) {
  // Every third name is longer than std::string's 15-byte inline buffer.
  std::vector<std::string> names;
  for (int i = 0; i < 100000; ++i) {
    names.push_back(i % 3 == 0 ? "a-name-past-the-inline-buffer-" +
                                     std::to_string(i)
                               : "k" + std::to_string(i));
  }
  IndexAll(names, {"", "absent", "k100000", "k3",
                   "a-name-past-the-inline-buffer-1",
                   "a-name-past-the-inline-buffer-100002"});
}

TEST(ItemStoreTest, IndexFindsNamesThatShareOneShard) {
  // A shard stores only names with one ShardOf value, so the index must not
  // take its slots from the bits of that hash.
  std::vector<std::string> names;
  std::vector<std::string> absent;
  for (int i = 0; names.size() < 20000; ++i) {
    std::string name = "q.k" + std::to_string(i);
    if (ShardedReplica::ShardOf(name, 16) != 5) continue;
    (i % 7 == 0 ? absent : names).push_back(std::move(name));
  }
  IndexAll(names, absent);
}

TEST(ItemStoreTest, ManyItems) {
  ItemStore store(4);
  for (int i = 0; i < 1000; ++i) {
    store.GetOrCreate("item" + std::to_string(i));
  }
  EXPECT_EQ(store.size(), 1000u);
  EXPECT_EQ(store.Find("item999")->id, 999u);
}

}  // namespace
}  // namespace epidemic
