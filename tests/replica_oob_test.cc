#include <gtest/gtest.h>

#include <string>

#include "core/replica.h"

namespace epidemic {
namespace {

VersionVector Vv(std::vector<UpdateCount> counts) {
  return VersionVector(std::move(counts));
}

// Fetches `item` out-of-bound from `source` into `dest`.
Status OobFetch(Replica& source, Replica& dest, std::string_view item) {
  OobRequest req = dest.BuildOobRequest(item);
  OobResponse resp = source.HandleOobRequest(req);
  return dest.AcceptOobResponse(resp);
}

// ---------------------------------------------------------------------------
// Out-of-bound copying (§5.2).

TEST(OobTest, FetchUnknownItemReturnsNotFound) {
  Replica a(0, 2), b(1, 2);
  EXPECT_TRUE(OobFetch(b, a, "ghost").IsNotFound());
}

TEST(OobTest, NewerCopyAdoptedAsAuxiliary) {
  Replica a(0, 2), b(1, 2);
  ASSERT_TRUE(b.Update("x", "fresh").ok());

  ASSERT_TRUE(OobFetch(b, a, "x").ok());
  const Item* item = a.FindItem("x");
  ASSERT_NE(item, nullptr);
  ASSERT_TRUE(item->HasAux());
  EXPECT_EQ(item->aux->value, "fresh");
  EXPECT_EQ(item->aux->ivv, Vv({0, 1}));

  // User reads see the auxiliary copy.
  EXPECT_EQ(*a.Read("x"), "fresh");
  // Regular structures untouched: empty regular copy, zero DBVV, no logs.
  EXPECT_EQ(item->value, "");
  EXPECT_EQ(item->ivv, Vv({0, 0}));
  EXPECT_EQ(a.dbvv(), Vv({0, 0}));
  EXPECT_EQ(a.log_vector().TotalRecords(), 0u);
  EXPECT_EQ(a.stats().aux_copies_created, 1u);
  EXPECT_TRUE(a.CheckInvariants().ok());
}

TEST(OobTest, OlderOrEqualCopyIgnored) {
  Replica a(0, 2), b(1, 2);
  ASSERT_TRUE(b.Update("x", "v").ok());
  ASSERT_TRUE(PropagateOnce(b, a).ok());
  // a is already current; the OOB copy is equal -> no aux created.
  ASSERT_TRUE(OobFetch(b, a, "x").ok());
  EXPECT_FALSE(a.FindItem("x")->HasAux());
  EXPECT_EQ(a.stats().oob_copies_ignored, 1u);
  EXPECT_EQ(a.stats().aux_copies_created, 0u);
}

TEST(OobTest, ConflictingOobCopyReported) {
  RecordingConflictListener conflicts;
  Replica a(0, 2, &conflicts);
  Replica b(1, 2);
  ASSERT_TRUE(a.Update("x", "A").ok());
  ASSERT_TRUE(b.Update("x", "B").ok());
  Status s = OobFetch(b, a, "x");
  EXPECT_TRUE(s.IsConflict());
  EXPECT_EQ(conflicts.count(), 1u);
  EXPECT_EQ(conflicts.events()[0].source, ConflictSource::kOutOfBound);
  EXPECT_EQ(*a.Read("x"), "A");  // nothing adopted
}

TEST(OobTest, SourcePrefersItsAuxCopy) {
  Replica a(0, 3), b(1, 3), c(2, 3);
  ASSERT_TRUE(c.Update("x", "v1").ok());
  // b obtains x out-of-bound from c -> b holds it as auxiliary only.
  ASSERT_TRUE(OobFetch(c, b, "x").ok());
  ASSERT_TRUE(b.FindItem("x")->HasAux());
  // a fetches from b: must receive b's auxiliary copy, not the empty
  // regular one.
  ASSERT_TRUE(OobFetch(b, a, "x").ok());
  EXPECT_EQ(*a.Read("x"), "v1");
}

TEST(OobTest, OobDoesNotReduceLaterPropagationWork) {
  // Footnote 2 (§5.1): even though a already has x out-of-bound, regular
  // propagation ships x again, because propagation uses regular state only.
  Replica a(0, 2), b(1, 2);
  ASSERT_TRUE(b.Update("x", "v").ok());
  ASSERT_TRUE(OobFetch(b, a, "x").ok());
  EXPECT_EQ(*a.Read("x"), "v");

  b.ResetStats();
  ASSERT_TRUE(PropagateOnce(b, a).ok());
  EXPECT_EQ(b.stats().items_shipped, 1u);  // shipped despite the OOB copy
  // After adoption the regular copy catches up and the aux copy is dropped.
  EXPECT_FALSE(a.FindItem("x")->HasAux());
  EXPECT_EQ(a.stats().aux_copies_discarded, 1u);
  EXPECT_TRUE(a.CheckInvariants().ok());
}

// ---------------------------------------------------------------------------
// Updates on auxiliary copies + intra-node propagation (§5.3, Fig. 4).

TEST(AuxUpdateTest, UpdateOnAuxCopyUsesAuxStructuresOnly) {
  Replica a(0, 2), b(1, 2);
  ASSERT_TRUE(b.Update("x", "v1").ok());
  ASSERT_TRUE(OobFetch(b, a, "x").ok());

  ASSERT_TRUE(a.Update("x", "v2").ok());
  const Item* item = a.FindItem("x");
  EXPECT_EQ(item->aux->value, "v2");
  EXPECT_EQ(item->aux->ivv, Vv({1, 1}));  // own entry bumped on the aux IVV
  EXPECT_EQ(a.stats().updates_aux, 1u);
  EXPECT_EQ(a.stats().updates_regular, 0u);
  // Regular structures untouched; one aux-log record with the pre-update
  // IVV and redo info.
  EXPECT_EQ(a.dbvv(), Vv({0, 0}));
  ASSERT_EQ(a.aux_log().size(), 1u);
  const AuxRecord* rec = a.aux_log().Earliest(item->id);
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->vv, Vv({0, 1}));  // excludes the update itself
  EXPECT_EQ(rec->op.new_value, "v2");
}

TEST(AuxUpdateTest, IntraNodeReplayAppliesAuxUpdatesInOrder) {
  Replica a(0, 2), b(1, 2);
  ASSERT_TRUE(b.Update("x", "v1").ok());
  ASSERT_TRUE(OobFetch(b, a, "x").ok());
  ASSERT_TRUE(a.Update("x", "v2").ok());
  ASSERT_TRUE(a.Update("x", "v3").ok());
  EXPECT_EQ(a.aux_log().size(), 2u);

  // Regular propagation brings a's regular copy to b's state (v1); the
  // intra-node step then replays v2, v3 as regular local updates.
  ASSERT_TRUE(PropagateOnce(b, a).ok());
  const Item* item = a.FindItem("x");
  EXPECT_FALSE(item->HasAux());              // caught up and discarded
  EXPECT_EQ(item->value, "v3");
  EXPECT_EQ(item->ivv, Vv({2, 1}));          // two replayed local updates
  EXPECT_EQ(a.dbvv(), Vv({2, 1}));
  EXPECT_EQ(a.aux_log().size(), 0u);
  EXPECT_EQ(a.stats().intra_node_ops_applied, 2u);
  // Replays appended a log record for the latest local update.
  EXPECT_EQ(a.log_vector().ForOrigin(0).size(), 1u);
  const OriginLog& own = a.log_vector().ForOrigin(0);
  EXPECT_EQ(own.seq(own.head()), 2u);
  EXPECT_TRUE(a.CheckInvariants().ok());
}

TEST(AuxUpdateTest, ReplayedUpdatesPropagateToOtherNodes) {
  Replica a(0, 3), b(1, 3), c(2, 3);
  ASSERT_TRUE(b.Update("x", "v1").ok());
  ASSERT_TRUE(OobFetch(b, a, "x").ok());
  ASSERT_TRUE(a.Update("x", "v2").ok());
  ASSERT_TRUE(PropagateOnce(b, a).ok());  // triggers intra-node replay at a
  ASSERT_EQ(*a.Read("x"), "v2");

  // c can now learn both b's original and a's replayed update from a.
  ASSERT_TRUE(PropagateOnce(a, c).ok());
  EXPECT_EQ(*c.Read("x"), "v2");
  EXPECT_EQ(c.FindItem("x")->ivv, Vv({1, 1, 0}));
  EXPECT_TRUE(c.CheckInvariants().ok());
}

TEST(AuxUpdateTest, PartialCatchUpKeepsAuxCopy) {
  // The aux chain starts two OOB hops ahead: regular copy reaches only the
  // first hop, so replay must wait (e->vv dominates regular ivv).
  Replica a(0, 2), b(1, 2);
  ASSERT_TRUE(b.Update("x", "v1").ok());
  ASSERT_TRUE(OobFetch(b, a, "x").ok());      // aux at {0,1}
  ASSERT_TRUE(b.Update("x", "v2").ok());
  ASSERT_TRUE(OobFetch(b, a, "x").ok());      // aux advances to {0,2}
  ASSERT_TRUE(a.Update("x", "v3").ok());      // aux record with vv {0,2}

  // Simulate a stale propagation response carrying only b's first version:
  // build it by hand from a snapshot taken before v2.
  Replica b_old(1, 2);
  ASSERT_TRUE(b_old.Update("x", "v1").ok());
  ASSERT_TRUE(PropagateOnce(b_old, a).ok());

  const Item* item = a.FindItem("x");
  ASSERT_TRUE(item->HasAux());                // not caught up yet
  EXPECT_EQ(item->value, "v1");               // regular at {0,1}
  EXPECT_EQ(*a.Read("x"), "v3");              // user still sees aux
  EXPECT_EQ(a.aux_log().size(), 1u);          // record still pending

  // Now the real b (at v2) propagates; replay completes.
  ASSERT_TRUE(PropagateOnce(b, a).ok());
  EXPECT_FALSE(a.FindItem("x")->HasAux());
  EXPECT_EQ(*a.Read("x"), "v3");
  EXPECT_EQ(a.FindItem("x")->ivv, Vv({1, 2}));
  EXPECT_TRUE(a.CheckInvariants().ok());
}

TEST(AuxUpdateTest, IntraNodeConflictDetected) {
  // a updates x locally (regular), then receives an OOB copy of a sibling
  // divergent lineage? Construct instead: a has aux updates applied on top
  // of b's v1, but a's regular copy receives a *conflicting* copy from c.
  RecordingConflictListener conflicts;
  Replica a(0, 3, &conflicts);
  Replica b(1, 3), c(2, 3);
  ASSERT_TRUE(b.Update("x", "fromB").ok());
  ASSERT_TRUE(c.Update("x", "fromC").ok());  // concurrent with b's
  ASSERT_TRUE(OobFetch(b, a, "x").ok());     // aux lineage: b's
  ASSERT_TRUE(a.Update("x", "local").ok());  // aux record on top of {0,1,0}

  // Regular propagation from c: a's regular copy (zero IVV) adopts c's
  // copy {0,0,1}. The earliest aux record has vv {0,1,0} -> conflict.
  ASSERT_TRUE(PropagateOnce(c, a).ok());
  ASSERT_EQ(conflicts.count(), 1u);
  EXPECT_EQ(conflicts.events()[0].source, ConflictSource::kIntraNode);
  // The aux copy stays; the user continues to see their own write.
  EXPECT_TRUE(a.FindItem("x")->HasAux());
  EXPECT_EQ(*a.Read("x"), "local");
}

TEST(AuxUpdateTest, OobRefreshPreservesPendingAuxRecords) {
  // §5.2: adopting a newer OOB copy over an existing aux copy must not
  // touch the aux log.
  Replica a(0, 2), b(1, 2);
  ASSERT_TRUE(b.Update("x", "v1").ok());
  ASSERT_TRUE(OobFetch(b, a, "x").ok());
  ASSERT_TRUE(a.Update("x", "mine").ok());
  ASSERT_EQ(a.aux_log().size(), 1u);

  ASSERT_TRUE(b.Update("x", "v2").ok());
  // The new OOB copy {0,2} vs local aux {1,1}: concurrent! Conflict.
  EXPECT_TRUE(OobFetch(b, a, "x").IsConflict());
  EXPECT_EQ(a.aux_log().size(), 1u);

  // Without the local aux update it is a clean refresh:
  Replica a2(0, 2);
  ASSERT_TRUE(OobFetch(b, a2, "x").ok());
  EXPECT_EQ(*a2.Read("x"), "v2");
  EXPECT_EQ(a2.FindItem("x")->aux->ivv, Vv({0, 2}));
  EXPECT_EQ(a2.stats().aux_copies_created, 1u);
  ASSERT_TRUE(b.Update("x", "v3").ok());
  ASSERT_TRUE(OobFetch(b, a2, "x").ok());  // refresh existing aux
  EXPECT_EQ(*a2.Read("x"), "v3");
  EXPECT_EQ(a2.stats().aux_copies_created, 1u);  // reused, not recreated
}

TEST(AuxUpdateTest, UpdatesKeepFlowingWhileOutOfBound) {
  // A longer aux lifetime: OOB fetch, several local updates interleaved
  // with propagation rounds; once regular catches up, everything replays.
  Replica a(0, 2), b(1, 2);
  ASSERT_TRUE(b.Update("x", "b1").ok());
  ASSERT_TRUE(OobFetch(b, a, "x").ok());
  ASSERT_TRUE(a.Update("x", "a1").ok());
  ASSERT_TRUE(PropagateOnce(b, a).ok());  // catch up + replay a1
  ASSERT_TRUE(a.Update("x", "a2").ok());  // aux gone: regular update now
  EXPECT_EQ(a.stats().updates_regular, 1u);
  EXPECT_EQ(*a.Read("x"), "a2");
  ASSERT_TRUE(PropagateOnce(a, b).ok());
  EXPECT_EQ(*b.Read("x"), "a2");
  EXPECT_EQ(a.dbvv(), b.dbvv());
  EXPECT_TRUE(a.CheckInvariants().ok());
  EXPECT_TRUE(b.CheckInvariants().ok());
}

}  // namespace
}  // namespace epidemic
