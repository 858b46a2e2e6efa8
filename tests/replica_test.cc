#include "core/replica.h"

#include <gtest/gtest.h>

#include <string>

#include "core/wire.h"

namespace epidemic {
namespace {

VersionVector Vv(std::vector<UpdateCount> counts) {
  return VersionVector(std::move(counts));
}

// ---------------------------------------------------------------------------
// User update bookkeeping (§5.3, regular path).

TEST(ReplicaUpdateTest, FirstUpdateBookkeeping) {
  Replica r(0, 3);
  ASSERT_TRUE(r.Update("x", "v1").ok());

  const Item* item = r.FindItem("x");
  ASSERT_NE(item, nullptr);
  EXPECT_EQ(item->value, "v1");
  EXPECT_EQ(item->ivv, Vv({1, 0, 0}));
  EXPECT_EQ(r.dbvv(), Vv({1, 0, 0}));

  // L_00 got one record (x, V_00 = 1), held in x's slot P_0(x).
  const OriginLog& own = r.log_vector().ForOrigin(0);
  ASSERT_EQ(own.size(), 1u);
  EXPECT_EQ(own.head(), item->id);
  EXPECT_EQ(own.tail(), item->id);
  EXPECT_EQ(own.seq(item->id), 1u);
  EXPECT_EQ(r.log_vector().ForOrigin(1).seq(item->id), 0u);
}

TEST(ReplicaUpdateTest, RepeatedUpdatesKeepOneLogRecord) {
  Replica r(1, 2);
  for (int i = 1; i <= 5; ++i) {
    ASSERT_TRUE(r.Update("x", "v" + std::to_string(i)).ok());
  }
  EXPECT_EQ(r.dbvv(), Vv({0, 5}));
  EXPECT_EQ(r.FindItem("x")->ivv, Vv({0, 5}));
  // Only the latest record survives (§4.2).
  const OriginLog& own = r.log_vector().ForOrigin(1);
  EXPECT_EQ(own.size(), 1u);
  EXPECT_EQ(own.seq(own.head()), 5u);
  EXPECT_TRUE(r.CheckInvariants().ok());
}

TEST(ReplicaUpdateTest, UpdatesToDistinctItemsAccumulateRecords) {
  Replica r(0, 2);
  ASSERT_TRUE(r.Update("a", "1").ok());
  ASSERT_TRUE(r.Update("b", "2").ok());
  ASSERT_TRUE(r.Update("c", "3").ok());
  EXPECT_EQ(r.log_vector().ForOrigin(0).size(), 3u);
  EXPECT_EQ(r.dbvv(), Vv({3, 0}));
  EXPECT_TRUE(r.CheckInvariants().ok());
}

TEST(ReplicaUpdateTest, EmptyNameRejected) {
  Replica r(0, 2);
  EXPECT_TRUE(r.Update("", "v").IsInvalidArgument());
}

TEST(ReplicaReadTest, ReadReturnsLatestValue) {
  Replica r(0, 2);
  EXPECT_TRUE(r.Read("x").status().IsNotFound());
  ASSERT_TRUE(r.Update("x", "hello").ok());
  auto v = r.Read("x");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, "hello");
}

TEST(ScanTest, PrefixFilterSortedAndLimited) {
  Replica r(0, 2);
  ASSERT_TRUE(r.Update("user/bob", "2").ok());
  ASSERT_TRUE(r.Update("user/alice", "1").ok());
  ASSERT_TRUE(r.Update("config/x", "3").ok());
  ASSERT_TRUE(r.Update("user/carol", "4").ok());
  ASSERT_TRUE(r.Delete("user/carol").ok());  // tombstones excluded

  auto all = r.Scan("");
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0].first, "config/x");

  auto users = r.Scan("user/");
  ASSERT_EQ(users.size(), 2u);
  EXPECT_EQ(users[0].first, "user/alice");
  EXPECT_EQ(users[1].first, "user/bob");

  auto limited = r.Scan("user/", 1);
  ASSERT_EQ(limited.size(), 1u);
  EXPECT_EQ(limited[0].first, "user/alice");

  EXPECT_TRUE(r.Scan("zzz").empty());
}

TEST(ScanTest, ScanSeesAuxiliaryValues) {
  Replica a(0, 2), b(1, 2);
  ASSERT_TRUE(b.Update("x", "fresh").ok());
  OobRequest req = a.BuildOobRequest("x");
  OobResponse resp = b.HandleOobRequest(req);
  ASSERT_TRUE(a.AcceptOobResponse(resp).ok());
  auto listed = a.Scan("");
  ASSERT_EQ(listed.size(), 1u);
  EXPECT_EQ(listed[0].second, "fresh");  // the user-visible (aux) value
}

TEST(DebugStringTest, MentionsKeyState) {
  Replica r(1, 3);
  ASSERT_TRUE(r.Update("x", "v").ok());
  ASSERT_TRUE(r.Delete("y").ok());
  std::string s = r.DebugString();
  EXPECT_NE(s.find("replica 1/3"), std::string::npos);
  EXPECT_NE(s.find("items=2"), std::string::npos);
  EXPECT_NE(s.find("tombstones=1"), std::string::npos);
  EXPECT_NE(s.find("dbvv=[0,2,0]"), std::string::npos);
}

// ---------------------------------------------------------------------------
// SendPropagation / AcceptPropagation (§5.1, Figs. 2-3).

TEST(PropagationTest, IdenticalReplicasYieldYouAreCurrent) {
  Replica a(0, 2), b(1, 2);
  const PropagationResponseView& resp = b.HandlePropagationView(
      a.BuildPropagationRequest());
  EXPECT_TRUE(resp.you_are_current);
  EXPECT_EQ(b.stats().you_are_current_replies, 1u);
  EXPECT_EQ(b.stats().items_shipped, 0u);
  EXPECT_EQ(b.stats().log_records_selected, 0u);
}

TEST(PropagationTest, RecipientAheadYieldsYouAreCurrent) {
  Replica a(0, 2), b(1, 2);
  ASSERT_TRUE(a.Update("x", "v").ok());
  // a asks b; b has nothing a misses.
  const PropagationResponseView& resp = b.HandlePropagationView(
      a.BuildPropagationRequest());
  EXPECT_TRUE(resp.you_are_current);
}

TEST(PropagationTest, BasicOneItemPropagation) {
  Replica a(0, 2), b(1, 2);
  ASSERT_TRUE(b.Update("x", "v1").ok());

  const PropagationResponseView& resp = b.HandlePropagationView(
      a.BuildPropagationRequest());
  ASSERT_FALSE(resp.you_are_current);
  ASSERT_EQ(resp.items.size(), 1u);
  EXPECT_EQ(resp.items[0].name, "x");
  EXPECT_EQ(resp.items[0].value, "v1");
  ASSERT_EQ(resp.tails.size(), 2u);
  EXPECT_TRUE(resp.tails[0].empty());
  ASSERT_EQ(resp.tails[1].size(), 1u);
  EXPECT_EQ(resp.tails[1][0].seq, 1u);

  ASSERT_TRUE(a.AcceptPropagation(resp).ok());
  EXPECT_EQ(*a.Read("x"), "v1");
  EXPECT_EQ(a.dbvv(), b.dbvv());
  EXPECT_EQ(a.FindItem("x")->ivv, b.FindItem("x")->ivv);
  EXPECT_TRUE(a.CheckInvariants().ok());
  EXPECT_TRUE(b.CheckInvariants().ok());
}

TEST(PropagationTest, PropagateOnceHelper) {
  Replica a(0, 2), b(1, 2);
  ASSERT_TRUE(b.Update("x", "v").ok());
  ASSERT_TRUE(b.Update("y", "w").ok());
  auto copied = PropagateOnce(/*source=*/b, /*recipient=*/a);
  ASSERT_TRUE(copied.ok());
  EXPECT_EQ(*copied, 2u);
  EXPECT_EQ(*a.Read("y"), "w");

  // Second exchange finds identical replicas: zero items.
  auto again = PropagateOnce(b, a);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, 0u);
}

// A source answering an older request re-ships records the recipient has
// received since: they are skipped, and the rest of the response lands.
TEST(PropagationTest, StaleRequestSkipsReshippedRecordsAndDeliversTheRest) {
  Replica a(0, 2), b(1, 2);
  const PropagationRequest old_request = a.BuildPropagationRequest();
  ASSERT_TRUE(a.Update("y", "vy").ok());
  ASSERT_TRUE(PropagateOnce(/*source=*/a, /*recipient=*/b).ok());
  ASSERT_TRUE(b.Update("z", "vz").ok());

  const PropagationResponseView& resp = b.HandlePropagationView(old_request);
  ASSERT_EQ(resp.tails[0].size(), 1u);  // (y, 1): a's own update, held
  ASSERT_TRUE(a.AcceptPropagation(resp).ok());
  EXPECT_EQ(*a.Read("z"), "vz");
  EXPECT_EQ(a.dbvv(), b.dbvv());
  EXPECT_EQ(a.CanonicalState(), b.CanonicalState());
  EXPECT_TRUE(a.CheckInvariants().ok());
}

TEST(PropagationTest, OnlyLatestVersionShipped) {
  Replica a(0, 2), b(1, 2);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(b.Update("x", "v" + std::to_string(i)).ok());
  }
  b.ResetStats();
  ASSERT_TRUE(PropagateOnce(b, a).ok());
  // Ten updates, but only one record and one item cross the wire (§6).
  EXPECT_EQ(b.stats().log_records_selected, 1u);
  EXPECT_EQ(b.stats().items_shipped, 1u);
  EXPECT_EQ(*a.Read("x"), "v9");
}

TEST(PropagationTest, SelectedFlagsDeduplicateAcrossTails) {
  // Node 2 pulls from node 1 after both 0 and 1 updated the same item; the
  // tails for origins 0 and 1 both reference "x", but S must contain it once.
  Replica n0(0, 3), n1(1, 3), n2(2, 3);
  ASSERT_TRUE(n0.Update("x", "from0").ok());
  ASSERT_TRUE(PropagateOnce(n0, n1).ok());
  ASSERT_TRUE(n1.Update("x", "from1").ok());

  const PropagationResponseView& resp = n1.HandlePropagationView(
      n2.BuildPropagationRequest());
  ASSERT_FALSE(resp.you_are_current);
  EXPECT_EQ(resp.tails[0].size(), 1u);
  EXPECT_EQ(resp.tails[1].size(), 1u);
  EXPECT_EQ(resp.items.size(), 1u);  // deduplicated by IsSelected
  ASSERT_TRUE(n2.AcceptPropagation(resp).ok());
  EXPECT_EQ(*n2.Read("x"), "from1");
  EXPECT_TRUE(n2.CheckInvariants().ok());
}

TEST(PropagationTest, IsSelectedFlagsResetAfterSend) {
  Replica a(0, 2), b(1, 2);
  ASSERT_TRUE(b.Update("x", "v").ok());
  (void)b.HandlePropagationView(a.BuildPropagationRequest());
  // Flags must be flipped back so the next request is unaffected.
  EXPECT_TRUE(b.CheckInvariants().ok());
  const PropagationResponseView& resp = b.HandlePropagationView(
      a.BuildPropagationRequest());
  EXPECT_EQ(resp.items.size(), 1u);
}

TEST(PropagationTest, TransitivePropagationThroughMiddleNode) {
  Replica n0(0, 3), n1(1, 3), n2(2, 3);
  ASSERT_TRUE(n0.Update("x", "v").ok());
  ASSERT_TRUE(PropagateOnce(n0, n1).ok());
  // n2 learns n0's update from n1, never talking to n0.
  ASSERT_TRUE(PropagateOnce(n1, n2).ok());
  EXPECT_EQ(*n2.Read("x"), "v");
  EXPECT_EQ(n2.dbvv(), Vv({1, 0, 0}));
  EXPECT_TRUE(n2.CheckInvariants().ok());
}

TEST(PropagationTest, IndirectlyCurrentReplicasDetectedInConstantTime) {
  // The Lotus weakness our protocol fixes (§8.1): i got j's data via an
  // intermediary; a direct i<->j comparison must still be a constant-time
  // "you-are-current".
  Replica n0(0, 3), n1(1, 3), n2(2, 3);
  ASSERT_TRUE(n0.Update("x", "v").ok());
  ASSERT_TRUE(PropagateOnce(n0, n1).ok());
  ASSERT_TRUE(PropagateOnce(n1, n2).ok());

  n0.ResetStats();
  const PropagationResponseView& resp = n0.HandlePropagationView(
      n2.BuildPropagationRequest());
  EXPECT_TRUE(resp.you_are_current);
  EXPECT_EQ(n0.stats().log_records_selected, 0u);
  EXPECT_EQ(n0.stats().items_shipped, 0u);
}

TEST(PropagationTest, BidirectionalDivergenceBothDirectionsNeeded) {
  Replica a(0, 2), b(1, 2);
  ASSERT_TRUE(a.Update("ax", "1").ok());
  ASSERT_TRUE(b.Update("bx", "2").ok());

  ASSERT_TRUE(PropagateOnce(b, a).ok());  // a learns bx
  EXPECT_EQ(*a.Read("bx"), "2");
  EXPECT_TRUE(a.Read("ax").ok());
  ASSERT_TRUE(PropagateOnce(a, b).ok());  // b learns ax
  EXPECT_EQ(*b.Read("ax"), "1");
  EXPECT_EQ(a.dbvv(), b.dbvv());
  EXPECT_TRUE(a.CheckInvariants().ok());
  EXPECT_TRUE(b.CheckInvariants().ok());
}

TEST(PropagationTest, ManyItemsManyRounds) {
  Replica a(0, 2), b(1, 2);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(a.Update("a" + std::to_string(i), "x").ok());
    ASSERT_TRUE(b.Update("b" + std::to_string(i), "y").ok());
  }
  ASSERT_TRUE(PropagateOnce(a, b).ok());
  ASSERT_TRUE(PropagateOnce(b, a).ok());
  EXPECT_EQ(a.dbvv(), b.dbvv());
  EXPECT_EQ(a.items().size(), 200u);
  EXPECT_EQ(b.items().size(), 200u);
  EXPECT_TRUE(a.CheckInvariants().ok());
  EXPECT_TRUE(b.CheckInvariants().ok());
}

// ---------------------------------------------------------------------------
// Conflict handling.

TEST(ConflictTest, ConcurrentUpdatesDetectedAndNotAdopted) {
  RecordingConflictListener conflicts_a;
  Replica a(0, 2, &conflicts_a);
  Replica b(1, 2);
  ASSERT_TRUE(a.Update("x", "fromA").ok());
  ASSERT_TRUE(b.Update("x", "fromB").ok());

  ASSERT_TRUE(PropagateOnce(b, a).ok());
  // Criterion 1 of §2.1: the inconsistency is detected...
  EXPECT_EQ(conflicts_a.count(), 1u);
  EXPECT_EQ(conflicts_a.events()[0].item_name, "x");
  EXPECT_EQ(conflicts_a.events()[0].source, ConflictSource::kPropagation);
  // ...and criterion 2: no overwrite happened.
  EXPECT_EQ(*a.Read("x"), "fromA");
  EXPECT_EQ(a.stats().conflicts_detected, 1u);
  EXPECT_TRUE(a.CheckInvariants().ok());
}

TEST(ConflictTest, ConflictingItemRecordsDroppedButOthersPropagate) {
  RecordingConflictListener conflicts;
  Replica a(0, 2, &conflicts);
  Replica b(1, 2);
  ASSERT_TRUE(a.Update("x", "fromA").ok());
  ASSERT_TRUE(b.Update("x", "fromB").ok());
  ASSERT_TRUE(b.Update("y", "clean").ok());

  ASSERT_TRUE(PropagateOnce(b, a).ok());
  EXPECT_EQ(conflicts.count(), 1u);
  EXPECT_EQ(*a.Read("x"), "fromA");  // conflicting copy rejected
  EXPECT_EQ(*a.Read("y"), "clean");  // clean item still propagated
  // The dropped record must not be in a's log for origin 1: only y's.
  EXPECT_EQ(a.log_vector().ForOrigin(1).size(), 1u);
  EXPECT_TRUE(a.CheckInvariants().ok());
}

TEST(ConflictTest, ConflictReportedOnBothSides) {
  RecordingConflictListener ca, cb;
  Replica a(0, 2, &ca);
  Replica b(1, 2, &cb);
  ASSERT_TRUE(a.Update("x", "A").ok());
  ASSERT_TRUE(b.Update("x", "B").ok());
  ASSERT_TRUE(PropagateOnce(b, a).ok());
  ASSERT_TRUE(PropagateOnce(a, b).ok());
  EXPECT_EQ(ca.count(), 1u);
  EXPECT_EQ(cb.count(), 1u);
}

TEST(ConflictTest, ConflictResolvedBySupersedingUpdate) {
  // After a conflict, a fresh update on one side that has *seen* both
  // histories cannot arise without application action; but a new update on
  // b makes b's copy strictly dominate its previous one, and a still
  // conflicts. This documents that conflicts persist until resolved.
  RecordingConflictListener conflicts;
  Replica a(0, 2, &conflicts);
  Replica b(1, 2);
  ASSERT_TRUE(a.Update("x", "A").ok());
  ASSERT_TRUE(b.Update("x", "B").ok());
  ASSERT_TRUE(PropagateOnce(b, a).ok());
  EXPECT_EQ(conflicts.count(), 1u);
  ASSERT_TRUE(b.Update("x", "B2").ok());
  ASSERT_TRUE(PropagateOnce(b, a).ok());
  EXPECT_EQ(conflicts.count(), 2u);  // still concurrent, still reported
  EXPECT_EQ(*a.Read("x"), "A");
}

// ---------------------------------------------------------------------------
// Malformed input handling. Forged responses are written by hand in the
// owned form and accepted through the view accept, like a decoded one.

Status AcceptOwned(Replica& r, const PropagationResponse& resp) {
  PropagationResponseView view;
  wire::MakeResponseView(resp, &view);
  return r.AcceptPropagation(view);
}

TEST(RobustnessTest, WrongTailVectorWidthRejected) {
  Replica a(0, 2);
  PropagationResponse resp;
  resp.you_are_current = false;
  resp.tails.resize(5);  // wrong: should be 2
  EXPECT_TRUE(AcceptOwned(a, resp).IsInvalidArgument());
}

TEST(RobustnessTest, WrongIvvWidthRejected) {
  Replica a(0, 2);
  PropagationResponse resp;
  resp.tails.resize(2);
  WireItem item;
  item.name = "x";
  item.ivv = VersionVector(7);
  resp.items.push_back(item);
  EXPECT_TRUE(AcceptOwned(a, resp).IsInvalidArgument());
}

// Builds a minimal valid response shipping one item with one record.
PropagationResponse OneItemResponse(size_t n, const std::string& name,
                                    UpdateCount seq, NodeId origin) {
  PropagationResponse resp;
  resp.tails.resize(n);
  resp.tails[origin].push_back(WireLogRecord{name, seq});
  WireItem item;
  item.name = name;
  item.value = "v";
  VersionVector ivv(n);
  ivv[origin] = seq;
  item.ivv = ivv;
  resp.items.push_back(item);
  return resp;
}

TEST(RobustnessTest, OutOfOrderTailRejected) {
  Replica a(0, 2);
  PropagationResponse resp = OneItemResponse(2, "x", 2, 1);
  resp.tails[1].push_back(WireLogRecord{"x", 1});  // decreasing seq
  EXPECT_TRUE(AcceptOwned(a, resp).IsInvalidArgument());
  EXPECT_EQ(a.dbvv().Total(), 0u);  // nothing applied
  EXPECT_TRUE(a.CheckInvariants().ok());
}

// A record at or below the horizon that P_k(x) already covers is a
// re-shipment (a source answering an older request): skipped, no change.
TEST(RobustnessTest, TailRecordBelowHorizonCoveredIsNoop) {
  Replica a(0, 2), b(1, 2);
  ASSERT_TRUE(b.Update("x", "v").ok());
  ASSERT_TRUE(PropagateOnce(b, a).ok());  // a's horizon for origin 1 is 1
  const std::string before = a.CanonicalState();
  PropagationResponse stale = OneItemResponse(2, "x", 1, 1);  // seq == horizon
  EXPECT_TRUE(AcceptOwned(a, stale).ok());
  EXPECT_EQ(a.CanonicalState(), before);
  EXPECT_EQ(a.stats().redundant_items_received, 1u);
  EXPECT_TRUE(a.CheckInvariants().ok());
}

// Below the horizon, a record P_k(x) does not cover cannot come from a
// correct source: rejected whole, before anything changes.
TEST(RobustnessTest, TailRecordBelowHorizonUncoveredRejected) {
  Replica a(0, 2), b(1, 2);
  ASSERT_TRUE(b.Update("x", "v").ok());
  ASSERT_TRUE(b.Update("y", "w").ok());
  ASSERT_TRUE(PropagateOnce(b, a).ok());  // horizon 2: x at 1, y at 2
  const std::string before = a.CanonicalState();
  // P_1(z) is absent.
  EXPECT_TRUE(
      AcceptOwned(a, OneItemResponse(2, "z", 1, 1)).IsInvalidArgument());
  // P_1(x) holds seq 1, older than the record's 2.
  EXPECT_TRUE(
      AcceptOwned(a, OneItemResponse(2, "x", 2, 1)).IsInvalidArgument());
  EXPECT_EQ(a.CanonicalState(), before);
  EXPECT_TRUE(a.CheckInvariants().ok());
}

// Found by fuzzing the v3 segment decoder: DBVV[k] is a sum of item-IVV
// components, so after a conflict drops records it falls below the largest
// seq already in L[k]. The per-origin horizon check alone then lets a
// forged tail claim a seq the log already holds for a different item,
// inserting a duplicate that breaks the origin-order invariant.
TEST(RobustnessTest, TailSeqReuseForDifferentItemRejected) {
  Replica a(0, 3), b(1, 3);
  ASSERT_TRUE(a.Update("alpha", "a0").ok());
  ASSERT_TRUE(a.Update("beta", "b0").ok());
  ASSERT_TRUE(b.Update("beta", "b1").ok());   // will conflict at a
  ASSERT_TRUE(b.Update("gamma", "g1").ok());  // origin seq 2
  auto copied = PropagateOnce(b, a);
  ASSERT_TRUE(copied.ok() || copied.status().IsConflict());
  // The dropped beta record leaves a's horizon below gamma's seq.
  ASSERT_EQ(a.dbvv()[1], 1u);

  PropagationResponse forged;
  forged.tails.resize(3);
  forged.tails[1].push_back(WireLogRecord{"evil", 2});  // L[1] holds 2: gamma
  WireItem item;
  item.name = "evil";
  item.value = "v";
  item.ivv = VersionVector(3);
  item.ivv[1] = 1;  // dominates the fresh local copy → survives the filter
  forged.items.push_back(item);
  EXPECT_TRUE(AcceptOwned(a, forged).IsInvalidArgument());
  EXPECT_TRUE(a.CheckInvariants().ok());

  // Re-shipping the same seq for the *same* item is legitimate (a relayed
  // dominating copy replaces the record in place via P(x)).
  PropagationResponse reship;
  reship.tails.resize(3);
  reship.tails[1].push_back(WireLogRecord{"gamma", 2});
  reship.tails[2].push_back(WireLogRecord{"gamma", 1});
  WireItem gamma;
  gamma.name = "gamma";
  gamma.value = "g2";
  gamma.ivv = VersionVector(3);
  gamma.ivv[1] = 1;
  gamma.ivv[2] = 1;  // node 2 updated gamma on top of b's write
  reship.items.push_back(gamma);
  ASSERT_TRUE(AcceptOwned(a, reship).ok());
  EXPECT_EQ(*a.Read("gamma"), "g2");
  EXPECT_TRUE(a.CheckInvariants().ok());
}

TEST(RobustnessTest, RecordForUnshippedItemRejected) {
  Replica a(0, 2);
  PropagationResponse resp = OneItemResponse(2, "x", 1, 1);
  resp.tails[1].push_back(WireLogRecord{"ghost", 2});  // not in S
  EXPECT_TRUE(AcceptOwned(a, resp).IsInvalidArgument());
}

TEST(RobustnessTest, DuplicateItemInResponseRejected) {
  Replica a(0, 2);
  PropagationResponse resp = OneItemResponse(2, "x", 1, 1);
  resp.items.push_back(resp.items[0]);
  EXPECT_TRUE(AcceptOwned(a, resp).IsInvalidArgument());
}

// A repeated name that is already stored is caught by its IsSelected mark,
// which the rejection must leave down again.
TEST(RobustnessTest, DuplicateStoredItemRejectedAndMarkCleared) {
  Replica a(0, 2);
  ASSERT_TRUE(a.Update("x", "mine").ok());
  PropagationResponse resp = OneItemResponse(2, "x", 1, 1);
  resp.items.push_back(resp.items[0]);
  EXPECT_TRUE(AcceptOwned(a, resp).IsInvalidArgument());
  EXPECT_FALSE(a.FindItem("x")->is_selected);
  EXPECT_EQ(*a.Read("x"), "mine");
  EXPECT_TRUE(a.CheckInvariants().ok());
}

// Tail records resolve through their index into S; an index naming a
// different item than the record is a forgery.
TEST(RobustnessTest, TailIndexNamingAnotherItemRejected) {
  Replica a(0, 2);
  PropagationResponse resp = OneItemResponse(2, "x", 1, 1);
  resp.items.push_back(OneItemResponse(2, "y", 1, 0).items[0]);
  PropagationResponseView view;
  wire::MakeResponseView(resp, &view);
  ASSERT_EQ(view.tails[1][0].item_index, 0u);
  view.tails[1][0].item_index = 1;  // S[1] is y, the record names x
  EXPECT_TRUE(a.AcceptPropagation(view).IsInvalidArgument());
  EXPECT_EQ(a.dbvv(), Vv({0, 0}));
  EXPECT_TRUE(a.CheckInvariants().ok());
}

TEST(RobustnessTest, EmptyItemNameRejected) {
  Replica a(0, 2);
  PropagationResponse resp = OneItemResponse(2, "", 1, 1);
  EXPECT_TRUE(AcceptOwned(a, resp).IsInvalidArgument());
}

TEST(RobustnessTest, ValidSyntheticResponseAccepted) {
  Replica a(0, 2);
  PropagationResponse resp = OneItemResponse(2, "x", 1, 1);
  ASSERT_TRUE(AcceptOwned(a, resp).ok());
  EXPECT_EQ(*a.Read("x"), "v");
  EXPECT_TRUE(a.CheckInvariants().ok());
}

TEST(RobustnessTest, YouAreCurrentAcceptIsNoop) {
  Replica a(0, 2);
  PropagationResponse resp;
  resp.you_are_current = true;
  EXPECT_TRUE(AcceptOwned(a, resp).ok());
  EXPECT_EQ(a.dbvv(), Vv({0, 0}));
}

// ---------------------------------------------------------------------------
// Stats counters.

TEST(StatsTest, CountersTrackOperations) {
  Replica a(0, 2), b(1, 2);
  ASSERT_TRUE(b.Update("x", "v").ok());
  ASSERT_TRUE(b.Update("y", "w").ok());
  ASSERT_TRUE(PropagateOnce(b, a).ok());

  EXPECT_EQ(b.stats().updates_regular, 2u);
  EXPECT_EQ(b.stats().propagation_requests_served, 1u);
  EXPECT_EQ(b.stats().dbvv_comparisons, 1u);
  EXPECT_EQ(b.stats().items_shipped, 2u);
  EXPECT_EQ(a.stats().items_adopted, 2u);
  EXPECT_EQ(a.stats().records_appended, 2u);
  EXPECT_EQ(a.stats().item_ivv_comparisons, 2u);

  a.ResetStats();
  EXPECT_EQ(a.stats().items_adopted, 0u);
}

}  // namespace
}  // namespace epidemic
