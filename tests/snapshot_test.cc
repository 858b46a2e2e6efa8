#include "core/snapshot.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/hash.h"
#include "common/random.h"
#include "core/replica.h"
#include "vv/vv_codec.h"

namespace epidemic {
namespace {

Status OobFetch(Replica& source, Replica& dest, std::string_view item) {
  OobRequest req = dest.BuildOobRequest(item);
  OobResponse resp = source.HandleOobRequest(req);
  return dest.AcceptOobResponse(resp);
}

// Drives `r` into a rich state: values, tombstones, foreign updates,
// auxiliary copies, pending aux-log records.
void PopulateRich(Replica& r, Replica& peer) {
  ASSERT_TRUE(peer.Update("shared", "from-peer").ok());
  ASSERT_TRUE(peer.Update("hot", "peer-hot").ok());
  ASSERT_TRUE(PropagateOnce(peer, r).ok());

  ASSERT_TRUE(r.Update("local", "mine").ok());
  ASSERT_TRUE(r.Update("local", "mine2").ok());
  ASSERT_TRUE(r.Delete("doomed").ok());

  // Out-of-bound fetch of a fresher 'hot' plus pending local edits.
  ASSERT_TRUE(peer.Update("hot", "peer-hot2").ok());
  ASSERT_TRUE(OobFetch(peer, r, "hot").ok());
  ASSERT_TRUE(r.Update("hot", "local-hot").ok());
  ASSERT_TRUE(r.Update("hot", "local-hot2").ok());
}

void ExpectEquivalent(const Replica& a, const Replica& b) {
  EXPECT_EQ(a.id(), b.id());
  EXPECT_EQ(a.num_nodes(), b.num_nodes());
  EXPECT_EQ(a.dbvv(), b.dbvv());
  EXPECT_EQ(a.items().size(), b.items().size());
  for (const Item& item : a.items()) {
    const Item* other = b.FindItem(item.name);
    ASSERT_NE(other, nullptr) << item.name;
    EXPECT_EQ(item.value, other->value) << item.name;
    EXPECT_EQ(item.deleted, other->deleted) << item.name;
    EXPECT_EQ(item.ivv, other->ivv) << item.name;
    EXPECT_EQ(item.HasAux(), other->HasAux()) << item.name;
    if (item.HasAux() && other->HasAux()) {
      EXPECT_EQ(item.aux->value, other->aux->value);
      EXPECT_EQ(item.aux->deleted, other->aux->deleted);
      EXPECT_EQ(item.aux->ivv, other->aux->ivv);
    }
  }
  EXPECT_EQ(a.log_vector().TotalRecords(), b.log_vector().TotalRecords());
  EXPECT_EQ(a.aux_log().size(), b.aux_log().size());
}

TEST(SnapshotTest, EmptyReplicaRoundTrip) {
  Replica r(1, 3);
  auto restored = DecodeSnapshot(EncodeSnapshot(r));
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ExpectEquivalent(r, **restored);
  EXPECT_TRUE((*restored)->CheckInvariants().ok());
}

TEST(SnapshotTest, RichStateRoundTrip) {
  Replica r(0, 3), peer(1, 3);
  PopulateRich(r, peer);
  ASSERT_TRUE(r.CheckInvariants().ok());

  auto restored = DecodeSnapshot(EncodeSnapshot(r));
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ExpectEquivalent(r, **restored);
  EXPECT_TRUE((*restored)->CheckInvariants().ok());

  // The restored replica behaves like the original: user reads agree.
  EXPECT_EQ(*(*restored)->Read("hot"), *r.Read("hot"));
  EXPECT_TRUE((*restored)->Read("doomed").status().IsNotFound());
}

TEST(SnapshotTest, RestoredReplicaResumesProtocol) {
  Replica r(0, 3), peer(1, 3);
  PopulateRich(r, peer);

  auto restored = DecodeSnapshot(EncodeSnapshot(r));
  ASSERT_TRUE(restored.ok());
  Replica& revived = **restored;

  // Peer made progress while we were "down"; the revived node pulls and
  // completes the pending intra-node replay.
  ASSERT_TRUE(peer.Update("shared", "newer").ok());
  ASSERT_TRUE(PropagateOnce(peer, revived).ok());
  EXPECT_EQ(*revived.Read("shared"), "newer");
  EXPECT_EQ(*revived.Read("hot"), "local-hot2");
  EXPECT_FALSE(revived.FindItem("hot")->HasAux());  // replay completed
  EXPECT_TRUE(revived.CheckInvariants().ok());

  // And it can serve as a source again.
  Replica n2(2, 3);
  ASSERT_TRUE(PropagateOnce(revived, n2).ok());
  EXPECT_EQ(*n2.Read("local"), "mine2");
}

TEST(SnapshotTest, SaveAndLoadFile) {
  const std::string path = ::testing::TempDir() + "/epi_snapshot_test.bin";
  Replica r(0, 2), peer(1, 2);
  PopulateRich(r, peer);
  ASSERT_TRUE(SaveSnapshot(r, path).ok());

  auto loaded = LoadSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectEquivalent(r, **loaded);
  std::remove(path.c_str());
}

TEST(SnapshotTest, LoadMissingFileIsNotFound) {
  auto loaded = LoadSnapshot("/nonexistent/dir/snap.bin");
  EXPECT_TRUE(loaded.status().IsNotFound());
}

// Only a missing file is absent. One that exists but cannot be opened (a
// symlink to itself here; permissions or EMFILE in deployment) is an
// error, which recovery must not mistake for "no snapshot".
TEST(SnapshotTest, LoadUnopenableFileIsIOError) {
  const std::string path = ::testing::TempDir() + "/epi_snapshot_loop.bin";
  std::remove(path.c_str());
  ASSERT_EQ(::symlink("epi_snapshot_loop.bin", path.c_str()), 0);
  auto loaded = LoadSnapshot(path);
  std::remove(path.c_str());
  EXPECT_TRUE(loaded.status().IsIOError()) << loaded.status().ToString();
}

TEST(SnapshotTest, BadMagicRejected) {
  auto r = DecodeSnapshot("WRONGMAGIC-and-some-data");
  EXPECT_TRUE(r.status().IsCorruption());
}

TEST(SnapshotTest, EmptyBlobRejected) {
  EXPECT_TRUE(DecodeSnapshot("").status().IsCorruption());
}

TEST(SnapshotTest, TruncatedSnapshotsFailCleanly) {
  Replica r(0, 3), peer(1, 3);
  PopulateRich(r, peer);
  std::string blob = EncodeSnapshot(r);
  // Every strict prefix must fail with Corruption (or, for a cut exactly at
  // a section boundary, an Internal invariant failure) — never crash.
  Rng rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    size_t cut = rng.Uniform(blob.size());
    auto restored = DecodeSnapshot(std::string_view(blob).substr(0, cut));
    EXPECT_FALSE(restored.ok()) << "prefix " << cut << " decoded";
  }
}

TEST(SnapshotTest, EveryByteFlipCaughtByChecksum) {
  Replica r(0, 2), peer(1, 2);
  PopulateRich(r, peer);
  std::string blob = EncodeSnapshot(r);
  Rng rng(9);
  for (int trial = 0; trial < 300; ++trial) {
    std::string mutated = blob;
    size_t pos = rng.Uniform(mutated.size());
    char flip = static_cast<char>(1 + rng.Uniform(255));  // guaranteed change
    mutated[pos] = static_cast<char>(mutated[pos] ^ flip);
    auto restored = DecodeSnapshot(mutated);
    // Every byte is covered by the trailing CRC-32C (or *is* the CRC), so
    // any flip must be rejected — no silent acceptance of bit rot.
    EXPECT_FALSE(restored.ok()) << "pos=" << pos;
    if (!restored.ok()) {
      EXPECT_TRUE(restored.status().IsCorruption());
    }
  }
}

// A one-node snapshot of item "x" (IVV [1]) whose L[0] holds `records`,
// (item id, seq) pairs, laid out and checksummed as EncodeSnapshot does.
std::string SnapshotWithLog(
    const std::vector<std::pair<uint64_t, uint64_t>>& records) {
  const VersionVector one(std::vector<UpdateCount>{1});
  ByteWriter w;
  w.PutBytes("EPISNAP1", 8);
  w.PutVarint64(0);  // node id
  w.PutVarint64(1);  // nodes
  EncodeVersionVector(&w, one);
  w.PutVarint64(1);  // items
  w.PutString("x");
  w.PutString("v");
  w.PutU8(0);  // not deleted
  EncodeVersionVector(&w, one);
  w.PutU8(0);  // no auxiliary copy
  w.PutVarint64(records.size());
  for (const auto& [item, seq] : records) {
    w.PutVarint64(item);
    w.PutVarint64(seq);
  }
  w.PutVarint64(0);  // auxiliary log
  std::string body = w.Release();
  ByteWriter out;
  out.PutBytes(body.data(), body.size());
  out.PutFixed32(Crc32c(body));
  return out.Release();
}

TEST(SnapshotTest, MalformedLogRecordsRejected) {
  ASSERT_TRUE(DecodeSnapshot(SnapshotWithLog({{0, 1}})).ok());
  const std::pair<std::vector<std::pair<uint64_t, uint64_t>>, std::string>
      cases[] = {
          {{{0, 1}, {0, 1}}, "duplicate log record for item 'x'"},
          {{{0, 0}}, "log record with sequence number 0"},
          {{{1, 1}}, "log record references unknown item"},
      };
  for (const auto& [records, message] : cases) {
    auto restored = DecodeSnapshot(SnapshotWithLog(records));
    EXPECT_TRUE(restored.status().IsCorruption()) << message;
    EXPECT_EQ(restored.status().message(), message);
  }
}

TEST(SnapshotTest, SnapshotIsDeterministic) {
  Replica r(0, 2), peer(1, 2);
  PopulateRich(r, peer);
  EXPECT_EQ(EncodeSnapshot(r), EncodeSnapshot(r));
}

}  // namespace
}  // namespace epidemic
