#include "core/journal.h"

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/random.h"
#include "core/replica.h"
#include "core/sharded_replica.h"
#include "core/wire.h"
#include "vv/vv_codec.h"

namespace epidemic {
namespace {

// Records `replica`'s journal holds since its last checkpoint.
uint64_t Records(const Replica& replica) {
  return replica.journal()->records_since_checkpoint();
}

// Over every shard of `replica`.
uint64_t Records(const ShardedReplica& replica) {
  uint64_t total = 0;
  for (size_t k = 0; k < replica.num_shards(); ++k) {
    total += Records(replica.shard(k));
  }
  return total;
}

Status CheckpointEveryShard(ShardedReplica& replica) {
  for (size_t k = 0; k < replica.num_shards(); ++k) {
    EPI_RETURN_NOT_OK(replica.shard(k).Checkpoint());
  }
  return Status::OK();
}

class JournalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/journal_test_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }

  void TearDown() override { std::filesystem::remove_all(dir_); }

  // Applies `input` to a journaled replica holding one update and expects
  // InvalidArgument with no new record; then the journal must reopen with
  // the same DBVV.
  void ExpectRejectedAndNotJournaled(
      const std::function<Status(Replica&)>& input) {
    VersionVector dbvv_before;
    {
      auto jr = Journal::Open(dir_, 0, 2);
      ASSERT_TRUE(jr.ok());
      ASSERT_TRUE((*jr)->Update("x", "v").ok());
      const uint64_t records = Records(**jr);
      EXPECT_TRUE(input(**jr).IsInvalidArgument());
      EXPECT_EQ(Records(**jr), records);
      dbvv_before = (*jr)->dbvv();
    }
    auto recovered = Journal::Open(dir_, 0, 2);
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    EXPECT_EQ((*recovered)->dbvv(), dbvv_before);
  }

  std::string dir_;
};

// Runs one full anti-entropy pull from `source` into the journaled `jr`.
Status Pull(Replica& source, Replica& jr) {
  PropagationRequest req = jr.BuildPropagationRequest();
  return jr.AcceptPropagation(source.HandlePropagationView(req));
}

// Frames `payload` the way the journal does: varint length, payload,
// CRC-32C.
std::string JournalFrame(std::string_view payload) {
  ByteWriter w;
  w.PutVarint64(payload.size());
  w.PutBytes(payload.data(), payload.size());
  w.PutFixed32(Crc32c(payload));
  return w.Release();
}

// The payload (record tag first) of every frame in `dir`'s journal, in
// order.
std::vector<std::string> RecordPayloads(const std::string& dir) {
  std::ifstream in(dir + "/journal.log", std::ios::binary);
  const std::string data{std::istreambuf_iterator<char>(in), {}};
  std::vector<std::string> payloads;
  ByteReader r(data);
  while (!r.AtEnd()) {
    auto len = r.GetVarint64();
    if (!len.ok()) break;
    auto payload = r.GetBytesView(static_cast<size_t>(*len));
    if (!payload.ok() || payload->empty() || !r.GetFixed32().ok()) break;
    payloads.emplace_back(*payload);
  }
  return payloads;
}

// The record tag of every frame in `dir`'s journal, in order.
std::vector<uint8_t> RecordTags(const std::string& dir) {
  std::vector<uint8_t> tags;
  for (const std::string& payload : RecordPayloads(dir)) {
    tags.push_back(static_cast<uint8_t>(payload[0]));
  }
  return tags;
}

TEST_F(JournalTest, OpenFreshDirectory) {
  auto jr = Journal::Open(dir_, 0, 3);
  ASSERT_TRUE(jr.ok()) << jr.status().ToString();
  EXPECT_EQ((*jr)->id(), 0u);
  EXPECT_EQ(Records(**jr), 0u);
}

TEST_F(JournalTest, OpenNonDirectoryFails) {
  auto jr = Journal::Open(dir_ + "/nope", 0, 3);
  EXPECT_TRUE(jr.status().IsInvalidArgument());
}

TEST_F(JournalTest, UpdatesSurviveRestart) {
  {
    auto jr = Journal::Open(dir_, 0, 2);
    ASSERT_TRUE(jr.ok());
    ASSERT_TRUE((*jr)->Update("x", "v1").ok());
    ASSERT_TRUE((*jr)->Update("y", "v2").ok());
    ASSERT_TRUE((*jr)->Delete("y").ok());
    EXPECT_EQ(Records(**jr), 3u);
  }  // "crash": destructor, no checkpoint

  auto recovered = Journal::Open(dir_, 0, 2);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(*(*recovered)->Read("x"), "v1");
  EXPECT_TRUE((*recovered)->Read("y").status().IsNotFound());
  EXPECT_TRUE((*recovered)->CheckInvariants().ok());
  // Replay reproduces the exact protocol state, not just user-visible data.
  EXPECT_EQ((*recovered)->dbvv().Total(), 3u);
}

TEST_F(JournalTest, PropagationInputsSurviveRestart) {
  Replica peer(1, 2);
  ASSERT_TRUE(peer.Update("remote", "from-peer").ok());

  std::string dbvv_before;
  {
    auto jr = Journal::Open(dir_, 0, 2);
    ASSERT_TRUE(jr.ok());
    ASSERT_TRUE((*jr)->Update("local", "mine").ok());
    ASSERT_TRUE(Pull(peer, **jr).ok());
    dbvv_before = (*jr)->dbvv().ToString();
  }
  // The view accept journals the v3 segment record epidemicd writes.
  EXPECT_EQ(RecordTags(dir_), (std::vector<uint8_t>{1, 6}));

  auto recovered = Journal::Open(dir_, 0, 2);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(*(*recovered)->Read("remote"), "from-peer");
  EXPECT_EQ(*(*recovered)->Read("local"), "mine");
  EXPECT_EQ((*recovered)->dbvv().ToString(), dbvv_before);
  // Recovered replica resumes anti-entropy exactly where it stopped: an
  // exchange with the unchanged peer is a no-op.
  peer.ResetStats();
  ASSERT_TRUE(Pull(peer, **recovered).ok());
  EXPECT_EQ(peer.stats().you_are_current_replies, 1u);
}

TEST_F(JournalTest, OobInputsSurviveRestart) {
  Replica peer(1, 2);
  ASSERT_TRUE(peer.Update("hot", "h1").ok());
  {
    auto jr = Journal::Open(dir_, 0, 2);
    ASSERT_TRUE(jr.ok());
    OobRequest req = (*jr)->BuildOobRequest("hot");
    OobResponse resp = peer.HandleOobRequest(req);
    ASSERT_TRUE((*jr)->AcceptOobResponse(resp).ok());
    ASSERT_TRUE((*jr)->Update("hot", "h2").ok());  // aux update, journaled
  }
  auto recovered = Journal::Open(dir_, 0, 2);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(*(*recovered)->Read("hot"), "h2");
  EXPECT_TRUE((*recovered)->FindItem("hot")->HasAux());
  EXPECT_EQ((*recovered)->aux_log().size(), 1u);
}

// A raw v3 segment body reaches a durable shard the way a daemon's accept
// delivers it: ShardedReplica::AcceptShardPropagationSegmentV3 on a
// one-shard node, whose journal is `<dir>/shard-000/journal.log`.
TEST_F(JournalTest, V3SegmentInputsSurviveRestart) {
  Replica peer(1, 2);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(peer.Update("k" + std::to_string(i), "v" + std::to_string(i))
                    .ok());
  }

  std::string canonical_before;
  {
    auto node = ShardedReplica::Open(dir_, 0, 2, /*num_shards=*/1);
    ASSERT_TRUE(node.ok());
    Replica& jr = (*node)->shard(0);
    ASSERT_TRUE(jr.Update("local", "mine").ok());
    // A real v3 segment: serve the view at the peer, encode it against the
    // peer's DBVV, and accept the raw body.
    const PropagationResponseView& view =
        peer.HandlePropagationView(jr.BuildPropagationRequest());
    ByteWriter w;
    wire::EncodeShardSegmentBodyV3Into(w, view, peer.dbvv());
    const VersionVector dbvv_at_accept = jr.dbvv();
    ASSERT_TRUE((*node)->AcceptShardPropagationSegmentV3(0, w.data()).ok());
    EXPECT_EQ(Records(jr), 2u);
    canonical_before = jr.CanonicalState();
    // Record 6 is the view the replica validated, encoded against its own
    // DBVV, not the peer's body copied verbatim.
    const std::vector<std::string> payloads =
        RecordPayloads(dir_ + "/shard-000");
    ASSERT_EQ(payloads.size(), 2u);
    EXPECT_EQ(static_cast<uint8_t>(payloads[1][0]), 6);
    ByteWriter expected;
    expected.PutU8(6);
    wire::EncodeShardSegmentBodyV3Into(expected, view, dbvv_at_accept);
    EXPECT_EQ(payloads[1], expected.data());
    EXPECT_NE(payloads[1].substr(1), w.data());
  }  // "crash": destructor, no checkpoint

  // Replay decodes the stored segment body through the same zero-copy
  // path and must land on the identical protocol state.
  auto recovered = ShardedReplica::Open(dir_, 0, 2, 1);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  const Replica& r = (*recovered)->shard(0);
  EXPECT_EQ(r.CanonicalState(), canonical_before);
  EXPECT_EQ(*(*recovered)->Read("k3"), "v3");
  EXPECT_EQ(*(*recovered)->Read("local"), "mine");
  EXPECT_TRUE(r.CheckInvariants().ok());
}

TEST_F(JournalTest, CorruptV3SegmentIsRejectedBeforeJournaling) {
  Replica peer(1, 2);
  ASSERT_TRUE(peer.Update("x", "v").ok());
  auto node = ShardedReplica::Open(dir_, 0, 2, /*num_shards=*/1);
  ASSERT_TRUE(node.ok());

  const PropagationResponseView& view =
      peer.HandlePropagationView((*node)->shard(0).BuildPropagationRequest());
  ByteWriter w;
  wire::EncodeShardSegmentBodyV3Into(w, view, peer.dbvv());
  std::string body = w.Release();
  body[0] = static_cast<char>(body[0] | 0x80);  // unknown flag bit
  EXPECT_FALSE((*node)->AcceptShardPropagationSegmentV3(0, body).ok());
  // Validation happens before the append: the journal holds no record of
  // the rejected body, so recovery can never trip over it.
  EXPECT_EQ(Records(**node), 0u);
  EXPECT_TRUE((*node)->Read("x").status().IsNotFound());
}

// A body that decodes but that the replica rejects must not be journaled
// either: replay would reject it again and refuse to recover the node.
TEST_F(JournalTest, RejectedV3SegmentIsNotJournaled) {
  std::string canonical_before;
  {
    auto node = ShardedReplica::Open(dir_, 0, 3, /*num_shards=*/1);
    ASSERT_TRUE(node.ok());
    Replica& jr = (*node)->shard(0);
    Replica b(1, 3);
    ASSERT_TRUE(jr.Update("alpha", "a0").ok());
    ASSERT_TRUE(jr.Update("beta", "b0").ok());
    ASSERT_TRUE(b.Update("beta", "b1").ok());   // conflicts at the journal
    ASSERT_TRUE(b.Update("gamma", "g1").ok());  // origin seq 2
    ASSERT_TRUE(Pull(b, jr).ok());
    // The dropped beta record leaves the horizon below gamma's seq.
    ASSERT_EQ(jr.dbvv()[1], 1u);
    const uint64_t records = Records(jr);
    canonical_before = jr.CanonicalState();

    // The seq-reuse forgery of TailSeqReuseForDifferentItemRejected
    // (replica_test), as a well-formed v3 segment.
    PropagationResponse forged;
    forged.tails.resize(3);
    forged.tails[1].push_back(WireLogRecord{"evil", 2});  // L[1] holds gamma
    forged.items.push_back(
        WireItem{"evil", "v", false, VersionVector({0, 1, 0})});
    PropagationResponseView view;
    wire::MakeResponseView(forged, &view);
    ByteWriter w;
    wire::EncodeShardSegmentBodyV3Into(w, view, b.dbvv());
    EXPECT_TRUE((*node)
                    ->AcceptShardPropagationSegmentV3(0, w.data())
                    .IsInvalidArgument());
    EXPECT_TRUE(jr.AcceptPropagation(view).IsInvalidArgument());
    EXPECT_EQ(Records(jr), records);
  }

  auto recovered = ShardedReplica::Open(dir_, 0, 3, 1);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ((*recovered)->shard(0).CanonicalState(), canonical_before);
  EXPECT_TRUE((*recovered)->CheckInvariants().ok());
}

// Any input the replica rejects must leave no record either: replay would
// reject it again, and the node could not restart.
TEST_F(JournalTest, EmptyNameUpdateIsNotJournaled) {
  ExpectRejectedAndNotJournaled(
      [](Replica& jr) { return jr.Update("", "v"); });
}

TEST_F(JournalTest, EmptyNameDeleteIsNotJournaled) {
  ExpectRejectedAndNotJournaled(
      [](Replica& jr) { return jr.Delete(""); });
}

// The OOB reply of a peer started with a different node count.
TEST_F(JournalTest, WrongWidthOobReplyIsNotJournaled) {
  ExpectRejectedAndNotJournaled([](Replica& jr) {
    return jr.AcceptOobResponse(
        OobResponse{true, "x", "w", false, VersionVector({1, 0, 0})});
  });
}

// Rejections that replay tolerates leave no record either.
TEST_F(JournalTest, NotFoundOobReplyAndFailedResolveAreNotJournaled) {
  auto jr = Journal::Open(dir_, 0, 2);
  ASSERT_TRUE(jr.ok());
  ASSERT_TRUE((*jr)->Update("x", "v").ok());
  const uint64_t records = Records(**jr);
  OobResponse missing;
  missing.item_name = "ghost";
  EXPECT_TRUE((*jr)->AcceptOobResponse(missing).IsNotFound());
  EXPECT_TRUE((*jr)->ResolveConflict("ghost", VersionVector({0, 1}), "r")
                  .IsNotFound());
  EXPECT_TRUE((*jr)->ResolveConflict("x", VersionVector({0, 0}), "r")
                  .IsInvalidArgument());  // dominated: no conflict
  EXPECT_EQ(Records(**jr), records);
}

// Record number 3 held the retired whole-database v1 propagation body. A
// journal holding one no longer opens: recovery refuses it instead of
// replaying around the peer input it recorded.
TEST_F(JournalTest, RetiredV1PropagationRecordRefusesToOpen) {
  ByteWriter record;  // item "old" from origin 1, seq 1, in the v1 layout
  record.PutU8(3);
  record.PutU8(0);        // not current
  record.PutVarint64(2);  // two tails
  record.PutVarint64(0);  // D_0 is empty
  record.PutVarint64(1);  // D_1 holds one record
  record.PutString("old");
  record.PutVarint64(1);
  record.PutVarint64(1);  // one item
  record.PutString("old");
  record.PutString("v");
  record.PutU8(0);        // not deleted
  EncodeVersionVector(&record, VersionVector({0, 1}));
  {
    std::ofstream out(dir_ + "/journal.log", std::ios::binary);
    out << JournalFrame(record.data());
  }
  auto jr = Journal::Open(dir_, 0, 2);
  EXPECT_TRUE(jr.status().IsCorruption()) << jr.status().ToString();
}

TEST_F(JournalTest, CheckpointTruncatesJournal) {
  {
    auto jr = Journal::Open(dir_, 0, 2);
    ASSERT_TRUE(jr.ok());
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE((*jr)->Update("k" + std::to_string(i), "v").ok());
    }
    ASSERT_TRUE((*jr)->Checkpoint().ok());
    EXPECT_EQ(Records(**jr), 0u);
    ASSERT_TRUE((*jr)->Update("post", "checkpoint").ok());
    EXPECT_EQ(Records(**jr), 1u);
  }
  auto recovered = Journal::Open(dir_, 0, 2);
  ASSERT_TRUE(recovered.ok());
  // Snapshot carried the first 20; the journal suffix carried the rest.
  EXPECT_EQ(Records(**recovered), 1u);
  EXPECT_EQ(*(*recovered)->Read("k7"), "v");
  EXPECT_EQ(*(*recovered)->Read("post"), "checkpoint");
  EXPECT_EQ((*recovered)->dbvv().Total(), 21u);
}

// A checkpoint must leave the replica able to take the next write, even
// when journal.log was replaced under it (here by a directory): a
// checkpoint that reopens the journal by name fails there, and a replica
// left without a journal stream would crash at the next append.
TEST_F(JournalTest, CheckpointAfterJournalReplacedKeepsTakingWrites) {
  auto jr = Journal::Open(dir_, 0, 2);
  ASSERT_TRUE(jr.ok());
  ASSERT_TRUE((*jr)->Update("a", "1").ok());
  const std::string path = dir_ + "/journal.log";
  std::filesystem::remove(path);
  std::filesystem::create_directory(path);
  const Status checkpointed = (*jr)->Checkpoint();
  EXPECT_TRUE(checkpointed.ok() || checkpointed.IsIOError())
      << checkpointed.ToString();
  const Status updated = (*jr)->Update("b", "2");
  EXPECT_TRUE(updated.ok() || updated.IsIOError()) << updated.ToString();
}

// A journal removed under the open handle takes every append after it to
// an unlinked file. The checkpoint covers what was written there and must
// move the handle to a fresh journal.log, or a write acknowledged after it
// is gone at the next recovery.
TEST_F(JournalTest, CheckpointAfterJournalRemovedKeepsLaterWrites) {
  {
    auto jr = Journal::Open(dir_, 0, 2);
    ASSERT_TRUE(jr.ok());
    ASSERT_TRUE((*jr)->Update("a", "1").ok());
    std::filesystem::remove(dir_ + "/journal.log");
    ASSERT_TRUE((*jr)->Update("b", "2").ok());
    ASSERT_TRUE((*jr)->Checkpoint().ok());
    ASSERT_TRUE((*jr)->Update("c", "3").ok());
  }
  auto recovered = Journal::Open(dir_, 0, 2);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(*(*recovered)->Read("a"), "1");
  EXPECT_EQ(*(*recovered)->Read("b"), "2");
  const Result<std::string> c = (*recovered)->Read("c");
  ASSERT_TRUE(c.ok()) << "acknowledged write lost: " << c.status().ToString();
  EXPECT_EQ(*c, "3");
  EXPECT_EQ(Records(**recovered), 1u);
}

// Replaces `path` with a symlink to itself: it exists, and every open of
// it fails (ELOOP), as an unreadable file would for a daemon started as
// another user.
void MakeUnopenable(const std::string& path) {
  std::filesystem::remove(path);
  std::filesystem::create_symlink(
      std::filesystem::path(path).filename(), path);
}

// A snapshot that exists but cannot be read must stop recovery. Treated as
// absent, it would restart the node from the journal suffix alone: its
// snapshotted writes would vanish and the journaled ones be renumbered
// from 1, onto sequence numbers peers already hold for other items.
TEST_F(JournalTest, UnreadableSnapshotRefusesToOpen) {
  {
    auto jr = Journal::Open(dir_, 0, 2);
    ASSERT_TRUE(jr.ok());
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE((*jr)->Update("s" + std::to_string(i), "v").ok());
    }
    ASSERT_TRUE((*jr)->Checkpoint().ok());
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE((*jr)->Update("j" + std::to_string(i), "v").ok());
    }
  }
  MakeUnopenable(dir_ + "/snapshot.bin");
  auto jr = Journal::Open(dir_, 0, 2);
  ASSERT_FALSE(jr.ok()) << "reopened with dbvv "
                        << (*jr)->dbvv().ToString();
  EXPECT_TRUE(jr.status().IsIOError()) << jr.status().ToString();
}

TEST_F(JournalTest, ShardedUnreadableShardSnapshotRefusesToOpen) {
  constexpr size_t kShards = 4;
  std::string shard_snapshot;
  {
    auto js = ShardedReplica::Open(dir_, 0, 2, kShards);
    ASSERT_TRUE(js.ok());
    for (int i = 0; i < 8; ++i) {
      ASSERT_TRUE((*js)->Update("s" + std::to_string(i), "v").ok());
    }
    ASSERT_TRUE(CheckpointEveryShard(**js).ok());
    ASSERT_TRUE((*js)->Update("j", "v").ok());
    char name[32];
    std::snprintf(name, sizeof(name), "/shard-%03zu/snapshot.bin",
                  (*js)->ShardOf("s0"));
    shard_snapshot = dir_ + name;
  }
  MakeUnopenable(shard_snapshot);
  auto js = ShardedReplica::Open(dir_, 0, 2, kShards);
  ASSERT_FALSE(js.ok());
  EXPECT_TRUE(js.status().IsIOError()) << js.status().ToString();
}

TEST_F(JournalTest, WrongIdentityRejectedAfterCheckpoint) {
  {
    auto jr = Journal::Open(dir_, 0, 2);
    ASSERT_TRUE(jr.ok());
    ASSERT_TRUE((*jr)->Update("x", "v").ok());
    ASSERT_TRUE((*jr)->Checkpoint().ok());
  }
  EXPECT_TRUE(Journal::Open(dir_, 1, 2).status().IsInvalidArgument());
  EXPECT_TRUE(Journal::Open(dir_, 0, 5).status().IsInvalidArgument());
}

TEST_F(JournalTest, TornFinalRecordIgnored) {
  {
    auto jr = Journal::Open(dir_, 0, 2);
    ASSERT_TRUE(jr.ok());
    ASSERT_TRUE((*jr)->Update("x", "v1").ok());
    ASSERT_TRUE((*jr)->Update("y", "v2").ok());
  }
  // Simulate a crash mid-append: chop bytes off the journal tail.
  std::string path = dir_ + "/journal.log";
  auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size - 3);

  auto recovered = Journal::Open(dir_, 0, 2);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(*(*recovered)->Read("x"), "v1");
  // The torn second record is gone, but the replica is consistent.
  EXPECT_TRUE((*recovered)->Read("y").status().IsNotFound());
  EXPECT_TRUE((*recovered)->CheckInvariants().ok());
}

// Appends a frame cut short by a crash: a length prefix promising more
// bytes than follow.
void AppendTornFrame(const std::string& journal_path) {
  std::FILE* f = std::fopen(journal_path.c_str(), "ab");
  ASSERT_NE(f, nullptr);
  const char torn[] = {0x10, 0x01, 0x02};
  ASSERT_EQ(std::fwrite(torn, 1, sizeof(torn), f), sizeof(torn));
  std::fclose(f);
}

// Recovery cuts a torn tail off before appending again. Records written
// after the garbage would otherwise be acknowledged, then lost at the next
// recovery, which stops at the same torn frame.
TEST_F(JournalTest, TornTailIsCutBeforeAppending) {
  const std::string path = dir_ + "/journal.log";
  {
    auto jr = Journal::Open(dir_, 0, 2);
    ASSERT_TRUE(jr.ok());
    ASSERT_TRUE((*jr)->Update("a", "1").ok());
  }
  const auto good_size = std::filesystem::file_size(path);
  AppendTornFrame(path);
  {
    auto jr = Journal::Open(dir_, 0, 2);
    ASSERT_TRUE(jr.ok()) << jr.status().ToString();
    EXPECT_EQ(std::filesystem::file_size(path), good_size);
    ASSERT_TRUE((*jr)->Update("b", "2").ok());
  }
  auto recovered = Journal::Open(dir_, 0, 2);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(*(*recovered)->Read("a"), "1");
  EXPECT_EQ(*(*recovered)->Read("b"), "2");
  EXPECT_EQ(Records(**recovered), 2u);
  EXPECT_TRUE((*recovered)->CheckInvariants().ok());
}

// An append the file system cuts short must not leave its partial frame
// behind: replay stops at a torn frame, so every record appended after it
// (acknowledged writes) would be lost at the next recovery, and the node's
// next update would reuse their sequence numbers. The file-size limit
// (with SIGXFSZ ignored) lets 5 bytes of the second record reach the file.
TEST_F(JournalTest, FailedAppendCutsItsPartialFrameOff) {
  const std::string path = dir_ + "/journal.log";
  {
    auto jr = Journal::Open(dir_, 0, 2);
    ASSERT_TRUE(jr.ok());
    ASSERT_TRUE((*jr)->Update("a", "1").ok());
    const auto good_size = std::filesystem::file_size(path);

    struct rlimit saved;
    ASSERT_EQ(getrlimit(RLIMIT_FSIZE, &saved), 0);
    struct rlimit capped = saved;
    capped.rlim_cur = good_size + 5;
    void (*saved_handler)(int) = std::signal(SIGXFSZ, SIG_IGN);
    const bool capped_ok = setrlimit(RLIMIT_FSIZE, &capped) == 0;
    const Status failed = (*jr)->Update("b", "2");
    const bool restored_ok = setrlimit(RLIMIT_FSIZE, &saved) == 0;
    std::signal(SIGXFSZ, saved_handler);
    ASSERT_TRUE(capped_ok && restored_ok);

    EXPECT_TRUE(failed.IsIOError()) << failed.ToString();
    EXPECT_EQ(std::filesystem::file_size(path), good_size);
    ASSERT_TRUE((*jr)->Update("c", "3").ok());
    EXPECT_EQ((*jr)->dbvv(), VersionVector({2, 0}));
  }
  auto recovered = Journal::Open(dir_, 0, 2);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(*(*recovered)->Read("a"), "1");
  EXPECT_TRUE((*recovered)->Read("b").status().IsNotFound());
  const Result<std::string> c = (*recovered)->Read("c");
  ASSERT_TRUE(c.ok()) << "acknowledged write lost: " << c.status().ToString();
  EXPECT_EQ(*c, "3");
  EXPECT_EQ((*recovered)->dbvv(), VersionVector({2, 0}));
  EXPECT_TRUE((*recovered)->CheckInvariants().ok());
}

TEST_F(JournalTest, ShardedTornTailIsCutBeforeAppending) {
  constexpr size_t kShards = 4;
  std::string shard_journal;
  {
    auto js = ShardedReplica::Open(dir_, 0, 2, kShards);
    ASSERT_TRUE(js.ok());
    ASSERT_TRUE((*js)->Update("a", "1").ok());
    char name[32];
    std::snprintf(name, sizeof(name), "/shard-%03zu/journal.log",
                  (*js)->ShardOf("b"));
    shard_journal = dir_ + name;
  }
  AppendTornFrame(shard_journal);
  {
    auto js = ShardedReplica::Open(dir_, 0, 2, kShards);
    ASSERT_TRUE(js.ok()) << js.status().ToString();
    ASSERT_TRUE((*js)->Update("b", "2").ok());
  }
  auto recovered = ShardedReplica::Open(dir_, 0, 2, kShards);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(*(*recovered)->Read("a"), "1");
  EXPECT_EQ(*(*recovered)->Read("b"), "2");
  EXPECT_EQ(Records(**recovered), 2u);
  EXPECT_TRUE((*recovered)->CheckInvariants().ok());
}

TEST_F(JournalTest, CorruptedMiddleRecordStopsReplayAtGoodPrefix) {
  {
    auto jr = Journal::Open(dir_, 0, 2);
    ASSERT_TRUE(jr.ok());
    ASSERT_TRUE((*jr)->Update("a", "1").ok());
    ASSERT_TRUE((*jr)->Update("b", "2").ok());
    ASSERT_TRUE((*jr)->Update("c", "3").ok());
  }
  // Flip one byte inside the second record's payload.
  std::string path = dir_ + "/journal.log";
  std::FILE* f = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  long size = std::ftell(f);
  std::fseek(f, size / 2, SEEK_SET);
  int c = std::fgetc(f);
  std::fseek(f, size / 2, SEEK_SET);
  std::fputc(c ^ 0x40, f);
  std::fclose(f);

  auto recovered = Journal::Open(dir_, 0, 2);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  // The prefix before the corrupted record replayed; the rest did not.
  // (The CRC catches the flip no matter which frame byte it hit.)
  EXPECT_EQ(*(*recovered)->Read("a"), "1");
  EXPECT_TRUE((*recovered)->CheckInvariants().ok());
  EXPECT_LT((*recovered)->dbvv().Total(), 3u);
}

TEST_F(JournalTest, RandomizedCrashRecoveryEquivalence) {
  // Mirror every journaled operation on an in-memory twin; at a random
  // point "crash" (drop the journaled replica), recover, and compare.
  Rng rng(2024);
  Replica peer(1, 2);
  Replica twin(0, 2);
  {
    auto jr_or = Journal::Open(dir_, 0, 2);
    ASSERT_TRUE(jr_or.ok());
    Replica& jr = **jr_or;
    for (int step = 0; step < 120; ++step) {
      double dice = rng.NextDouble();
      if (dice < 0.45) {
        std::string item = "k" + std::to_string(rng.Uniform(6));
        std::string value = "v" + std::to_string(step);
        ASSERT_TRUE(jr.Update(item, value).ok());
        ASSERT_TRUE(twin.Update(item, value).ok());
      } else if (dice < 0.6) {
        std::string item = "k" + std::to_string(rng.Uniform(6));
        ASSERT_TRUE(jr.Delete(item).ok());
        ASSERT_TRUE(twin.Delete(item).ok());
      } else if (dice < 0.8) {
        ASSERT_TRUE(peer.Update("p" + std::to_string(rng.Uniform(4)),
                                "pv" + std::to_string(step))
                        .ok());
      } else {
        PropagationRequest req = jr.BuildPropagationRequest();
        const PropagationResponseView& resp = peer.HandlePropagationView(req);
        ASSERT_TRUE(jr.AcceptPropagation(resp).ok());
        ASSERT_TRUE(twin.AcceptPropagation(resp).ok());
      }
      if (step == 60) {
        ASSERT_TRUE(jr.Checkpoint().ok());
      }
    }
  }  // crash

  auto recovered = Journal::Open(dir_, 0, 2);
  ASSERT_TRUE(recovered.ok());
  const Replica& r = **recovered;
  EXPECT_EQ(r.dbvv(), twin.dbvv());
  EXPECT_EQ(r.items().size(), twin.items().size());
  for (const Item& item : twin.items()) {
    const Item* mine = r.FindItem(item.name);
    ASSERT_NE(mine, nullptr) << item.name;
    EXPECT_EQ(mine->value, item.value) << item.name;
    EXPECT_EQ(mine->deleted, item.deleted) << item.name;
    EXPECT_EQ(mine->ivv, item.ivv) << item.name;
  }
  EXPECT_TRUE(r.CheckInvariants().ok());
}

}  // namespace
}  // namespace epidemic
