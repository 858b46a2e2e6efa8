// Durability walkthrough: a journaled replica crashes and recovers.
//
// Every input to the replica — user updates/deletes, accepted propagation
// responses, out-of-bound responses — is appended to a write-ahead journal
// before it is applied. Recovery replays the journal (on top of the last
// snapshot checkpoint) through the ordinary protocol code paths, rebuilding
// the exact state: values, version vectors, logs, even pending auxiliary
// records.
//
//   ./build/examples/durable_node

#include <cstdio>
#include <filesystem>
#include <string>

#include "core/journal.h"
#include "core/replica.h"

using epidemic::JournaledReplica;
using epidemic::PropagationRequest;
using epidemic::PropagationResponseView;
using epidemic::Replica;

int main() {
  const std::string dir = "/tmp/epidemic_durable_node";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  Replica peer(1, 2);
  (void)peer.Update("shared/config", "v1");

  std::string dbvv_at_crash;
  {
    auto node = JournaledReplica::Open(dir, /*id=*/0, /*num_nodes=*/2);
    if (!node.ok()) {
      std::fprintf(stderr, "open failed: %s\n",
                   node.status().ToString().c_str());
      return 1;
    }
    (void)(*node)->Update("local/notes", "draft 1");
    (void)(*node)->Update("local/notes", "draft 2");

    // Pull from the peer — the received response is journaled too. The
    // peer's reply borrows its store until the accept returns.
    PropagationRequest req = (*node)->BuildPropagationRequest();
    const PropagationResponseView& resp = peer.HandlePropagationView(req);
    (void)(*node)->AcceptPropagation(resp);

    // Checkpoint: snapshot + journal truncation.
    (void)(*node)->Checkpoint();
    (void)(*node)->Update("local/notes", "draft 3 (after checkpoint)");

    dbvv_at_crash = (*node)->replica().dbvv().ToString();
    std::printf("before crash: notes='%s', DBVV=%s, journal records=%llu\n",
                (*node)->Read("local/notes")->c_str(),
                dbvv_at_crash.c_str(),
                static_cast<unsigned long long>(
                    (*node)->records_since_checkpoint()));
  }  // <- process "crashes" here; only the files in `dir` survive

  auto recovered = JournaledReplica::Open(dir, 0, 2);
  if (!recovered.ok()) {
    std::fprintf(stderr, "recovery failed: %s\n",
                 recovered.status().ToString().c_str());
    return 1;
  }
  std::printf("after recovery: notes='%s', config='%s', DBVV=%s\n",
              (*recovered)->Read("local/notes")->c_str(),
              (*recovered)->Read("shared/config")->c_str(),
              (*recovered)->replica().dbvv().ToString().c_str());
  std::printf("state identical to pre-crash: %s\n",
              (*recovered)->replica().dbvv().ToString() == dbvv_at_crash
                  ? "yes"
                  : "NO");

  // The revived node resumes anti-entropy exactly where it stopped: the
  // unchanged peer answers "you-are-current" in one DBVV comparison.
  peer.ResetStats();
  PropagationRequest req = (*recovered)->BuildPropagationRequest();
  const PropagationResponseView& resp = peer.HandlePropagationView(req);
  (void)(*recovered)->AcceptPropagation(resp);
  std::printf("first post-recovery exchange was a no-op: %s\n",
              peer.stats().you_are_current_replies == 1 ? "yes" : "NO");

  std::filesystem::remove_all(dir);
  return 0;
}
