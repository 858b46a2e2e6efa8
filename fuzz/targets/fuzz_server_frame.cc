#include <string_view>

#include "common/logging.h"
#include "fuzz/harness.h"
#include "net/inproc_transport.h"
#include "server/replica_server.h"

namespace epidemic::fuzz {

/// Boundary: ReplicaServer::HandleRequest — the full network entry point
/// (decode, scheduler dispatch, serve/accept), fed a raw frame exactly as
/// the transport would deliver it.
///
/// Oracle: the server must answer every frame with *some* reply and come
/// out with its sharded replica's invariants intact. This is the boundary
/// where the DBVV width checks live — before them, one wrong-width
/// handshake aborted the whole process.
int Target_server_frame(const uint8_t* data, size_t size) {
  std::string_view frame(reinterpret_cast<const char*>(data), size);

  net::InProcHub hub(kFuzzNodes);
  net::InProcTransport transport(&hub);
  server::ReplicaServer::Options options;
  options.num_shards = kFuzzShards;
  options.ae_workers = 0;  // inline scheduler: deterministic
  server::ReplicaServer server(0, kFuzzNodes, &transport, options);
  hub.Register(0, &server);
  EPI_CHECK(server.Update("alpha", "a0").ok());
  EPI_CHECK(server.Update("gamma", "g0").ok());

  (void)server.HandleRequest(frame);

  server.WithReplica([](const ShardedReplica& replica) {
    OracleExpectOk(replica.CheckInvariants(), "server_frame",
                   "invariants after serving a frame");
  });
  return 0;
}

}  // namespace epidemic::fuzz

EPIFUZZ_DEFINE_TARGET(server_frame)
