// epidemicd — a standalone replica server daemon.
//
// Runs one node of a replicated database over TCP, with background
// anti-entropy against its configured peers:
//
//   epidemicd --id=0 --nodes=3 --port=7000
//             --peer=1:7001 --peer=2:7002 --ae-interval-ms=500
//             [--shards=16] [--ae-workers=4]
//             [--data-dir=/var/lib/epidemic/node0]
//
// With --data-dir the node is durable: all inputs are write-ahead
// journaled, state is recovered on startup, and a snapshot checkpoint is
// taken on clean shutdown.
//
// All endpoints are 127.0.0.1 (this daemon is a lab/replication endpoint,
// not a hardened public service). Stop with SIGINT/SIGTERM.

#include <climits>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "net/tcp_transport.h"
#include "parse_number.h"
#include "server/replica_server.h"

namespace {

using epidemic::tools::ParseNumber;

volatile std::sig_atomic_t g_stop = 0;
void HandleSignal(int) { g_stop = 1; }

struct Options {
  long id = -1;
  long nodes = -1;
  long port = 0;  // 0 = ephemeral
  long ae_interval_ms = 500;
  long shards = 16;      // every node of a cluster must agree
  long ae_workers = 0;   // shard-owner worker threads (0 = callers inline)
  std::string data_dir;  // empty = in-memory
  std::vector<std::pair<long, long>> peers;  // (id, port)
};

void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --id=<node id> --nodes=<count> --port=<port>\n"
               "          [--peer=<id>:<port>]... [--ae-interval-ms=<ms>]\n"
               "          [--shards=<count>] [--ae-workers=<threads>]\n"
               "          [--data-dir=<dir>]\n",
               argv0);
}

bool ParseArgs(int argc, char** argv, Options* opts) {
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--id=", 5) == 0) {
      if (!ParseNumber("--id", arg + 5, 0, INT_MAX, &opts->id)) return false;
    } else if (std::strncmp(arg, "--nodes=", 8) == 0) {
      if (!ParseNumber("--nodes", arg + 8, 0, INT_MAX, &opts->nodes)) {
        return false;
      }
    } else if (std::strncmp(arg, "--port=", 7) == 0) {
      if (!ParseNumber("--port", arg + 7, 0, 65535, &opts->port)) return false;
    } else if (std::strncmp(arg, "--ae-interval-ms=", 17) == 0) {
      if (!ParseNumber("--ae-interval-ms", arg + 17, 0, LONG_MAX / 1000,
                       &opts->ae_interval_ms)) {
        return false;
      }
    } else if (std::strncmp(arg, "--shards=", 9) == 0) {
      if (!ParseNumber("--shards", arg + 9, 1, INT_MAX, &opts->shards)) {
        return false;
      }
    } else if (std::strncmp(arg, "--ae-workers=", 13) == 0) {
      if (!ParseNumber("--ae-workers", arg + 13, 0, INT_MAX,
                       &opts->ae_workers)) {
        return false;
      }
    } else if (std::strncmp(arg, "--data-dir=", 11) == 0) {
      opts->data_dir = arg + 11;
    } else if (std::strncmp(arg, "--peer=", 7) == 0) {
      const char* spec = arg + 7;
      const char* colon = std::strchr(spec, ':');
      if (colon == nullptr) {
        std::fprintf(stderr, "bad --peer spec '%s' (want id:port)\n", spec);
        return false;
      }
      const std::string peer_id(spec, colon);
      long id = 0;
      long port = 0;
      if (!ParseNumber("--peer id", peer_id.c_str(), 0, INT_MAX, &id) ||
          !ParseNumber("--peer port", colon + 1, 1, 65535, &port)) {
        return false;
      }
      opts->peers.emplace_back(id, port);
    } else {
      std::fprintf(stderr, "unknown flag '%s'\n", arg);
      return false;
    }
  }
  if (opts->id < 0 || opts->id >= opts->nodes) {
    std::fprintf(stderr, "--id and --nodes are required (id < nodes)\n");
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  if (!ParseArgs(argc, argv, &opts)) {
    Usage(argv[0]);
    return 2;
  }

  epidemic::net::TcpTransport transport(static_cast<size_t>(opts.nodes));
  epidemic::server::ReplicaServer::Options server_opts;
  for (const auto& [peer_id, peer_port] : opts.peers) {
    if (peer_id >= opts.nodes || peer_id == opts.id) {
      std::fprintf(stderr, "peer id %ld out of range\n", peer_id);
      return 2;
    }
    transport.SetPeerPort(static_cast<epidemic::NodeId>(peer_id),
                          static_cast<uint16_t>(peer_port));
    server_opts.peers.push_back(static_cast<epidemic::NodeId>(peer_id));
  }
  server_opts.anti_entropy_interval_micros = opts.ae_interval_ms * 1000;
  server_opts.num_shards = static_cast<size_t>(opts.shards);
  server_opts.ae_workers = static_cast<size_t>(opts.ae_workers);

  std::unique_ptr<epidemic::server::ReplicaServer> server;
  if (opts.data_dir.empty()) {
    server = std::make_unique<epidemic::server::ReplicaServer>(
        static_cast<epidemic::NodeId>(opts.id),
        static_cast<size_t>(opts.nodes), &transport, server_opts);
  } else {
    auto durable = epidemic::ShardedReplica::Open(
        opts.data_dir, static_cast<epidemic::NodeId>(opts.id),
        static_cast<size_t>(opts.nodes), static_cast<size_t>(opts.shards));
    if (!durable.ok()) {
      std::fprintf(stderr, "cannot open data dir: %s\n",
                   durable.status().ToString().c_str());
      return 1;
    }
    std::printf("epidemicd: recovered durable state from %s (%ld shards)\n",
                opts.data_dir.c_str(), opts.shards);
    server = std::make_unique<epidemic::server::ReplicaServer>(
        std::move(*durable), &transport, server_opts);
  }
  epidemic::net::TcpServer listener(server.get());
  epidemic::Status started =
      listener.Start(static_cast<uint16_t>(opts.port));
  if (!started.ok()) {
    std::fprintf(stderr, "cannot listen: %s\n", started.ToString().c_str());
    return 1;
  }
  server->Start();
  std::printf("epidemicd: node %ld/%ld serving on 127.0.0.1:%u, "
              "anti-entropy every %ld ms against %zu peer(s)\n",
              opts.id, opts.nodes, listener.port(), opts.ae_interval_ms,
              server_opts.peers.size());
  std::fflush(stdout);

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  while (!g_stop) {
    // The accept loop and anti-entropy thread do the work; just idle.
    struct timespec ts = {0, 100 * 1000 * 1000};
    nanosleep(&ts, nullptr);
  }

  std::printf("epidemicd: shutting down (conflicts detected: %llu)\n",
              static_cast<unsigned long long>(
                  server->TotalStats().conflicts_detected));
  server->Stop();
  listener.Stop();
  if (server->is_durable()) {
    epidemic::Status cp = server->Checkpoint();
    if (!cp.ok()) {
      std::fprintf(stderr, "checkpoint failed: %s\n",
                   cp.ToString().c_str());
    }
  }
  return 0;
}
