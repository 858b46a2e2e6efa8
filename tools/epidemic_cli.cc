// epidemic_cli — command-line client for an epidemicd server.
//
//   epidemic_cli --port=7000 put <item> <value>
//   epidemic_cli --port=7000 get <item>
//   epidemic_cli --port=7000 del <item>
//   epidemic_cli --port=7000 oobget <peer-id> <item>   # priority read
//
// `oobget` asks the contacted server to out-of-bound-fetch the item from
// the named peer (§5.2) before answering, so the reply is at least as
// fresh as that peer.

#include <climits>
#include <cstdio>
#include <cstring>
#include <string>

#include "net/tcp_transport.h"
#include "parse_number.h"
#include "server/replica_server.h"

namespace {
void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --port=<server port> <command> [args...]\n"
               "commands:\n"
               "  put <item> <value>\n"
               "  get <item>\n"
               "  del <item>\n"
               "  oobget <peer-id> <item>\n"
               "  scan [prefix]\n"
               "  stats\n"
               "  stats-reset         # read counters and zero them atomically\n"
               "  sync <peer-id>      # pull from peer now\n"
               "  checkpoint          # snapshot + truncate journal\n",
               argv0);
}
}  // namespace

int main(int argc, char** argv) {
  using epidemic::tools::ParseNumber;
  long port = 0;
  int argi = 1;
  if (argi < argc && std::strncmp(argv[argi], "--port=", 7) == 0) {
    if (!ParseNumber("--port", argv[argi] + 7, 1, 65535, &port)) {
      Usage(argv[0]);
      return 2;
    }
    ++argi;
  }
  if (port == 0 || argi >= argc) {
    Usage(argv[0]);
    return 2;
  }
  // `sync` and `oobget` name a peer by id; a bad one is a usage error,
  // reported before any connection is opened.
  long peer = 0;
  const std::string command = argv[argi++];
  if ((command == "sync" || command == "oobget") && argi < argc &&
      !ParseNumber("peer id", argv[argi], 0, INT_MAX, &peer)) {
    Usage(argv[0]);
    return 2;
  }

  // The CLI talks to a single server; it occupies slot 0 of its transport.
  epidemic::net::TcpTransport transport(1);
  transport.SetPeerPort(0, static_cast<uint16_t>(port));
  epidemic::server::ReplicaClient client(&transport, 0);

  if (command == "put" && argi + 1 < argc) {
    epidemic::Status s = client.Update(argv[argi], argv[argi + 1]);
    if (!s.ok()) {
      std::fprintf(stderr, "put failed: %s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("OK\n");
    return 0;
  }
  if (command == "get" && argi < argc) {
    auto v = client.Read(argv[argi]);
    if (!v.ok()) {
      std::fprintf(stderr, "get failed: %s\n", v.status().ToString().c_str());
      return 1;
    }
    std::printf("%s\n", v->c_str());
    return 0;
  }
  if (command == "del" && argi < argc) {
    epidemic::Status s = client.Delete(argv[argi]);
    if (!s.ok()) {
      std::fprintf(stderr, "del failed: %s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("OK\n");
    return 0;
  }
  if (command == "oobget" && argi + 1 < argc) {
    auto v = client.OobRead(static_cast<epidemic::NodeId>(peer),
                            argv[argi + 1]);
    if (!v.ok()) {
      std::fprintf(stderr, "oobget failed: %s\n",
                   v.status().ToString().c_str());
      return 1;
    }
    std::printf("%s\n", v->c_str());
    return 0;
  }

  if (command == "scan") {
    const char* prefix = (argi < argc) ? argv[argi] : "";
    auto items = client.Scan(prefix);
    if (!items.ok()) {
      std::fprintf(stderr, "scan failed: %s\n",
                   items.status().ToString().c_str());
      return 1;
    }
    for (const auto& [name, value] : *items) {
      std::printf("%s\t%s\n", name.c_str(), value.c_str());
    }
    return 0;
  }
  if (command == "sync" && argi < argc) {
    epidemic::Status s =
        client.TriggerSync(static_cast<epidemic::NodeId>(peer));
    if (!s.ok()) {
      std::fprintf(stderr, "sync failed: %s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("OK\n");
    return 0;
  }
  if (command == "checkpoint") {
    epidemic::Status s = client.TriggerCheckpoint();
    if (!s.ok()) {
      std::fprintf(stderr, "checkpoint failed: %s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("OK\n");
    return 0;
  }
  if (command == "stats") {
    auto stats = client.Stats();
    if (!stats.ok()) {
      std::fprintf(stderr, "stats failed: %s\n",
                   stats.status().ToString().c_str());
      return 1;
    }
    std::printf("%s\n", stats->c_str());
    return 0;
  }
  if (command == "stats-reset") {
    auto stats = client.ResetStats();
    if (!stats.ok()) {
      std::fprintf(stderr, "stats-reset failed: %s\n",
                   stats.status().ToString().c_str());
      return 1;
    }
    std::printf("%s\n", stats->c_str());
    return 0;
  }

  Usage(argv[0]);
  return 2;
}
