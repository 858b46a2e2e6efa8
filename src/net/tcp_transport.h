#ifndef EPIDEMIC_NET_TCP_TRANSPORT_H_
#define EPIDEMIC_NET_TCP_TRANSPORT_H_

#include <sys/uio.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "common/clock.h"
#include "common/thread_annotations.h"
#include "net/transport.h"

namespace epidemic::net {

/// Hard ceiling on one frame's payload. Anything larger is a corrupt or
/// hostile peer, not a legitimate exchange.
inline constexpr uint32_t kMaxFrameBytes = 256u << 20;  // 256 MiB

/// Frame helpers shared by server and client: 4-byte little-endian length
/// prefix, 1 flags byte, then the payload. Exposed for tests.
///
/// WriteFrame transparently LZ-compresses large payloads when that shrinks
/// them (flag bit 0). WriteFrameV sends the payload as the iovec pieces
/// verbatim (header + pieces in one sendmsg train — no stitch copy, no
/// transparent compression). ReadFrameInto reuses `payload`'s capacity, so
/// a long-lived connection reads every frame allocation-free once warm,
/// and grows it only as payload bytes actually arrive.
Status WriteFrame(int fd, std::string_view payload);
Status WriteFrameV(int fd, const struct iovec* iov, size_t iovcnt);
Status ReadFrameInto(int fd, std::string* payload);
Result<std::string> ReadFrame(int fd);

/// Minimal threaded TCP RPC server: an accept loop plus one thread per
/// connection; each connection carries a sequence of framed
/// request/response pairs handled by the registered RequestHandler. The
/// accept loop joins the threads of ended connections before it starts
/// the next one, so short-lived clients leave no thread (and no stack
/// mapping) behind.
/// Replies are sent vectored (HandleRequestV + writev), so a handler that
/// produces its reply as pieces never assembles a contiguous frame.
///
/// Listens on 127.0.0.1 only — this is a replication endpoint for the
/// examples and integration tests, not a hardened network service.
class TcpServer {
 public:
  explicit TcpServer(RequestHandler* handler) : handler_(handler) {}
  ~TcpServer() { Stop(); }

  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  /// Binds and starts accepting. `port` 0 picks an ephemeral port,
  /// retrievable via port() afterwards.
  Status Start(uint16_t port);

  /// Stops accepting, closes the listener, shuts down every live
  /// connection (persistent clients park in recv between requests — the
  /// shutdown is what unblocks them), and joins all threads. Safe to call
  /// more than once.
  void Stop();

  uint16_t port() const { return port_; }

 private:
  void AcceptLoop();
  void ServeConnection(int fd);
  /// Joins every worker whose connection has ended.
  void ReapFinishedWorkers() EXCLUDES(workers_mu_);

  RequestHandler* handler_;
  std::atomic<bool> running_{false};
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::thread accept_thread_;
  Mutex workers_mu_;
  std::vector<std::thread> workers_ GUARDED_BY(workers_mu_);
  /// fds of live connections, registered at accept and deregistered by
  /// the owning worker just before it closes them; Stop() shuts these
  /// down (never closes — the owner does) to unblock parked reads.
  std::unordered_set<int> conn_fds_ GUARDED_BY(workers_mu_);
  /// Workers that have closed their connection and are about to exit;
  /// the accept loop joins them (ReapFinishedWorkers).
  std::vector<std::thread::id> finished_ GUARDED_BY(workers_mu_);
};

/// Transport that maps NodeIds to TCP endpoints, keeping one long-lived
/// pooled connection per peer: request/response pairs are framed back to
/// back over the reused socket, a dead socket is reconnected and the call
/// retried once, and a peer that refuses connections is put in a sticky
/// exponential backoff window (calls inside the window fail fast with
/// Unavailable instead of re-dialing). `Options::pool_connections=false`
/// restores the legacy connect-per-call behavior — kept as the benchmark
/// baseline.
struct TcpTransportOptions {
  bool pool_connections = true;
  /// First backoff window after a failed connect; doubles per
  /// consecutive failure up to the max. A successful connect resets it.
  TimeMicros backoff_initial_micros = 50 * 1000;
  TimeMicros backoff_max_micros = 2 * 1000 * 1000;
};

class TcpTransport : public Transport {
 public:
  using Options = TcpTransportOptions;

  explicit TcpTransport(size_t num_nodes, Options options = Options());
  ~TcpTransport() override;

  TcpTransport(const TcpTransport&) = delete;
  TcpTransport& operator=(const TcpTransport&) = delete;

  /// All endpoints are 127.0.0.1:<port>. Configure before calling.
  void SetPeerPort(NodeId id, uint16_t port) { ports_[id] = port; }

  Result<std::string> Call(NodeId dest, std::string_view request) override;
  Status CallInto(NodeId dest, std::string_view request,
                  std::string* response) override;
  TransportStats Stats(bool reset) override;

 private:
  /// Per-peer pooled connection. The mutex serializes callers to the same
  /// peer (one in-flight request per connection — the framing has no
  /// multiplexing); different peers proceed in parallel.
  struct PeerConn {
    Mutex mu;
    int fd GUARDED_BY(mu) = -1;
    TimeMicros backoff_until GUARDED_BY(mu) = 0;
    TimeMicros backoff_micros GUARDED_BY(mu) = 0;
  };

  Status CallPooled(PeerConn& pc, uint16_t port, std::string_view request,
                    std::string* response);

  std::vector<uint16_t> ports_;
  Options options_;
  std::vector<std::unique_ptr<PeerConn>> conns_;

  // Counter surface behind Stats(). Plain monotonic atomics: callers on
  // different peers bump them concurrently.
  std::atomic<uint64_t> calls_{0};
  std::atomic<uint64_t> connections_opened_{0};
  std::atomic<uint64_t> connections_reused_{0};
  std::atomic<uint64_t> reconnects_{0};
  std::atomic<uint64_t> backoff_skips_{0};
  std::atomic<uint64_t> bytes_sent_{0};
  std::atomic<uint64_t> bytes_received_{0};
};

}  // namespace epidemic::net

#endif  // EPIDEMIC_NET_TCP_TRANSPORT_H_
