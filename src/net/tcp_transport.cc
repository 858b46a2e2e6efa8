#include "net/tcp_transport.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

#include "common/bytes.h"
#include "common/logging.h"

namespace epidemic::net {

namespace {

/// Gathered send: one sendmsg train over the iovec list, advancing the
/// (mutable, caller-local) entries across partial writes. sendmsg rather
/// than writev because only the msg-based calls take MSG_NOSIGNAL.
Status SendAllV(int fd, struct iovec* iov, size_t iovcnt) {
  size_t idx = 0;
  while (idx < iovcnt) {
    // Skip entries a previous partial write fully consumed.
    if (iov[idx].iov_len == 0) {
      ++idx;
      continue;
    }
    msghdr msg{};
    msg.msg_iov = iov + idx;
    msg.msg_iovlen = std::min<size_t>(iovcnt - idx, IOV_MAX);
    ssize_t rc = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (rc < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::string("sendmsg: ") + std::strerror(errno));
    }
    size_t consumed = static_cast<size_t>(rc);
    while (idx < iovcnt && consumed >= iov[idx].iov_len) {
      consumed -= iov[idx].iov_len;
      iov[idx].iov_len = 0;
      ++idx;
    }
    if (idx < iovcnt && consumed > 0) {
      iov[idx].iov_base = static_cast<char*>(iov[idx].iov_base) + consumed;
      iov[idx].iov_len -= consumed;
    }
  }
  return Status::OK();
}

Status RecvAll(int fd, char* data, size_t n) {
  size_t got = 0;
  while (got < n) {
    ssize_t rc = ::recv(fd, data + got, n - got, 0);
    if (rc < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::string("recv: ") + std::strerror(errno));
    }
    if (rc == 0) return Status::IOError("connection closed mid-frame");
    got += static_cast<size_t>(rc);
  }
  return Status::OK();
}

// The receive buffer grows as payload bytes arrive, never ahead of them by
// more than max(this, bytes already received).
constexpr size_t kMinReadStep = size_t{1} << 20;  // 1 MiB

constexpr size_t kFrameHeaderBytes = 5;  // fixed32 length + flags byte

/// Builds the 5-byte header into `header`: the length through
/// ByteWriter::PutFixed32, so the wire bytes are little-endian on every
/// host, then the flags byte. Every frame's flags byte is 0; bit 0x01
/// (transparent LZ) is retired and must never be reused.
void BuildFrameHeader(uint32_t len, char header[kFrameHeaderBytes]) {
  ByteWriter w;
  w.PutFixed32(len);
  w.PutU8(0);
  std::memcpy(header, w.data().data(), kFrameHeaderBytes);
}

}  // namespace

Status WriteFrame(int fd, std::string_view payload) {
  struct iovec iov = {const_cast<char*>(payload.data()), payload.size()};
  return WriteFrameV(fd, &iov, 1);
}

Status WriteFrameV(int fd, const struct iovec* iov, size_t iovcnt) {
  uint64_t total = 0;
  for (size_t i = 0; i < iovcnt; ++i) total += iov[i].iov_len;
  if (total > kMaxFrameBytes) {
    return Status::InvalidArgument("frame too large");
  }
  // Header plus the caller's pieces in one gathered send.
  char header[kFrameHeaderBytes];
  BuildFrameHeader(static_cast<uint32_t>(total), header);
  std::vector<struct iovec> vec(iovcnt + 1);
  vec[0].iov_base = header;
  vec[0].iov_len = kFrameHeaderBytes;
  for (size_t i = 0; i < iovcnt; ++i) vec[i + 1] = iov[i];
  return SendAllV(fd, vec.data(), vec.size());
}

Status ReadFrameInto(int fd, std::string* payload) {
  char header[kFrameHeaderBytes];
  EPI_RETURN_NOT_OK(RecvAll(fd, header, kFrameHeaderBytes));
  ByteReader hr(std::string_view(header, kFrameHeaderBytes));
  const uint32_t len = *hr.GetFixed32();   // 5 bytes present by construction
  const uint8_t flags = *hr.GetU8();
  if (len > kMaxFrameBytes) return Status::Corruption("oversized frame");
  // No flag is defined, and 0x01 (a retired LZ encoding) must not be
  // decoded: refuse before reading or allocating for the payload.
  if (flags != 0) return Status::Corruption("unknown frame flags");
  // The header is the peer's claim, not a fact: grow the buffer in steps
  // of at most max(1 MiB, bytes already received), so a peer announcing
  // 256 MiB and sending ten bytes costs 1 MiB, not 256. Frames up to 1 MiB
  // take one resize; larger ones double as they arrive. resize() reuses
  // the string's capacity: a pooled or connection-local buffer makes
  // steady-state reads allocation-free.
  size_t got = 0;
  payload->resize(0);
  while (got < len) {
    const size_t step =
        std::min<size_t>(len - got, std::max(kMinReadStep, got));
    payload->resize(got + step);
    EPI_RETURN_NOT_OK(RecvAll(fd, payload->data() + got, step));
    got += step;
  }
  return Status::OK();
}

Status TcpServer::Start(uint16_t port) {
  if (running_.load()) return Status::FailedPrecondition("already running");

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::IOError(std::string("socket: ") + std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::IOError(std::string("bind: ") + std::strerror(errno));
  }
  if (::listen(listen_fd_, 64) < 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::IOError(std::string("listen: ") + std::strerror(errno));
  }

  socklen_t addr_len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                    &addr_len) == 0) {
    port_ = ntohs(addr.sin_port);
  }

  running_.store(true);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void TcpServer::AcceptLoop() {
  while (running_.load()) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      // Only Stop() ends the loop: it clears running_ before it shuts the
      // listener down. Every other failure is transient. Out of descriptors
      // or memory, the pending connection stays queued; wait for some to be
      // freed instead of spinning on the same error.
      if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
          errno == ENOMEM) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
      continue;
    }
    ReapFinishedWorkers();
    MutexLock lock(workers_mu_);
    if (!running_.load()) {
      ::close(fd);
      break;
    }
    conn_fds_.insert(fd);
    workers_.emplace_back([this, fd] { ServeConnection(fd); });
  }
}

void TcpServer::ReapFinishedWorkers() {
  std::vector<std::thread> done;
  {
    MutexLock lock(workers_mu_);
    for (std::thread::id id : finished_) {
      auto it = std::find_if(
          workers_.begin(), workers_.end(),
          [id](const std::thread& t) { return t.get_id() == id; });
      // Absent only when Stop() already took the thread to join it.
      if (it == workers_.end()) continue;
      done.push_back(std::move(*it));
      *it = std::move(workers_.back());
      workers_.pop_back();
    }
    finished_.clear();
  }
  // Each of these has left ServeConnection's last critical section, so the
  // joins wait at most for a thread's own exit.
  for (std::thread& t : done) t.join();
}

void TcpServer::ServeConnection(int fd) {
  // Connection-local reusable buffers: with persistent peers the same
  // connection carries thousands of frames, so the request bytes and the
  // reply scaffolding are allocated once and recycled per frame.
  std::string request;
  VectoredReply reply;
  std::vector<struct iovec> iov;
  for (;;) {
    if (!ReadFrameInto(fd, &request).ok()) break;  // peer closed / error
    handler_->HandleRequestV(request, &reply);
    const std::vector<std::string>& parts = reply.parts();
    iov.clear();
    iov.reserve(parts.size());
    for (const std::string& p : parts) {
      if (p.empty()) continue;
      iov.push_back({const_cast<char*>(p.data()), p.size()});
    }
    Status sent = WriteFrameV(fd, iov.data(), iov.size());
    reply.Recycle();
    if (!sent.ok()) break;
  }
  MutexLock lock(workers_mu_);
  conn_fds_.erase(fd);
  ::close(fd);
  finished_.push_back(std::this_thread::get_id());
}

void TcpServer::Stop() {
  if (!running_.exchange(false)) return;
  // Shut the listener down to unblock accept(); close it only once the
  // accept loop has left, so the loop never calls accept() on a closed
  // (or reused) descriptor number.
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  ::close(listen_fd_);
  std::vector<std::thread> workers;
  {
    MutexLock lock(workers_mu_);
    // Persistent clients park their connection in recv between requests;
    // shutdown (not close — the owning worker closes) forces those reads
    // to return so the workers can exit and be joined.
    for (int fd : conn_fds_) ::shutdown(fd, SHUT_RDWR);
    workers.swap(workers_);
    finished_.clear();
  }
  for (std::thread& t : workers) {
    if (t.joinable()) t.join();
  }
  listen_fd_ = -1;
}

// ---------------------------------------------------------------------------
// TcpTransport.

namespace {

/// Opens a connected TCP_NODELAY socket to 127.0.0.1:`port`.
Result<int> ConnectTo(uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IOError(std::string("socket: ") + std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    int err = errno;
    ::close(fd);
    return Status::Unavailable(std::string("connect: ") +
                               std::strerror(err));
  }
  return fd;
}

}  // namespace

TcpTransport::TcpTransport(size_t num_nodes, Options options)
    : ports_(num_nodes, 0), options_(options) {
  conns_.reserve(num_nodes);
  for (size_t i = 0; i < num_nodes; ++i) {
    conns_.push_back(std::make_unique<PeerConn>());
  }
}

TcpTransport::~TcpTransport() {
  for (auto& pc : conns_) {
    MutexLock lock(pc->mu);
    if (pc->fd >= 0) ::close(pc->fd);
    pc->fd = -1;
  }
}

Result<std::string> TcpTransport::Call(NodeId dest, std::string_view request) {
  std::string response;
  EPI_RETURN_NOT_OK(CallInto(dest, request, &response));
  return response;
}

Status TcpTransport::CallInto(NodeId dest, std::string_view request,
                              std::string* response) {
  if (dest >= ports_.size() || ports_[dest] == 0) {
    return Status::InvalidArgument("no endpoint configured for node " +
                                   std::to_string(dest));
  }
  // relaxed: monotonic stats counter, read only for reporting.
  calls_.fetch_add(1, std::memory_order_relaxed);

  // One caller per peer at a time: the frame stream has no multiplexing,
  // so the connection carries exactly one request/response pair at once.
  // Different peers use different PeerConns and proceed in parallel.
  PeerConn& pc = *conns_[dest];
  MutexLock lock(pc.mu);
  bool fresh = false;
  for (int attempt = 0;; ++attempt) {
    if (pc.fd < 0) {
      const TimeMicros now = RealClock::Default()->NowMicros();
      if (now < pc.backoff_until) {
        // Sticky backoff: this peer refused a connect recently; fail fast
        // instead of re-dialing on every anti-entropy tick.
        // relaxed: monotonic stats counter, read only for reporting.
        backoff_skips_.fetch_add(1, std::memory_order_relaxed);
        return Status::Unavailable("peer in connect backoff");
      }
      Result<int> fd = ConnectTo(ports_[dest]);
      if (!fd.ok()) {
        pc.backoff_micros =
            pc.backoff_micros == 0
                ? options_.backoff_initial_micros
                : std::min(pc.backoff_micros * 2, options_.backoff_max_micros);
        pc.backoff_until = now + pc.backoff_micros;
        return fd.status();
      }
      pc.fd = *fd;
      pc.backoff_micros = 0;
      pc.backoff_until = 0;
      fresh = true;
      // relaxed: monotonic stats counter, read only for reporting.
      connections_opened_.fetch_add(1, std::memory_order_relaxed);
    }
    Status s = WriteFrame(pc.fd, request);
    if (s.ok()) s = ReadFrameInto(pc.fd, response);
    if (s.ok()) {
      if (!fresh) {
        // relaxed: monotonic stats counter (see above).
        connections_reused_.fetch_add(1, std::memory_order_relaxed);
      }
      // relaxed: monotonic byte counters, header included.
      bytes_sent_.fetch_add(request.size() + kFrameHeaderBytes,
                            std::memory_order_relaxed);
      bytes_received_.fetch_add(response->size() + kFrameHeaderBytes,
                                std::memory_order_relaxed);
      return Status::OK();
    }
    // The pooled fd died mid-call (typically: the server restarted while
    // we were parked). Drop it; if this was its first failure, reconnect
    // and retry the call once — a fresh connection that still fails is a
    // real error the caller must see.
    ::close(pc.fd);
    pc.fd = -1;
    if (fresh || attempt > 0) return s;
    // relaxed: monotonic stats counter, read only for reporting.
    reconnects_.fetch_add(1, std::memory_order_relaxed);
  }
}

TransportStats TcpTransport::Stats(bool reset) {
  TransportStats s;
  // relaxed: counters are independent monotonic totals; a call racing the
  // read lands in this report or the next, both acceptable.
  auto take = [reset](std::atomic<uint64_t>& c) {
    return reset ? c.exchange(0, std::memory_order_relaxed)
                 : c.load(std::memory_order_relaxed);
  };
  s.calls = take(calls_);
  s.connections_opened = take(connections_opened_);
  s.connections_reused = take(connections_reused_);
  s.reconnects = take(reconnects_);
  s.backoff_skips = take(backoff_skips_);
  s.bytes_sent = take(bytes_sent_);
  s.bytes_received = take(bytes_received_);
  return s;
}

}  // namespace epidemic::net
