#include <arpa/inet.h>
#include <dirent.h>
#include <fcntl.h>
#include <gtest/gtest.h>
#include <malloc.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/uio.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <fstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "net/tcp_transport.h"

namespace epidemic::net {
namespace {

/// Echo handler for the pooled-transport tests.
class EchoHandler : public RequestHandler {
 public:
  std::string HandleRequest(std::string_view request) override {
    ++calls_;
    return std::string(request);
  }
  int calls() const { return calls_.load(); }

 private:
  std::atomic<int> calls_{0};  // handlers run on connection threads
};

/// A connected AF_UNIX stream pair for exercising the frame codec without
/// a real server. Small frames fit in the socket buffer, so one thread can
/// write then read back.
struct SocketPair {
  int fds[2] = {-1, -1};
  SocketPair() { EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0); }
  ~SocketPair() {
    for (int fd : fds) {
      if (fd >= 0) ::close(fd);
    }
  }
};

// ---------------------------------------------------------------------------
// Frame codec: byte-level format and fault paths.

TEST(TcpFrameTest, HeaderBytesAreLittleEndian) {
  SocketPair sp;
  ASSERT_TRUE(WriteFrame(sp.fds[0], "abc").ok());
  // 5 header bytes + 3 payload bytes. The length must be little-endian on
  // every host — the frame format is a wire contract, not a host ABI.
  char raw[8];
  ASSERT_EQ(::recv(sp.fds[1], raw, sizeof(raw), MSG_WAITALL),
            static_cast<ssize_t>(sizeof(raw)));
  EXPECT_EQ(raw[0], 3);  // length LSB first
  EXPECT_EQ(raw[1], 0);
  EXPECT_EQ(raw[2], 0);
  EXPECT_EQ(raw[3], 0);
  EXPECT_EQ(raw[4], 0);  // flags: always 0
  EXPECT_EQ(std::string(raw + 5, 3), "abc");
}

TEST(TcpFrameTest, VectoredWriteMatchesContiguousRead) {
  SocketPair sp;
  std::string a = "head";
  std::string b;  // empty pieces are legal
  std::string c(600, 'z');
  struct iovec iov[3] = {{a.data(), a.size()},
                         {b.data(), b.size()},
                         {c.data(), c.size()}};
  ASSERT_TRUE(WriteFrameV(sp.fds[0], iov, 3).ok());
  std::string got;
  ASSERT_TRUE(ReadFrameInto(sp.fds[1], &got).ok());
  EXPECT_EQ(got, a + b + c);
}

TEST(TcpFrameTest, ReadBufferCapacityIsReused) {
  SocketPair sp;
  std::string payload;
  ASSERT_TRUE(WriteFrame(sp.fds[0], std::string(200, 'x')).ok());
  ASSERT_TRUE(ReadFrameInto(sp.fds[1], &payload).ok());
  const size_t capacity = payload.capacity();
  ASSERT_TRUE(WriteFrame(sp.fds[0], std::string(100, 'y')).ok());
  ASSERT_TRUE(ReadFrameInto(sp.fds[1], &payload).ok());
  EXPECT_EQ(payload, std::string(100, 'y'));
  EXPECT_EQ(payload.capacity(), capacity);  // resize reused, no realloc
}

TEST(TcpFrameTest, OversizedFrameRejected) {
  SocketPair sp;
  // Hand-craft a header announcing kMaxFrameBytes + 1 payload bytes.
  const uint32_t len = kMaxFrameBytes + 1;
  char header[5];
  for (int i = 0; i < 4; ++i) {
    header[i] = static_cast<char>((len >> (8 * i)) & 0xff);
  }
  header[4] = 0;
  ASSERT_EQ(::send(sp.fds[0], header, 5, 0), 5);
  std::string payload;
  Status s = ReadFrameInto(sp.fds[1], &payload);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
}

TEST(TcpFrameTest, UnknownFrameFlagsRejected) {
  // 0x80 was never defined; 0x01 is the retired LZ flag.
  for (char flags : {char(0x80), char(0x01)}) {
    SocketPair sp;
    const char frame[6] = {1, 0, 0, 0, flags, 'x'};
    ASSERT_EQ(::send(sp.fds[0], frame, 6, 0), 6);
    std::string payload;
    EXPECT_TRUE(ReadFrameInto(sp.fds[1], &payload).IsCorruption())
        << "flags " << static_cast<int>(static_cast<uint8_t>(flags));
  }
}

// A 64 KiB frame flagged 0x01 carries one literal and 32 767 longest
// matches at distance 1, which the retired LZ decoder expanded to
// 4 259 711 bytes. The flag is refused from the header alone: the payload
// stays unread and nothing is allocated for it.
TEST(TcpFrameTest, RetiredLzFlagRefusedBeforePayload) {
  SocketPair sp;
  constexpr size_t kPayload = 65536;
  std::string frame = {0, 0, 1, 0, 0x01};  // length 65 536, flags 0x01
  frame += std::string{0x00, 'x'};         // a literal run of one byte
  while (frame.size() < 5 + kPayload) {
    frame += std::string{char(0xfe), 0x01};  // 130-byte match, distance 1
  }
  ASSERT_EQ(::send(sp.fds[0], frame.data(), frame.size(), 0),
            static_cast<ssize_t>(frame.size()));
  std::string payload;
  Status s = ReadFrameInto(sp.fds[1], &payload);
  EXPECT_TRUE(s.IsCorruption())
      << s.ToString() << " with a " << payload.size() << "-byte payload";
  EXPECT_LT(payload.capacity(), size_t{2} << 20);
  std::string unread(kPayload, '\0');
  ASSERT_EQ(::recv(sp.fds[1], unread.data(), unread.size(), MSG_DONTWAIT),
            static_cast<ssize_t>(kPayload));
  EXPECT_TRUE(unread == frame.substr(5)) << "payload bytes were consumed";
}

TEST(TcpFrameTest, PeerClosingMidFrameIsIOError) {
  SocketPair sp;
  // Promise 100 payload bytes, deliver 10, then close.
  const char header[5] = {100, 0, 0, 0, 0};
  ASSERT_EQ(::send(sp.fds[0], header, 5, 0), 5);
  ASSERT_EQ(::send(sp.fds[0], "0123456789", 10, 0), 10);
  ::close(sp.fds[0]);
  sp.fds[0] = -1;
  std::string payload;
  Status s = ReadFrameInto(sp.fds[1], &payload);
  EXPECT_TRUE(s.IsIOError()) << s.ToString();
}

// A hostile header promises 200 MiB, then ten bytes arrive and the peer
// closes: the read fails without having allocated for the claim.
TEST(TcpFrameTest, HostileLengthGrowsBufferOnlyWithArrivingBytes) {
  SocketPair sp;
  const uint32_t len = 200u << 20;
  char header[5];
  for (int i = 0; i < 4; ++i) {
    header[i] = static_cast<char>((len >> (8 * i)) & 0xff);
  }
  header[4] = 0;
  ASSERT_EQ(::send(sp.fds[0], header, 5, 0), 5);
  ASSERT_EQ(::send(sp.fds[0], "0123456789", 10, 0), 10);
  ::close(sp.fds[0]);
  sp.fds[0] = -1;
  std::string payload;
  Status s = ReadFrameInto(sp.fds[1], &payload);
  EXPECT_TRUE(s.IsIOError()) << s.ToString();
  EXPECT_LT(payload.capacity(), size_t{2} << 20);
}

// ---------------------------------------------------------------------------
// Connection pool.

TEST(TcpPoolTest, CallsReuseOneConnection) {
  EchoHandler h;
  TcpServer server(&h);
  ASSERT_TRUE(server.Start(0).ok());
  TcpTransport transport(1);
  transport.SetPeerPort(0, server.port());

  for (int i = 0; i < 10; ++i) {
    auto r = transport.Call(0, "m" + std::to_string(i));
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(*r, "m" + std::to_string(i));
  }
  const TransportStats s = transport.Stats(false);
  EXPECT_EQ(s.calls, 10u);
  EXPECT_EQ(s.connections_opened, 1u);  // zero per-call churn
  EXPECT_EQ(s.connections_reused, 9u);
  EXPECT_EQ(s.reconnects, 0u);
  server.Stop();
}

// glibc gives a thread that finds every malloc arena in use an arena of
// its own, and each arena reserves 64 MiB of address space. On a loaded
// host the server's short-lived connection threads overlap and create
// several, so ShortLivedClientsLeaveNoThreadStacks, which bounds VmSize,
// failed on arenas rather than on thread stacks. One arena, set before any
// test starts a thread, keeps that bound about stacks.
[[maybe_unused]] const int kOneMallocArena = mallopt(M_ARENA_MAX, 1);

/// The number after `key` ("VmSize:" in kB, "Threads:") in
/// /proc/self/status, or 0 when unavailable.
uint64_t ProcStatus(const std::string& key) {
  std::ifstream status("/proc/self/status");
  std::string word;
  while (status >> word) {
    if (word == key) {
      uint64_t value = 0;
      status >> value;
      return value;
    }
    std::getline(status, word);
  }
  return 0;
}

// Short-lived clients must not leave one thread — live, or exited with its
// stack still mapped — behind per connection: the server joins ended
// connections. Each call dials through a fresh transport, which closes its
// connection when destroyed.
TEST(TcpPoolTest, ShortLivedClientsLeaveNoThreadStacks) {
  EchoHandler h;
  TcpServer server(&h);
  ASSERT_TRUE(server.Start(0).ok());
  const auto call_once = [&server](std::string_view request) {
    TcpTransport transport(1);
    transport.SetPeerPort(0, server.port());
    return transport.Call(0, request).ok();
  };

  for (int i = 0; i < 10; ++i) ASSERT_TRUE(call_once("warm"));
  const uint64_t vm_before = ProcStatus("VmSize:") * 1024;
  const uint64_t threads_before = ProcStatus("Threads:");
  ASSERT_GT(vm_before, 0u);
  ASSERT_GT(threads_before, 0u);
  for (int i = 0; i < 500; ++i) ASSERT_TRUE(call_once("x"));
  const uint64_t vm_after = ProcStatus("VmSize:") * 1024;
  const uint64_t threads_after = ProcStatus("Threads:");
  EXPECT_LT(vm_after, vm_before + (uint64_t{256} << 20))
      << "VmSize grew from " << vm_before << " to " << vm_after << " bytes";
  // At most the last connection or two are still winding down.
  EXPECT_LE(threads_after, threads_before + 2)
      << "threads grew from " << threads_before << " to " << threads_after;
  server.Stop();
}

TEST(TcpPoolTest, ReconnectsAfterServerRestart) {
  EchoHandler h;
  const uint16_t port = [] {
    // Grab an ephemeral port we can re-bind after the restart.
    EchoHandler probe_handler;
    TcpServer probe(&probe_handler);
    EXPECT_TRUE(probe.Start(0).ok());
    uint16_t p = probe.port();
    probe.Stop();
    return p;
  }();
  auto server = std::make_unique<TcpServer>(&h);
  ASSERT_TRUE(server->Start(port).ok());

  TcpTransport transport(1);
  transport.SetPeerPort(0, port);
  ASSERT_TRUE(transport.Call(0, "before").ok());

  // Restart: the pooled fd is now dead on the client side; the next call
  // must notice mid-call, reconnect, and retry transparently.
  server->Stop();
  server = std::make_unique<TcpServer>(&h);
  ASSERT_TRUE(server->Start(port).ok());

  auto r = transport.Call(0, "after");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(*r, "after");
  const TransportStats s = transport.Stats(false);
  EXPECT_EQ(s.reconnects, 1u);
  EXPECT_EQ(s.connections_opened, 2u);
  server->Stop();
}

TEST(TcpPoolTest, BackoffFailsFastAfterRefusedConnect) {
  TcpTransport::Options options;
  options.backoff_initial_micros = 60 * 1000 * 1000;  // park for the test
  TcpTransport transport(1, options);
  transport.SetPeerPort(0, 1);  // almost certainly nothing listens on :1
  EXPECT_TRUE(transport.Call(0, "x").status().IsUnavailable());
  EXPECT_TRUE(transport.Call(0, "x").status().IsUnavailable());
  const TransportStats s = transport.Stats(false);
  EXPECT_EQ(s.calls, 2u);
  EXPECT_EQ(s.connections_opened, 0u);
  EXPECT_EQ(s.backoff_skips, 1u);  // second call never re-dialed
}

TEST(TcpPoolTest, ConcurrentCallersSharePool) {
  EchoHandler h;
  TcpServer server0(&h), server1(&h);
  ASSERT_TRUE(server0.Start(0).ok());
  ASSERT_TRUE(server1.Start(0).ok());
  TcpTransport transport(2);
  transport.SetPeerPort(0, server0.port());
  transport.SetPeerPort(1, server1.port());

  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&transport, t] {
      for (int i = 0; i < 25; ++i) {
        auto r = transport.Call(static_cast<NodeId>(t % 2), "x");
        ASSERT_TRUE(r.ok());
        EXPECT_EQ(*r, "x");
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(h.calls(), 100);
  const TransportStats s = transport.Stats(false);
  EXPECT_EQ(s.calls, 100u);
  EXPECT_EQ(s.connections_opened, 2u);  // one pooled fd per peer
  EXPECT_EQ(s.connections_reused, 98u);
  server0.Stop();
  server1.Stop();
}

TEST(TcpPoolTest, StatsResetDrainsCounters) {
  EchoHandler h;
  TcpServer server(&h);
  ASSERT_TRUE(server.Start(0).ok());
  TcpTransport transport(1);
  transport.SetPeerPort(0, server.port());
  ASSERT_TRUE(transport.Call(0, "x").ok());

  const TransportStats first = transport.Stats(true);
  EXPECT_EQ(first.calls, 1u);
  EXPECT_GT(first.bytes_sent, 0u);
  EXPECT_GT(first.bytes_received, 0u);
  const TransportStats second = transport.Stats(false);
  EXPECT_EQ(second.calls, 0u);
  EXPECT_EQ(second.bytes_sent, 0u);
  server.Stop();
}


// ---------------------------------------------------------------------------
// Listener.

/// Descriptors this process has open, not counting the one that lists them.
size_t OpenFdCount() {
  size_t n = 0;
  DIR* d = opendir("/proc/self/fd");
  if (d == nullptr) return 0;
  while (dirent* entry = readdir(d)) {
    if (entry->d_name[0] != '.') ++n;
  }
  closedir(d);
  return n - 1;
}

/// Runs this process out of descriptors without opening more than a few:
/// lowers the RLIMIT_NOFILE soft limit to `headroom` above the descriptors
/// already open, then dups one of its own until dup fails. The destructor
/// closes every descriptor it opened and restores the limit, also when the
/// test fails.
class FdExhaustion {
 public:
  explicit FdExhaustion(size_t headroom) {
    base_ = ::open("/dev/null", O_RDONLY);
    if (base_ < 0 || ::getrlimit(RLIMIT_NOFILE, &saved_) != 0) return;
    rlimit low = saved_;
    low.rlim_cur = OpenFdCount() + headroom;
    if (low.rlim_cur > saved_.rlim_cur) return;
    limited_ = (::setrlimit(RLIMIT_NOFILE, &low) == 0);
    if (!limited_) return;
    // The limit bounds the loop; the cap only guards against a limit that
    // did not take.
    for (int i = 0; i < 64; ++i) {
      const int fd = ::dup(base_);
      if (fd < 0) {
        exhausted_ = (errno == EMFILE);
        return;
      }
      held_.push_back(fd);
    }
  }
  ~FdExhaustion() {
    for (int fd : held_) ::close(fd);
    if (base_ >= 0) ::close(base_);
    if (limited_) ::setrlimit(RLIMIT_NOFILE, &saved_);
  }
  FdExhaustion(const FdExhaustion&) = delete;
  FdExhaustion& operator=(const FdExhaustion&) = delete;

  /// True once a dup has failed with EMFILE.
  bool exhausted() const { return exhausted_; }

  /// Frees exactly one descriptor for the caller's next open.
  void FreeOne() {
    ::close(held_.back());
    held_.pop_back();
  }

 private:
  int base_ = -1;
  rlimit saved_{};
  bool limited_ = false;
  bool exhausted_ = false;
  std::vector<int> held_;
};

/// A blocking client socket connected to 127.0.0.1:`port`, or -1.
int ConnectRaw(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

// An accept that fails because the process is out of descriptors must not
// end the accept loop: once descriptors are free again, a new connection
// is served. A blocked accept has already reserved the descriptor for its
// next connection, so the first connection made while the process is out
// of them is still accepted; the accept after it fails. The client reads
// with a timeout, so a listener that stopped accepting fails the test
// instead of hanging it.
TEST(TcpListenerTest, SurvivesRunningOutOfDescriptors) {
  EchoHandler h;
  TcpServer server(&h);
  ASSERT_TRUE(server.Start(0).ok());
  int during = -1;
  {
    FdExhaustion squeeze(/*headroom=*/4);
    ASSERT_TRUE(squeeze.exhausted());
    squeeze.FreeOne();
    during = ConnectRaw(server.port());
    ASSERT_GE(during, 0) << std::strerror(errno);
    // Let the accept loop take that connection and fail its next accept.
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  }
  ::close(during);

  const int client = ConnectRaw(server.port());
  ASSERT_GE(client, 0) << std::strerror(errno);
  timeval timeout{};
  timeout.tv_sec = 2;
  ::setsockopt(client, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  std::string reply;
  Status got = WriteFrame(client, "after");
  if (got.ok()) got = ReadFrameInto(client, &reply);
  ::close(client);
  ASSERT_TRUE(got.ok()) << "no reply once descriptors were free: "
                        << got.ToString();
  EXPECT_EQ(reply, "after");
  server.Stop();
}

}  // namespace
}  // namespace epidemic::net
