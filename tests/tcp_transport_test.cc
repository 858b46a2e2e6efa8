#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <fstream>
#include <string>
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
  EXPECT_EQ(raw[4], 0);  // flags: uncompressed
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
  Result<std::string> got = ReadFrame(sp.fds[1]);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, a + b + c);
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
  SocketPair sp;
  const char header[5] = {1, 0, 0, 0, char(0x80)};  // undefined flag bit
  ASSERT_EQ(::send(sp.fds[0], header, 5, 0), 5);
  std::string payload;
  EXPECT_TRUE(ReadFrameInto(sp.fds[1], &payload).IsCorruption());
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

TEST(TcpPoolTest, ConnectPerCallWhenPoolingDisabled) {
  EchoHandler h;
  TcpServer server(&h);
  ASSERT_TRUE(server.Start(0).ok());
  TcpTransport::Options options;
  options.pool_connections = false;
  TcpTransport transport(1, options);
  transport.SetPeerPort(0, server.port());

  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(transport.Call(0, "x").ok());
  }
  const TransportStats s = transport.Stats(false);
  EXPECT_EQ(s.calls, 5u);
  EXPECT_EQ(s.connections_opened, 5u);  // the churn the pool removes
  EXPECT_EQ(s.connections_reused, 0u);
  server.Stop();
}

/// This process's virtual size in bytes, from /proc/self/status (0 when
/// unavailable).
uint64_t VmSizeBytes() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmSize:") {
      uint64_t kb = 0;
      status >> kb;
      return kb * 1024;
    }
    std::getline(status, key);
  }
  return 0;
}

// Short-lived clients must not leave one exited thread — and its stack
// mapping — behind per connection: the server joins ended connections.
TEST(TcpPoolTest, ConnectPerCallClientsLeaveNoThreadStacks) {
  EchoHandler h;
  TcpServer server(&h);
  ASSERT_TRUE(server.Start(0).ok());
  TcpTransport::Options options;
  options.pool_connections = false;
  TcpTransport transport(1, options);
  transport.SetPeerPort(0, server.port());

  for (int i = 0; i < 10; ++i) ASSERT_TRUE(transport.Call(0, "warm").ok());
  const uint64_t before = VmSizeBytes();
  ASSERT_GT(before, 0u);
  for (int i = 0; i < 500; ++i) ASSERT_TRUE(transport.Call(0, "x").ok());
  const uint64_t after = VmSizeBytes();
  EXPECT_LT(after, before + (uint64_t{256} << 20))
      << "VmSize grew from " << before << " to " << after << " bytes";
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

}  // namespace
}  // namespace epidemic::net
