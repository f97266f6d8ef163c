// Write batching of rcj::SocketSink over a socketpair: PAIR lines wait in
// userspace until a batch (net::kWireBatchBytes) is pending, a control
// frame sends everything queued before it in order, and Flush delivers the
// exact line sequence. The backpressure bound is covered end to end by
// net_server_test.
#include "net/socket_sink.h"

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <string>

#include "net/protocol.h"
#include "net/tcp.h"

namespace rcj {
namespace {

/// Both ends of a connected local stream socket, closed on destruction.
struct SocketPair {
  SocketPair() {
    EXPECT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0)
        << std::strerror(errno);
  }
  ~SocketPair() {
    close(fds[0]);
    close(fds[1]);
  }
  int writer() const { return fds[0]; }
  int reader() const { return fds[1]; }
  int fds[2] = {-1, -1};
};

RcjPair PairAt(int i) {
  return RcjPair::Make(
      PointRecord{Point{0.1 * i, 1.0 / (i + 3)}, 2 * i},
      PointRecord{Point{-0.3 * i, 7.0 / (i + 11)}, 2 * i + 1});
}

/// Everything readable on `fd` right now, without blocking.
std::string ReadAvailable(int fd) {
  std::string received;
  char chunk[4096];
  for (;;) {
    const ssize_t got = recv(fd, chunk, sizeof(chunk), MSG_DONTWAIT);
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) return received;
    received.append(chunk, static_cast<size_t>(got));
  }
}

TEST(SocketSinkTest, LessThanOneBatchOfPairsStaysQueued) {
  SocketPair sockets;
  SocketSink sink(sockets.writer());
  size_t queued = 0;
  int emitted = 0;
  while (queued + net::FormatPairLine(PairAt(emitted)).size() + 1 <
         net::kWireBatchBytes) {
    queued += net::FormatPairLine(PairAt(emitted)).size() + 1;
    ASSERT_TRUE(sink.Emit(PairAt(emitted)));
    ++emitted;
  }
  ASSERT_GT(emitted, 50);
  EXPECT_EQ(sink.emitted(), static_cast<uint64_t>(emitted));
  EXPECT_EQ(sink.bytes_sent(), 0u);
  EXPECT_EQ(ReadAvailable(sockets.reader()), "");
}

TEST(SocketSinkTest, ControlFrameSendsEverythingQueuedBeforeIt) {
  SocketPair sockets;
  SocketSink sink(sockets.writer());
  ASSERT_TRUE(sink.SendLine("OK"));
  EXPECT_EQ(ReadAvailable(sockets.reader()), "OK\n")
      << "the admission OK must leave at once";

  std::string expected;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(sink.Emit(PairAt(i)));
    expected += net::FormatPairLine(PairAt(i)) + "\n";
  }
  EXPECT_EQ(sink.bytes_sent(), 3u);
  ASSERT_TRUE(sink.SendLine("END pairs=5"));
  expected += "END pairs=5\n";
  EXPECT_EQ(sink.bytes_sent(), 3u + expected.size());
  EXPECT_EQ(ReadAvailable(sockets.reader()), expected);
}

TEST(SocketSinkTest, FlushDeliversTheExactLineSequence) {
  SocketPair sockets;
  SocketSink sink(sockets.writer());
  std::string expected;
  for (int i = 0; i < 400; ++i) {
    ASSERT_TRUE(sink.Emit(PairAt(i)));
    expected += net::FormatPairLine(PairAt(i)) + "\n";
  }
  // Several batches went out while emitting; less than one is left.
  EXPECT_GE(sink.bytes_sent(), net::kWireBatchBytes);
  EXPECT_LT(expected.size() - sink.bytes_sent(), net::kWireBatchBytes);
  ASSERT_TRUE(sink.Flush(1000));
  EXPECT_EQ(sink.bytes_sent(), expected.size());
  EXPECT_EQ(sink.emitted(), 400u);
  EXPECT_EQ(ReadAvailable(sockets.reader()), expected);
}

}  // namespace
}  // namespace rcj
