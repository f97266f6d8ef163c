#include "net/socket_sink.h"

#include <poll.h>
#include <sys/socket.h>

#include <cerrno>
#include <chrono>

#include "net/protocol.h"
#include "net/tcp.h"

namespace rcj {

SocketSink::SocketSink(int fd, SocketSinkOptions options,
                       std::function<void()> on_dead)
    : fd_(fd), options_(options), on_dead_(std::move(on_dead)) {
  if (options_.max_pending_bytes == 0) options_.max_pending_bytes = 1;
}

void SocketSink::MarkDead() {
  if (dead_) return;
  dead_ = true;
  if (on_dead_) on_dead_();
}

bool SocketSink::Emit(const RcjPair& pair) {
  if (dead_) return false;
  pending_ += net::FormatPairLine(pair);
  pending_ += '\n';
  if (!Settle(pending_bytes() >= net::kWireBatchBytes)) return false;
  ++emitted_;
  return true;
}

bool SocketSink::SendLine(const std::string& line) {
  if (dead_) return false;
  pending_ += line;
  pending_ += '\n';
  return Settle(/*send_now=*/true);
}

bool SocketSink::Settle(bool send_now) {
  if (send_now || pending_bytes() > options_.max_pending_bytes) TryDrain();
  if (dead_) return false;
  if (pending_bytes() > options_.max_pending_bytes) {
    // The kernel buffer and our bound are both full: give the consumer one
    // bounded grace period, then treat it as gone. A client that merely
    // reads slowly gets back under the bound within the grace (a complete
    // drain is not required); one that stopped reading turns into a
    // cancellation instead of an unbounded queue.
    ++stalls_;
    Flush(options_.drain_grace_ms);
    if (dead_ || pending_bytes() > options_.max_pending_bytes) {
      MarkDead();
      return false;
    }
  }
  return true;
}

void SocketSink::TryDrain() {
  // drained_ indexes the sent prefix; the buffer is compacted only when
  // empty or the dead prefix dominates, so partial kernel-sized sends cost
  // linear copies instead of a memmove of the whole backlog each round.
  while (drained_ < pending_.size() && !dead_) {
    const ssize_t sent =
        send(fd_, pending_.data() + drained_, pending_.size() - drained_,
             MSG_DONTWAIT | MSG_NOSIGNAL);
    if (sent > 0) {
      drained_ += static_cast<size_t>(sent);
      bytes_sent_ += static_cast<uint64_t>(sent);
      continue;
    }
    if (sent < 0 && errno == EINTR) continue;
    if (sent < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    MarkDead();  // peer closed or the connection errored
  }
  if (drained_ == pending_.size()) {
    pending_.clear();
    drained_ = 0;
  } else if (drained_ > options_.max_pending_bytes) {
    pending_.erase(0, drained_);
    drained_ = 0;
  }
}

bool SocketSink::Flush(int timeout_ms) {
  TryDrain();
  // The deadline is wall-clock: poll() returning early (socket writable,
  // signal) must not eat into the grace.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (pending_bytes() > 0 && !dead_) {
    const auto remaining = std::chrono::duration_cast<
        std::chrono::milliseconds>(deadline -
                                   std::chrono::steady_clock::now());
    if (remaining.count() <= 0) return false;
    struct pollfd pfd;
    pfd.fd = fd_;
    pfd.events = POLLOUT;
    pfd.revents = 0;
    const int step_ms =
        remaining.count() < 50 ? static_cast<int>(remaining.count()) : 50;
    const int ready = poll(&pfd, 1, step_ms);
    if (ready < 0 && errno != EINTR) {
      MarkDead();
      return false;
    }
    if (ready > 0 && (pfd.revents & (POLLERR | POLLNVAL)) != 0) {
      MarkDead();
      return false;
    }
    TryDrain();
  }
  return pending_bytes() == 0 && !dead_;
}

}  // namespace rcj
