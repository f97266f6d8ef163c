// SocketSink — the PairSink that turns a connected TCP socket into a
// streaming result channel.
//
// Every pair is serialized to one PAIR line and appended to a bounded
// pending buffer that is drained with non-blocking sends once
// net::kWireBatchBytes are queued, so a reading client receives results
// in batches while the join is still running. A control frame (SendLine)
// or a Flush sends everything queued before it at once: the rest of the
// stream leaves together with END, and a reply of several frames (OK +
// MUT) is one write.
// Backpressure maps onto the engine's cancellation contract: when the
// kernel send buffer is full and the pending buffer would exceed its bound
// (after a short drain grace), or the peer disconnected, Emit() returns
// false — exactly the signal a satisfied limit raises — and the engine
// cancels the query's remaining work instead of joining for a client that
// cannot or will not consume the stream.
//
// Threading: like every per-query sink, one thread drives Emit() at a time
// (the engine serializes delivery per query). The connection thread only
// calls SendLine()/Flush() before submitting and after the ticket resolved,
// so no internal locking is needed.
#ifndef RINGJOIN_NET_SOCKET_SINK_H_
#define RINGJOIN_NET_SOCKET_SINK_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>

#include "core/pair_sink.h"

namespace rcj {

struct SocketSinkOptions {
  /// Bound of the userspace pending buffer (serialized-but-unsent bytes).
  /// Overflowing it past the drain grace cancels the query.
  size_t max_pending_bytes = 256 * 1024;
  /// How long one Emit() may wait for the socket to become writable once
  /// the pending buffer is full before declaring the consumer dead.
  int drain_grace_ms = 2000;
};

class SocketSink final : public PairSink {
 public:
  /// Does not own `fd`; the caller closes it after the last Flush().
  /// `on_dead`, when set, fires exactly once on the transition to dead(),
  /// from whatever thread caused it (the engine's during Emit, the
  /// connection's during SendLine/Flush) and before the failing call
  /// returns — the server uses it to pull QueryTicket::Cancel() so the
  /// service resolves a backpressure-killed stream as Cancelled, keeping
  /// the admission ledger consistent with the wire's ERR frame.
  explicit SocketSink(int fd, SocketSinkOptions options = {},
                      std::function<void()> on_dead = nullptr);

  /// Serializes and enqueues one PAIR line, sending only once a batch is
  /// pending. Returns false — requesting engine-side cancellation — once
  /// the peer is gone or the bounded pending buffer cannot be drained.
  bool Emit(const RcjPair& pair) override;

  /// Enqueues one control frame (OK/END/ERR, without the newline) and
  /// sends it, with every line queued before it, as far as the socket
  /// takes it now. Returns false once the sink is dead.
  bool SendLine(const std::string& line);

  /// Blocks up to `timeout_ms` draining the pending buffer; true when every
  /// queued byte reached the kernel.
  bool Flush(int timeout_ms);

  /// True once a send failed or the pending bound was overrun; no further
  /// bytes will be accepted or sent.
  bool dead() const { return dead_; }

  /// PAIR lines accepted so far (the count an END summary reports).
  uint64_t emitted() const { return emitted_; }

  /// Bytes handed to the kernel so far (result payload plus control
  /// frames sent through this sink).
  uint64_t bytes_sent() const { return bytes_sent_; }

  /// Times an Emit() hit the pending-buffer bound and had to sit out the
  /// drain grace — the backpressure signal the server's registry counts.
  uint64_t stalls() const { return stalls_; }

 private:
  /// Drains the pending buffer when `send_now` is set or the bound is
  /// exceeded, then enforces the bound (with its drain grace). False once
  /// the sink is dead.
  bool Settle(bool send_now);
  /// Sends as much pending data as the socket accepts right now.
  void TryDrain();
  /// Marks the sink dead, firing on_dead exactly once.
  void MarkDead();
  /// Bytes enqueued but not yet handed to the kernel.
  size_t pending_bytes() const { return pending_.size() - drained_; }

  int fd_;
  SocketSinkOptions options_;
  std::function<void()> on_dead_;
  std::string pending_;
  /// Length of pending_'s already-sent prefix (compacted lazily).
  size_t drained_ = 0;
  bool dead_ = false;
  uint64_t emitted_ = 0;
  uint64_t bytes_sent_ = 0;
  uint64_t stalls_ = 0;
};

}  // namespace rcj

#endif  // RINGJOIN_NET_SOCKET_SINK_H_
