// TCP plumbing shared by every ringjoin socket: the dial behind
// net::ProtocolClient and fleet::BackendPool, and the listen socket plus
// accept loop behind NetServer and fleet::FleetProxy.
//
// Every socket the library dials or accepts has TCP_NODELAY set — dialed
// ones in DialTcp, accepted ones in TcpListener::AcceptUntil. The writers
// batch for themselves instead (kWireBatchBytes), so a reply that is
// complete in userspace leaves in one write and is never held back by
// Nagle's algorithm waiting on the peer's delayed ACK.
#ifndef RINGJOIN_NET_TCP_H_
#define RINGJOIN_NET_TCP_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>

#include "common/macros.h"
#include "common/status.h"

namespace rcj {
namespace net {

/// How many bytes of a result stream a writer queues before it sends:
/// large enough to amortize the syscall over ~80 PAIR lines, small enough
/// that a streaming reader sees results while the join still runs.
/// Control frames (OK, END, ERR, MUT) and explicit flushes send at once.
constexpr size_t kWireBatchBytes = 8192;

/// Dials `host:port` and returns a connected blocking socket fd with
/// TCP_NODELAY set. `host` must be a numeric IPv4 address (no name
/// resolution): anything else is InvalidArgument. IoError on connection
/// failure — the message carries errno text so retry layers can log the
/// real cause.
Result<int> DialTcp(const std::string& host, uint16_t port);

/// A listening TCP socket and the accept loop of a thread-per-connection
/// front door. Closes its socket on destruction.
class TcpListener {
 public:
  TcpListener() = default;
  ~TcpListener() { Close(); }

  RINGJOIN_DISALLOW_COPY_AND_ASSIGN(TcpListener);

  /// Binds `bind_address:port` with SO_REUSEADDR (port 0 picks an
  /// ephemeral port; read it back with port()) and listens.
  /// InvalidArgument for a non-numeric address, IoError when the socket
  /// cannot be bound (e.g. the port is taken) or put into listen mode.
  Status Listen(const std::string& bind_address, uint16_t port,
                int backlog);

  /// The bound port; valid after a successful Listen().
  uint16_t port() const { return port_; }

  /// Accepts peers until `stop` is set, checking it at least every
  /// 100 ms. Each round first asks `saturated()`; while it answers true
  /// the loop sleeps 20 ms and asks again, so further peers wait in the
  /// kernel backlog instead of costing a thread each. Otherwise each
  /// accepted socket, TCP_NODELAY already set, goes to `on_accept`,
  /// which owns it from then on.
  void AcceptUntil(const std::atomic<bool>& stop,
                   const std::function<bool()>& saturated,
                   const std::function<void(int fd)>& on_accept);

  /// Closes the listening socket. Idempotent.
  void Close();

 private:
  int fd_ = -1;
  uint16_t port_ = 0;
};

}  // namespace net
}  // namespace rcj

#endif  // RINGJOIN_NET_TCP_H_
