#include "net/tcp.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace rcj {
namespace net {
namespace {

Status ErrnoStatus(const std::string& what) {
  return Status::IoError(what + ": " + std::strerror(errno));
}

/// Fills `*addr` with `host:port`; false when `host` is not a numeric
/// IPv4 address.
bool ParseIpv4(const std::string& host, uint16_t port,
               struct sockaddr_in* addr) {
  std::memset(addr, 0, sizeof(*addr));
  addr->sin_family = AF_INET;
  addr->sin_port = htons(port);
  return inet_pton(AF_INET, host.c_str(), &addr->sin_addr) == 1;
}

void SetNoDelay(int fd) {
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

}  // namespace

Result<int> DialTcp(const std::string& host, uint16_t port) {
  struct sockaddr_in addr;
  if (!ParseIpv4(host, port, &addr)) {
    return Status::InvalidArgument("bad host '" + host + "'");
  }
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return ErrnoStatus("socket");
  if (connect(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const Status status =
        ErrnoStatus("connect " + host + ":" + std::to_string(port));
    close(fd);
    return status;
  }
  SetNoDelay(fd);
  return fd;
}

Status TcpListener::Listen(const std::string& bind_address, uint16_t port,
                           int backlog) {
  Close();
  struct sockaddr_in addr;
  if (!ParseIpv4(bind_address, port, &addr)) {
    return Status::InvalidArgument("bad bind address '" + bind_address +
                                   "'");
  }
  fd_ = socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return ErrnoStatus("socket");
  const int one = 1;
  setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  Status status;
  socklen_t addr_len = sizeof(addr);
  if (bind(fd_, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    status = ErrnoStatus("bind");
  } else if (listen(fd_, backlog) != 0) {
    status = ErrnoStatus("listen");
  } else if (getsockname(fd_, reinterpret_cast<struct sockaddr*>(&addr),
                         &addr_len) != 0) {
    status = ErrnoStatus("getsockname");
  }
  if (!status.ok()) {
    Close();
    return status;
  }
  port_ = ntohs(addr.sin_port);
  return Status::OK();
}

void TcpListener::AcceptUntil(const std::atomic<bool>& stop,
                              const std::function<bool()>& saturated,
                              const std::function<void(int fd)>& on_accept) {
  while (!stop.load(std::memory_order_relaxed)) {
    if (saturated()) {
      poll(nullptr, 0, 20);
      continue;
    }
    struct pollfd pfd;
    pfd.fd = fd_;
    pfd.events = POLLIN;
    pfd.revents = 0;
    if (poll(&pfd, 1, 100) <= 0) continue;
    const int fd = accept(fd_, nullptr, nullptr);
    if (fd < 0) continue;
    SetNoDelay(fd);
    on_accept(fd);
  }
}

void TcpListener::Close() {
  if (fd_ < 0) return;
  close(fd_);
  fd_ = -1;
}

}  // namespace net
}  // namespace rcj
