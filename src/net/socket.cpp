#include "net/socket.hpp"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

namespace colex::net {

namespace {

std::string errno_string(const char* what) {
  return std::string(what) + ": " + ::strerror(errno);
}

sockaddr_in loopback_addr(std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  return addr;
}

}  // namespace

void Fd::reset() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Fd listen_on(std::uint16_t port, std::uint16_t* bound_port,
             std::string* err) {
  Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) {
    if (err != nullptr) *err = errno_string("socket");
    return {};
  }
  const int one = 1;
  ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr = loopback_addr(port);
  if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    if (err != nullptr) *err = errno_string("bind");
    return {};
  }
  if (::listen(fd.get(), SOMAXCONN) != 0) {
    if (err != nullptr) *err = errno_string("listen");
    return {};
  }
  if (bound_port != nullptr) {
    sockaddr_in actual{};
    socklen_t len = sizeof(actual);
    if (::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&actual), &len) !=
        0) {
      if (err != nullptr) *err = errno_string("getsockname");
      return {};
    }
    *bound_port = ntohs(actual.sin_port);
  }
  return fd;
}

ConnectResult connect_once(std::uint16_t port) {
  ConnectResult r;
  Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) {
    r.error = errno_string("socket");
    return r;
  }
  sockaddr_in addr = loopback_addr(port);
  int rc;
  do {
    rc = ::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr),
                   sizeof(addr));
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) {
    r.status =
        errno == ECONNREFUSED ? ConnectStatus::refused : ConnectStatus::error;
    r.error = errno_string("connect");
    return r;
  }
  r.fd = std::move(fd);
  r.status = ConnectStatus::ok;
  return r;
}

Fd connect_retry(std::uint16_t port, const util::Deadline& deadline,
                 std::string* err) {
  for (;;) {
    ConnectResult r = connect_once(port);
    if (r.status == ConnectStatus::ok) return std::move(r.fd);
    if (r.status == ConnectStatus::error) {
      if (err != nullptr) *err = r.error;
      return {};
    }
    // refused: the listener is not up yet — back off briefly and retry
    // until the deadline (loopback refusals resolve in microseconds once
    // the peer binds; 1ms keeps the retry loop cool without adding
    // meaningful formation latency).
    if (deadline.expired()) {
      if (err != nullptr) {
        *err = "connect to 127.0.0.1:" + std::to_string(port) +
               ": refused until deadline";
      }
      return {};
    }
    ::poll(nullptr, 0, 1);
  }
}

Fd accept_one(int listener, const util::Deadline& deadline, std::string* err) {
  for (;;) {
    pollfd pfd{listener, POLLIN, 0};
    const int rc = ::poll(&pfd, 1, deadline.remaining_ms());
    if (rc < 0 && errno != EINTR) {
      if (err != nullptr) *err = errno_string("poll(accept)");
      return {};
    }
    if (rc > 0 && (pfd.revents & POLLIN) != 0) {
      const int fd = ::accept(listener, nullptr, nullptr);
      if (fd >= 0) return Fd(fd);
      if (errno != EINTR && errno != EAGAIN && errno != EWOULDBLOCK) {
        if (err != nullptr) *err = errno_string("accept");
        return {};
      }
    }
    if (deadline.expired()) {
      if (err != nullptr) *err = "accept: deadline expired";
      return {};
    }
  }
}

bool set_nonblocking(int fd, std::string* err) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    if (err != nullptr) *err = errno_string("fcntl(O_NONBLOCK)");
    return false;
  }
  return true;
}

void set_nodelay(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

}  // namespace colex::net
