#include "util/io.hpp"

#include <errno.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>

#include <chrono>
#include <limits>

namespace colex::util {

namespace {

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

Deadline Deadline::in_ms(std::uint64_t ms) {
  // Saturate instead of wrapping: a timeout too large to represent is a
  // deadline that never expires, not one already in the past.
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  const std::int64_t now = steady_ns();
  Deadline d;
  d.at_ns_ = ms < static_cast<std::uint64_t>(kMax - now) / 1'000'000
                 ? now + static_cast<std::int64_t>(ms) * 1'000'000
                 : kMax;
  return d;
}

int Deadline::remaining_ms(int cap_ms) const {
  const std::int64_t left_ns = at_ns_ - steady_ns();
  if (left_ns <= 0) return 0;
  const std::int64_t ms = left_ns / 1'000'000 + 1;
  return ms > cap_ms ? cap_ms : static_cast<int>(ms);
}

bool Deadline::expired() const { return steady_ns() >= at_ns_; }

bool send_all(int fd, const void* data, std::size_t len,
              const Deadline& deadline, std::string* err) {
  const char* bytes = static_cast<const char*>(data);
  std::size_t off = 0;
  while (off < len) {
    const ssize_t n = ::send(fd, bytes + off, len - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      pollfd pfd{fd, POLLOUT, 0};
      ::poll(&pfd, 1, deadline.remaining_ms());
      if (deadline.expired()) {
        if (err != nullptr) *err = "send: deadline expired";
        return false;
      }
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (err != nullptr) *err = std::string("send: ") + ::strerror(errno);
    return false;
  }
  return true;
}

}  // namespace colex::util
