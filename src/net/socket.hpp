// Thin POSIX socket layer for the src/net backend: RAII file descriptors,
// loopback listen/connect with refused-vs-fatal classification, and (from
// util/io.hpp) monotonic deadlines and EAGAIN-safe bulk writes. Everything is
// loopback-oriented (the multi-process harness runs rings on 127.0.0.1)
// but nothing below assumes it except the connect helpers' address.
//
// All blocking operations take an explicit util::Deadline — the backend
// has no unbounded waits anywhere (the coordinator's watchdog is the only
// authority on giving up), and the tests drive every timeout path with
// short deadlines instead of sleeps.
#pragma once

#include <cstdint>
#include <string>
#include <utility>

#include "util/io.hpp"

namespace colex::net {

/// Move-only owner of one file descriptor.
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) : fd_(fd) {}
  Fd(Fd&& other) noexcept : fd_(std::exchange(other.fd_, -1)) {}
  Fd& operator=(Fd&& other) noexcept {
    if (this != &other) {
      reset();
      fd_ = std::exchange(other.fd_, -1);
    }
    return *this;
  }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;
  ~Fd() { reset(); }

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  int release() { return std::exchange(fd_, -1); }
  /// Closes the descriptor; safe to call repeatedly (idempotent).
  void reset();

 private:
  int fd_ = -1;
};

/// Classified outcome of a single non-retried connect attempt.
enum class ConnectStatus {
  ok,
  refused,  ///< ECONNREFUSED: listener not up (yet) — retryable
  error,    ///< anything else — not retryable
};

struct ConnectResult {
  Fd fd;
  ConnectStatus status = ConnectStatus::error;
  std::string error;
};

/// Binds and listens on 127.0.0.1:`port` (0 = kernel-assigned ephemeral
/// port). On success the bound port is written to `bound_port`. Failure
/// returns an invalid Fd with `err` set.
Fd listen_on(std::uint16_t port, std::uint16_t* bound_port, std::string* err);

/// One blocking connect attempt to 127.0.0.1:`port`, classified.
ConnectResult connect_once(std::uint16_t port);

/// Connects to 127.0.0.1:`port`, retrying refused attempts (with a short
/// backoff) until the deadline. Returns an invalid Fd with `err` set on a
/// non-retryable error or deadline expiry.
Fd connect_retry(std::uint16_t port, const util::Deadline& deadline,
                 std::string* err);

/// Accepts one connection, waiting until the deadline. Returns an invalid
/// Fd with `err` set on failure or expiry.
Fd accept_one(int listener, const util::Deadline& deadline, std::string* err);

/// Marks the descriptor non-blocking (the per-node event loop reads with
/// O_NONBLOCK and blocks only in poll()).
bool set_nonblocking(int fd, std::string* err);

/// Disables Nagle so single-pulse writes are not delayed behind ACKs; the
/// backend batches writes itself where coalescing is profitable.
void set_nodelay(int fd);

}  // namespace colex::net
