// Deadline-bounded socket writes shared by the socket backend (src/net) and
// the metrics HTTP server (src/obs): a monotonic deadline and an
// EAGAIN/EINTR-aware send loop.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace colex::util {

/// Monotonic-clock deadline (steady_clock; wall-clock never appears, so
/// runs cannot be confused by clock steps).
class Deadline {
 public:
  /// A deadline `ms` milliseconds from now; one past the clock's range
  /// saturates to a deadline that never expires.
  static Deadline in_ms(std::uint64_t ms);
  /// Milliseconds until expiry, clamped to [0, cap_ms] for poll().
  int remaining_ms(int cap_ms = 100) const;
  bool expired() const;

 private:
  std::int64_t at_ns_ = 0;  ///< steady-clock nanoseconds at expiry
};

/// Writes all `len` bytes (MSG_NOSIGNAL; EINTR retries; EAGAIN waits for
/// POLLOUT within the deadline). Returns false with `err` (if non-null)
/// set on failure.
bool send_all(int fd, const void* data, std::size_t len,
              const Deadline& deadline, std::string* err);

}  // namespace colex::util
