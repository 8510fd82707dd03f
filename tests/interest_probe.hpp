// A scripted node for the interest-set contract (runtime/transport.hpp),
// shared by the coroutine, ThreadRing and socket tests: it announces itself
// with one pulse, then polls only the port CW pulses arrive on and waits.
// Pulses landing on its other port must neither wake it nor end its wait,
// so it returns from exactly one wait: the one a CW pulse ends.
#pragma once

#include <cstdint>

#include "co/oriented.hpp"
#include "runtime/port.hpp"

namespace colex::test {

/// Sends one pulse out of `announce`, then loops `recv(CW arrival port) /
/// wait_any()` until a CW pulse is consumed. `*waits_returned` counts the
/// waits that returned true; `terminated` reports a consumed CW pulse.
template <rt::PulsePort Io>
rt::ElectionTask poll_cw_only(Io io, sim::Port announce,
                              std::uint64_t* waits_returned) {
  rt::BlockingOutcome out;
  io.send(announce);
  while (!io.recv(co::kCcwPort)) {  // CW pulses arrive on kCcwPort
    if (!co_await io.wait_any()) {
      out.stopped = true;
      co_return out;
    }
    ++*waits_returned;
  }
  out.terminated = true;
  co_return out;
}

}  // namespace colex::test
