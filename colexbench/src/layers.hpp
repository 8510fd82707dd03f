// Checks and timed calls shared by more than one workload: the output check
// of a blocking-substrate election (coro, sockets) and an Algorithm 2
// election on an own coro::Executor with its construction, its run and
// every port operation timed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "runtime/port.hpp"

namespace colexbench {

/// Empty when `res` is a correct Algorithm 2 election over `ids`: it
/// completed, sent exactly n(2·IDmax+1) pulses, every node decided and
/// ended, and exactly one node leads — the one holding IDmax. Otherwise a
/// description of what is wrong.
std::string check_transport(const colex::rt::TransportRunResult& res,
                            const std::vector<std::uint64_t>& ids);

/// Cumulative timings of timed_coro_election calls.
struct CoroTiming {
  std::uint64_t elections = 0;
  std::uint64_t pulses = 0;
  std::uint64_t setup_ns = 0;  ///< Executor ctor + spawn_alg/bind of n nodes
  std::uint64_t run_ns = 0;    ///< Executor::run
  std::uint64_t port_ops = 0;  ///< recv + send calls through the ports
  std::uint64_t port_ns = 0;
};

/// One Algorithm 2 election over `ids` on a fresh coro::Executor with
/// `workers` threads, built here rather than through run_on_coro so the
/// executor's construction, bind and run can be timed apart and every node
/// port wrapped in a timing PulsePort decorator. Returns the check_transport
/// verdict; `reconciled` reports whether the executor's sent and consumed
/// counts both equal the pulse count.
std::string timed_coro_election(const std::vector<std::uint64_t>& ids,
                                std::size_t workers, CoroTiming& t,
                                bool& reconciled);

inline double ratio(std::uint64_t a, std::uint64_t b) {
  return b == 0 ? 0.0 : static_cast<double>(a) / static_cast<double>(b);
}

}  // namespace colexbench
