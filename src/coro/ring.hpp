// Node layout and ring wiring for the coroutine runtime.
//
// Each ring node is one cache-line-sized block: its two incoming pulse
// channels, the scheduler state word, the wiring (peer index + peer port
// label per port), the interest set, the node coroutine's handle and the
// execution context resuming it. The whole node fits in
// (and is aligned to) a single cache line, so at n=10^6 the node table is
// 64MB of contiguous memory with zero per-node allocation, and two nodes
// never share a line (no false sharing between neighbors' send paths and
// an unrelated node's scheduler word).
//
// Wiring is identical to ThreadRing / sim::Network<P>::ring: edge i
// attaches node i's Port1 to node i+1's Port0 in the oriented base, with
// optional per-node port-label flips for non-oriented rings.
#pragma once

#include <atomic>
#include <coroutine>
#include <cstdint>
#include <vector>

#include "coro/spsc.hpp"
#include "obs/phase.hpp"
#include "runtime/transport.hpp"
#include "sim/types.hpp"
#include "util/contracts.hpp"

namespace colex::coro {

struct ExecContext;

/// Scheduler state of a node coroutine: ready, running or done, or parked
/// on an interest set of ports (`parked_on(mask)`, see coro/executor.hpp).
/// Transitions:
///   ready -> running        (a worker popped it and resumes it)
///   running -> parked(M)    (wait_any found every port in M empty)
///   running -> done         (the coroutine returned)
///   parked(M) -> ready      (a producer whose pulse landed on a port in M
///                            claimed the wakeup with a CAS — or the parking
///                            node itself, when such a pulse landed between
///                            its empty poll and its park; exactly the
///                            claimant pushes the node to a deque)
/// `parked -> ready` is the only cross-thread transition and is a CAS, so
/// a wakeup is claimed exactly once no matter how many pulses race in —
/// later pulses find READY and coalesce into the pending wakeup (batching).
/// A pulse on a port outside M claims nothing: it stays queued until the
/// node polls that port again.
enum class NodeState : std::uint32_t { ready = 0, running, done };

/// Bit of a parked state word; the low two bits are its port mask.
inline constexpr std::uint32_t kParkedBit = 4;

/// The state of a node parked on the ports in `mask` (non-empty).
constexpr NodeState parked_on(std::uint32_t mask) {
  return static_cast<NodeState>(kParkedBit | mask);
}
constexpr bool is_parked(NodeState s) {
  return (static_cast<std::uint32_t>(s) & kParkedBit) != 0;
}
/// True iff a pulse landing on the port with bit `bit` wakes state `s`.
constexpr bool wakes(NodeState s, std::uint32_t bit) {
  return is_parked(s) && (static_cast<std::uint32_t>(s) & bit) != 0;
}

struct alignas(kCacheLine) CoroNode {
  PulseChannel in[2];  ///< incoming pulses, indexed by this node's port label
  std::atomic<NodeState> state{NodeState::ready};
  std::uint32_t peer[2] = {0, 0};        ///< node at the far end of port p
  std::uint8_t peer_port[2] = {0, 0};    ///< port label at that peer
  /// Current algorithm phase (obs::Phase index), published by the node
  /// coroutine at transitions — a relaxed store on the node's own line;
  /// read by stall dumps and the per-phase distribution gauges.
  std::atomic<std::uint8_t> phase{0};
  /// What the node's next wait parks on (runtime/transport.hpp). Touched
  /// only by the node's own coroutine, which the deques hand between
  /// workers.
  rt::InterestSet interest;
  std::coroutine_handle<> handle{};      ///< set once before the run starts
  /// The execution context resuming the node (coro/executor.hpp), set by
  /// the worker before each resume and read only during it.
  ExecContext* ctx = nullptr;

  /// True iff a pulse is pending on a port in `mask`.
  bool has_pending(std::uint32_t mask) const {
    for (std::size_t i = 0; i < 2; ++i) {
      if ((mask & (1u << i)) != 0 && in[i].pending() != 0) return true;
    }
    return false;
  }
};

static_assert(sizeof(CoroNode) == kCacheLine,
              "a node must pack into one cache line");

/// Builds the node table for an n-ring with the given per-node port flips
/// (empty = oriented).
inline std::vector<CoroNode> wire_ring(std::size_t n,
                                       const std::vector<bool>& port_flips) {
  COLEX_EXPECTS(n >= 1);
  COLEX_EXPECTS(port_flips.empty() || port_flips.size() == n);
  COLEX_EXPECTS(n <= UINT32_MAX);
  std::vector<CoroNode> nodes(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t j = (i + 1) % n;
    const sim::Port from = sim::successor_port(port_flips, i);
    const sim::Port to = sim::opposite(sim::successor_port(port_flips, j));
    nodes[i].peer[sim::index(from)] = static_cast<std::uint32_t>(j);
    nodes[i].peer_port[sim::index(from)] =
        static_cast<std::uint8_t>(sim::index(to));
    nodes[j].peer[sim::index(to)] = static_cast<std::uint32_t>(i);
    nodes[j].peer_port[sim::index(to)] =
        static_cast<std::uint8_t>(sim::index(from));
  }
  return nodes;
}

}  // namespace colex::coro
