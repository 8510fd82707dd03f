// Node layout and ring wiring for the coroutine runtime.
//
// Each ring node is one cache-line-sized block: its two incoming pulse
// channels, the scheduler state word, the wiring (peer index + peer port
// label per port), and the node coroutine's handle. The whole node fits in
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
#include "sim/types.hpp"
#include "util/contracts.hpp"

namespace colex::coro {

/// Scheduler state of a node coroutine. Transitions:
///   ready -> running        (a worker popped it and resumes it)
///   running -> parked       (wait_any found both channels empty)
///   running -> done         (the coroutine returned)
///   parked -> ready         (a producer's CAS claimed the wakeup; exactly
///                            the claimant pushes the node to a deque)
///   parked -> running       (the parking node reclaimed itself: a pulse
///                            landed between its empty poll and the CAS)
/// `parked -> ready` is the only cross-thread transition and is a CAS, so
/// a wakeup is claimed exactly once no matter how many pulses race in —
/// later pulses find READY and coalesce into the pending wakeup (batching).
enum class NodeState : std::uint32_t { ready = 0, running, parked, done };

struct alignas(kCacheLine) CoroNode {
  PulseChannel in[2];  ///< incoming pulses, indexed by this node's port label
  std::atomic<NodeState> state{NodeState::ready};
  std::uint32_t peer[2] = {0, 0};        ///< node at the far end of port p
  std::uint8_t peer_port[2] = {0, 0};    ///< port label at that peer
  /// Current algorithm phase (obs::Phase index), published by the node
  /// coroutine at transitions — a relaxed store on the node's own line;
  /// read by stall dumps and the per-phase distribution gauges.
  std::atomic<std::uint8_t> phase{0};
  std::coroutine_handle<> handle{};      ///< set once before the run starts

  bool has_pending(std::memory_order order = std::memory_order_seq_cst) const {
    return in[0].pending(order) != 0 || in[1].pending(order) != 0;
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
