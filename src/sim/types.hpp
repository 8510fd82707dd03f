// Basic vocabulary of the content-oblivious network model (paper §2).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace colex::sim {

using NodeId = std::size_t;

/// Each ring node communicates through two bidirectional ports, Port0 and
/// Port1 (paper §2, "Ring's orientation"). In an *oriented* ring, Port1 leads
/// to the clockwise neighbor; in a non-oriented ring the assignment is
/// arbitrary per node.
enum class Port : int { p0 = 0, p1 = 1 };

constexpr Port opposite(Port p) { return p == Port::p0 ? Port::p1 : Port::p0; }
constexpr int index(Port p) { return static_cast<int>(p); }
constexpr Port port_from_index(int i) { return i == 0 ? Port::p0 : Port::p1; }

/// The ring-wiring rule every substrate builds from: edge i joins node i's
/// Port1 to node (i+1 mod n)'s Port0, and a flip swaps one node's two
/// labels. Returns the label of a node's port toward its successor; its
/// port toward its predecessor is the `opposite` one.
constexpr Port successor_port(bool flipped) {
  return flipped ? Port::p0 : Port::p1;
}
/// The same for node v of a ring with per-node `flips` (empty = oriented).
constexpr Port successor_port(const std::vector<bool>& flips, std::size_t v) {
  return successor_port(!flips.empty() && flips[v]);
}

/// A fully corrupted message: carries no content whatsoever (paper §2).
struct Pulse {};

/// Physical direction of a directed channel with respect to the underlying
/// cycle 0 -> 1 -> ... -> n-1 -> 0 used to build the ring. Nodes in
/// non-oriented rings cannot observe this; it exists for analysis,
/// scheduling, and ground-truth checks only.
enum class Direction { cw, ccw };

constexpr const char* to_string(Direction d) {
  return d == Direction::cw ? "cw" : "ccw";
}

}  // namespace colex::sim
