// Output vocabulary of the leader election task (paper §3), and the one way
// every layer reads it: a node's ID and role, and the leader tally.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>

#include "sim/network.hpp"

namespace colex::co {

/// A node's election output. `undecided` is the initial value before the
/// algorithm first assigns a state; every correct execution ends with exactly
/// one `leader` and n-1 `non_leader`.
enum class Role { undecided, leader, non_leader };

constexpr const char* to_string(Role r) {
  switch (r) {
    case Role::undecided: return "undecided";
    case Role::leader: return "leader";
    case Role::non_leader: return "non-leader";
  }
  return "?";
}

/// A simulator node running one of the paper's election algorithms
/// (Alg1Stabilizing, Alg2Terminating, Alg3NonOriented).
class ElectionAutomaton : public sim::PulseAutomaton {
 public:
  std::uint64_t id() const { return id_; }
  Role role() const { return role_; }

 protected:
  explicit ElectionAutomaton(std::uint64_t id) : id_(id) {}

  std::uint64_t id_;
  Role role_ = Role::undecided;
};

/// Node v's role in a network of election automatons.
inline Role role_at(const sim::PulseNetwork& net, sim::NodeId v) {
  return net.automaton_as<ElectionAutomaton>(v).role();
}

/// The leader tally over nodes 0..n-1: sets `out.leader_count` and
/// `out.leader` (the first leader's index) from `role_of(v)`.
template <typename Out, typename RoleOf>
void tally_leaders(Out& out, std::size_t n, RoleOf role_of) {
  out.leader_count = 0;
  out.leader.reset();
  for (std::size_t v = 0; v < n; ++v) {
    if (role_of(v) != Role::leader) continue;
    ++out.leader_count;
    if (!out.leader) out.leader = v;
  }
}

}  // namespace colex::co
