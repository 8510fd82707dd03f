// Algorithm 1 (paper §3.1): quiescently stabilizing leader election on
// oriented rings, using only clockwise pulses.
//
// Every node starts by sending one CW pulse and then relays every received
// CW pulse, except for the single pulse that makes its received count equal
// its own ID — that pulse is absorbed and the node marks itself Leader (a
// state that any later pulse revokes). The network stabilizes with every
// node having sent and received exactly IDmax pulses (Corollary 13), at
// which point only the node with the maximal ID is Leader. Nodes never
// terminate: they cannot tell locally that quiescence has been reached.
#pragma once

#include <cstdint>
#include <memory>

#include "co/oriented.hpp"
#include "co/roles.hpp"
#include "sim/network.hpp"

namespace colex::co {

class Alg1Stabilizing final : public ElectionAutomaton {
 public:
  /// `id` must be a positive integer; IDs need not be contiguous. The
  /// algorithm also behaves correctly under non-unique IDs (Lemma 16), where
  /// all nodes holding the maximal ID end up Leader.
  explicit Alg1Stabilizing(std::uint64_t id);

  void start(sim::PulseContext& ctx) override;
  void react(sim::PulseContext& ctx) override;
  std::unique_ptr<sim::PulseAutomaton> clone() const override {
    return std::make_unique<Alg1Stabilizing>(*this);
  }
  /// Probe loop until the absorbing pulse fixes a (revocable) role.
  const char* phase() const override {
    return role_ == Role::undecided ? "probe" : "elected";
  }

  const PulseCounters& counters() const { return counters_; }

  /// Fault-injection only (sim/faults.hpp): overwrites the node's local
  /// state as if a transient memory fault hit it. The paper makes no
  /// self-stabilization claim — this API exists so the fault harness can
  /// probe, experimentally, which corrupted states Algorithm 1 does and
  /// does not stabilize from.
  void load_corrupted_state(const PulseCounters& counters, Role role) {
    counters_ = counters;
    role_ = role;
  }

 private:
  PulseCounters counters_;
};

}  // namespace colex::co
