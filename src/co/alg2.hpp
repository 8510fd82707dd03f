// Algorithm 2 (paper §3.2, Theorem 1): quiescently *terminating* leader
// election on oriented rings with message complexity exactly n(2*IDmax + 1).
//
// Two instances of Algorithm 1 run in parallel: one over the CW channel
// (started at initialization) and one over the CCW channel (started at a
// node only once rho_cw >= ID, which makes the CCW instance lag behind the
// CW one). The event rho_cw = ID = rho_ccw then occurs uniquely at the node
// with the maximal ID, which reacts by sending one extra CCW pulse — the
// termination pulse. Every node that observes rho_ccw > rho_cw for the first
// time forwards that pulse and terminates; the pulse returns to the leader,
// which terminates last without forwarding it (quiescent termination, and
// termination in an order that makes the algorithm composable, §1.1).
#pragma once

#include <cstdint>
#include <memory>

#include "co/oriented.hpp"
#include "co/roles.hpp"
#include "sim/network.hpp"

namespace colex::co {

class Alg2Terminating final : public ElectionAutomaton {
 public:
  explicit Alg2Terminating(std::uint64_t id);

  void start(sim::PulseContext& ctx) override;
  void react(sim::PulseContext& ctx) override;
  bool terminated() const override { return done_; }
  std::unique_ptr<sim::PulseAutomaton> clone() const override {
    return std::make_unique<Alg2Terminating>(*this);
  }
  /// Paper line ranges: probe (3-13 before a role), initiated_wait (the
  /// unique node inside lines 16-17), elected (role fixed, draining toward
  /// the until), done (past line 18).
  const char* phase() const override {
    if (done_) return "done";
    if (awaiting_return_) return "initiated_wait";
    return role_ == Role::undecided ? "probe" : "elected";
  }

  const PulseCounters& counters() const { return counters_; }
  /// True iff this node fired the unique rho_cw = ID = rho_ccw event and
  /// initiated the termination pulse (must only ever be the leader).
  bool initiated_termination() const { return initiated_termination_; }

  /// Fault-injection only (sim/faults.hpp): overwrites the node's counters
  /// and role as if a transient memory fault hit it. Unlike the stabilizing
  /// algorithms, Algorithm 2 *commits* (it terminates), so a corrupted
  /// counter pair rho_cw = rho_ccw = ID makes a non-maximal node initiate
  /// termination — the fault harness uses this to exhibit a committed
  /// mis-election (safety violation), not just a stall.
  void load_corrupted_state(const PulseCounters& counters, Role role) {
    counters_ = counters;
    role_ = role;
  }

 private:
  /// One iteration of the paper's repeat-until loop (lines 3-18). Returns
  /// true if any progress was made (a pulse consumed or sent, or a state
  /// transition taken).
  bool iterate(sim::PulseContext& ctx);

  PulseCounters counters_;
  bool initiated_termination_ = false;  // entered lines 14-17
  bool awaiting_return_ = false;        // inside the wait loop, lines 16-17
  bool done_ = false;                   // passed the until in line 18
};

}  // namespace colex::co
