#include "co/alg2.hpp"

#include "util/contracts.hpp"

namespace colex::co {

Alg2Terminating::Alg2Terminating(std::uint64_t id)
    : ElectionAutomaton(id) {
  COLEX_EXPECTS(id >= 1);
}

void Alg2Terminating::start(sim::PulseContext& ctx) {
  send_cw(ctx, counters_);  // line 1
}

bool Alg2Terminating::iterate(sim::PulseContext& ctx) {
  // While blocked in the wait loop of lines 16-17, the node reacts to
  // nothing but the returning termination pulse.
  if (awaiting_return_) {
    if (!recv_ccw(ctx, counters_)) return false;
    awaiting_return_ = false;
    // Fall through to the until-check in line 18 below.
    if (counters_.rho_ccw > counters_.rho_cw) done_ = true;
    return true;
  }

  bool progress = false;

  // Lines 3-8: run Algorithm 1 over the CW channel.
  if (recv_cw(ctx, counters_)) {
    if (counters_.rho_cw == id_) {
      role_ = Role::leader;
    } else {
      role_ = Role::non_leader;
      send_cw(ctx, counters_);
    }
    progress = true;
  }

  // Lines 9-13: run Algorithm 1 over the CCW channel once rho_cw >= ID.
  if (counters_.rho_cw >= id_) {
    if (counters_.sigma_ccw == 0) {
      send_ccw(ctx, counters_);  // line 10
      progress = true;
    }
    if (recv_ccw(ctx, counters_)) {
      if (counters_.rho_ccw != id_) send_ccw(ctx, counters_);
      progress = true;
    }
  }

  // Lines 14-17: the unique leader event initiates the termination pulse.
  if (counters_.rho_cw == id_ && counters_.rho_ccw == id_ &&
      !initiated_termination_) {
    initiated_termination_ = true;
    awaiting_return_ = true;   // lines 16-17; set before the send so the
                               // termination pulse itself is attributed to
                               // the initiated_wait phase
    send_ccw(ctx, counters_);  // line 15
    return true;
  }

  // Line 18: until rho_ccw > rho_cw.
  if (counters_.rho_ccw > counters_.rho_cw) {
    done_ = true;
    return true;
  }
  return progress;
}

void Alg2Terminating::react(sim::PulseContext& ctx) {
  while (!done_ && iterate(ctx)) {
  }
}

}  // namespace colex::co
