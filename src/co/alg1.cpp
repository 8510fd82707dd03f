#include "co/alg1.hpp"

#include "util/contracts.hpp"

namespace colex::co {

Alg1Stabilizing::Alg1Stabilizing(std::uint64_t id)
    : ElectionAutomaton(id) {
  COLEX_EXPECTS(id >= 1);
}

void Alg1Stabilizing::start(sim::PulseContext& ctx) {
  send_cw(ctx, counters_);  // line 1
}

void Alg1Stabilizing::react(sim::PulseContext& ctx) {
  // Lines 2-8: consume every available CW pulse; absorb the one that makes
  // rho_cw equal the own ID, relay all others.
  while (recv_cw(ctx, counters_)) {
    if (counters_.rho_cw == id_) {
      role_ = Role::leader;
    } else {
      role_ = Role::non_leader;
      send_cw(ctx, counters_);
    }
  }
}

}  // namespace colex::co
