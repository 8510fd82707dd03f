#include "co/alg3.hpp"

#include <algorithm>

#include "util/contracts.hpp"

namespace colex::co {

VirtualIds virtual_ids(std::uint64_t id, IdScheme scheme) {
  COLEX_EXPECTS(id >= 1);
  VirtualIds v{};
  switch (scheme) {
    case IdScheme::doubled:
      v.vid[0] = 2 * id - 1;
      v.vid[1] = 2 * id;
      break;
    case IdScheme::improved:
      v.vid[0] = id;
      v.vid[1] = id + 1;
      break;
  }
  return v;
}

Alg3NonOriented::Alg3NonOriented(std::uint64_t id, Options options)
    : ElectionAutomaton(id),
      initial_id_(id),
      vids_(virtual_ids(id, options.scheme)) {
  if (options.resample_seed) {
    resampler_.emplace(*options.resample_seed);
  }
}

void Alg3NonOriented::start(sim::PulseContext& ctx) {
  // Lines 1-3: choose virtual IDs (done in the constructor) and send one
  // pulse out of each port.
  for (int i : {0, 1}) {
    ctx.send(sim::port_from_index(i));
    ++sigma_[i];
  }
}

void Alg3NonOriented::react(sim::PulseContext& ctx) {
  bool progress = true;
  while (progress) {
    progress = false;
    // Lines 5-7: pulses received at port 1-i are forwarded out port i unless
    // the count at port 1-i reached the governing virtual ID.
    for (int i : {0, 1}) {
      const int in = 1 - i;
      if (ctx.recv_pulse(sim::port_from_index(in))) {
        ++rho_[in];
        if (rho_[in] != vids_.vid[i]) {
          ctx.send(sim::port_from_index(i));
          ++sigma_[i];
        }
        // Proposition 19: redraw the stored ID when both counters exceed it.
        if (resampler_) {
          const std::uint64_t m = std::min(rho_[0], rho_[1]);
          if (m > id_) {
            COLEX_ASSERT(m >= 2);
            id_ = resampler_->in_range(1, m - 1);
          }
        }
        progress = true;
      }
    }
    // Lines 8-16: recompute the tentative output from the counters.
    update_output();
  }
}

void Alg3NonOriented::update_output() {
  if (std::max(rho_[0], rho_[1]) < vids_.vid[1]) return;  // line 8
  // Lines 9-12.
  if (rho_[0] == vids_.vid[1] && rho_[1] < vids_.vid[1]) {
    role_ = Role::leader;
  } else {
    role_ = Role::non_leader;
  }
  // Lines 13-16: the port that received more pulses faces the CCW neighbor.
  cw_port_ = rho_[0] > rho_[1] ? sim::Port::p1 : sim::Port::p0;
}

}  // namespace colex::co
