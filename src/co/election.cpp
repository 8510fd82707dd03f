#include "co/election.hpp"

#include <algorithm>
#include <memory>

#include "co/alg1.hpp"
#include "co/alg2.hpp"
#include "util/contracts.hpp"

namespace colex::co {

bool ElectionResult::valid_election() const {
  if (leader_count != 1) return false;
  for (const auto& n : nodes) {
    if (n.role == Role::undecided) return false;
  }
  return true;
}

std::uint64_t theorem4_lower_bound(std::uint64_t n, std::uint64_t k) {
  COLEX_EXPECTS(n >= 1 && k >= n);
  std::uint64_t s = 0;
  while ((n << (s + 1)) <= k) ++s;  // s = floor(log2(k / n))
  return n * s;
}

sim::Port physical_cw_port(const std::vector<bool>& port_flips,
                           sim::NodeId v) {
  const bool flipped = !port_flips.empty() && port_flips.at(v);
  return flipped ? sim::Port::p0 : sim::Port::p1;
}

std::unique_ptr<ElectionAutomaton> make_automaton(Algorithm alg,
                                                  std::uint64_t id) {
  const AlgorithmFacts& f = facts(alg);
  if (!f.oriented) {
    return std::make_unique<Alg3NonOriented>(
        id, Alg3NonOriented::Options{f.scheme, {}});
  }
  if (f.terminates) return std::make_unique<Alg2Terminating>(id);
  return std::make_unique<Alg1Stabilizing>(id);
}

namespace {

template <typename Alg>
ElectionResult run_oriented(Algorithm alg,
                            const std::vector<std::uint64_t>& ids,
                            sim::Scheduler& scheduler,
                            const sim::RunOptions& opts) {
  COLEX_EXPECTS(!ids.empty());
  auto net = sim::PulseNetwork::ring(ids.size());
  for (sim::NodeId v = 0; v < ids.size(); ++v) {
    net.set_automaton(v, std::make_unique<Alg>(ids[v]));
  }
  ElectionResult result;
  result.report = net.run(scheduler, opts);
  result.quiescent = result.report.quiescent;
  result.all_terminated = result.report.all_terminated;
  result.pulses = result.report.sent;
  const std::uint64_t id_max = *std::max_element(ids.begin(), ids.end());
  result.pulse_bound = exact_pulses(alg, ids.size(), id_max);
  result.nodes.reserve(ids.size());
  for (sim::NodeId v = 0; v < ids.size(); ++v) {
    const auto& node = net.template automaton_as<Alg>(v);
    NodeOutcome o;
    o.id = node.id();
    o.role = node.role();
    o.rho_cw = node.counters().rho_cw;
    o.sigma_cw = node.counters().sigma_cw;
    o.rho_ccw = node.counters().rho_ccw;
    o.sigma_ccw = node.counters().sigma_ccw;
    result.nodes.push_back(o);
  }
  tally_leaders(result, ids.size(),
                [&result](std::size_t v) { return result.nodes[v].role; });
  return result;
}

}  // namespace

ElectionResult elect_oriented_stabilizing(const std::vector<std::uint64_t>& ids,
                                          sim::Scheduler& scheduler,
                                          const sim::RunOptions& opts) {
  return run_oriented<Alg1Stabilizing>(Algorithm::alg1, ids, scheduler, opts);
}

ElectionResult elect_oriented_terminating(const std::vector<std::uint64_t>& ids,
                                          sim::Scheduler& scheduler,
                                          const sim::RunOptions& opts) {
  return run_oriented<Alg2Terminating>(Algorithm::alg2, ids, scheduler, opts);
}

OrientationResult elect_and_orient(const std::vector<std::uint64_t>& ids,
                                   const std::vector<bool>& port_flips,
                                   const Alg3NonOriented::Options& options,
                                   sim::Scheduler& scheduler,
                                   const sim::RunOptions& opts) {
  COLEX_EXPECTS(!ids.empty());
  COLEX_EXPECTS(port_flips.empty() || port_flips.size() == ids.size());
  auto net = sim::PulseNetwork::ring(ids.size(), port_flips);
  util::SplitMix64 seeder(options.resample_seed.value_or(0));
  for (sim::NodeId v = 0; v < ids.size(); ++v) {
    Alg3NonOriented::Options node_options = options;
    if (options.resample_seed) node_options.resample_seed = seeder.next();
    net.set_automaton(
        v, std::make_unique<Alg3NonOriented>(ids[v], node_options));
  }

  OrientationResult result;
  result.report = net.run(scheduler, opts);
  result.quiescent = result.report.quiescent;
  result.all_terminated = result.report.all_terminated;
  result.pulses = result.report.sent;
  const std::uint64_t id_max = *std::max_element(ids.begin(), ids.end());
  result.pulse_bound = exact_pulses(options.scheme == IdScheme::doubled
                                        ? Algorithm::alg3_doubled
                                        : Algorithm::alg3_improved,
                                    ids.size(), id_max);
  result.nodes.reserve(ids.size());
  result.cw_ports.reserve(ids.size());
  for (sim::NodeId v = 0; v < ids.size(); ++v) {
    const auto& alg = net.automaton_as<Alg3NonOriented>(v);
    NodeOutcome o;
    o.id = alg.id();
    o.role = alg.role();
    o.rho_p0 = alg.rho(sim::Port::p0);
    o.rho_p1 = alg.rho(sim::Port::p1);
    result.nodes.push_back(o);
    result.cw_ports.push_back(alg.cw_port());
  }
  tally_leaders(result, ids.size(),
                [&result](std::size_t v) { return result.nodes[v].role; });

  // Consistency: every node's declared CW port must point the same physical
  // way around the ring.
  bool all_cw = true, all_ccw = true;
  for (sim::NodeId v = 0; v < ids.size(); ++v) {
    if (result.cw_ports[v] == physical_cw_port(port_flips, v)) {
      all_ccw = false;
    } else {
      all_cw = false;
    }
  }
  result.orientation_consistent = all_cw || all_ccw;

  // Proposition 15 defines clockwise as the direction of a pulse sent from
  // the max-ID node's Port1.
  const auto max_it = std::max_element(ids.begin(), ids.end());
  const auto ell = static_cast<sim::NodeId>(max_it - ids.begin());
  const bool ell_port1_is_physical_cw =
      physical_cw_port(port_flips, ell) == sim::Port::p1;
  result.orientation_matches_leader_port1 =
      result.orientation_consistent && (ell_port1_is_physical_cw == all_cw);
  return result;
}

AnonymousResult anonymous_election(std::size_t n,
                                   const std::vector<bool>& port_flips,
                                   double c, std::uint64_t seed,
                                   sim::Scheduler& scheduler,
                                   const sim::RunOptions& opts) {
  AnonymousResult result;
  result.sampled = sample_ids(n, c, seed);
  result.sampled_unique_max = unique_max(result.sampled);
  std::vector<std::uint64_t> ids;
  ids.reserve(n);
  for (const auto& s : result.sampled) ids.push_back(s.id);
  Alg3NonOriented::Options options;
  options.scheme = IdScheme::improved;
  result.election =
      elect_and_orient(ids, port_flips, options, scheduler, opts);
  return result;
}

}  // namespace colex::co
