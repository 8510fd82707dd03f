// Non-oriented rings (Algorithm 3 / Theorem 2): the ring's ports are
// scrambled arbitrarily; the algorithm elects a leader AND orients the ring
// (quiescent stabilization — no node ever knows it is done, but all pulse
// activity provably ceases).
//
//   ./examples/nonoriented_ring [n] [seed]
#include <iostream>

#include "co/election.hpp"
#include "sim/scheduler.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace colex;

  std::size_t n = 6;
  std::uint64_t seed = 7;
  namespace cli = util::cli;
  const cli::Command cmd{
      .positionals = {cli::optional(cli::u64("n", "", n, "ring size", 1)),
                      cli::optional(cli::u64("seed", "", seed, "RNG seed"))}};
  if (cli::parse_argv({cmd}, argc, argv) == nullptr) return cli::kUsageExit;

  util::Xoshiro256StarStar rng(seed);
  std::vector<std::uint64_t> ids;
  while (ids.size() < n) {
    const std::uint64_t candidate = rng.in_range(1, 4 * n);
    bool fresh = true;
    for (const auto existing : ids) fresh = fresh && existing != candidate;
    if (fresh) ids.push_back(candidate);
  }
  // Scramble every node's ports by a coin flip: the nodes cannot tell which
  // port faces which neighbor.
  std::vector<bool> flips(n);
  for (std::size_t v = 0; v < n; ++v) flips[v] = rng.bernoulli(0.5);

  co::Alg3NonOriented::Options options;
  options.scheme = co::IdScheme::improved;  // Theorem 2: n(2*IDmax+1) pulses
  sim::RandomScheduler scheduler(seed);
  const auto result =
      co::elect_and_orient(ids, flips, options, scheduler);

  std::cout << "Leader election + orientation on a non-oriented ring "
               "(Algorithm 3, Theorem 2)\n\n";
  util::Table table(
      {"node", "ID", "ports", "role", "rho_p0", "rho_p1", "declared CW"});
  for (std::size_t v = 0; v < n; ++v) {
    const auto& node = result.nodes[v];
    table.add_row({util::Table::num(static_cast<std::uint64_t>(v)),
                   util::Table::num(node.id),
                   flips[v] ? "swapped" : "straight",
                   co::to_string(node.role), util::Table::num(node.rho_p0),
                   util::Table::num(node.rho_p1),
                   result.cw_ports[v] == sim::Port::p0 ? "Port0" : "Port1"});
  }
  table.print(std::cout);

  std::uint64_t id_max = 0;
  for (const auto id : ids) id_max = std::max(id_max, id);
  std::cout << "\nleader                      : node " << *result.leader
            << " (ID " << ids[*result.leader] << ")\n";
  std::cout << "orientation consistent      : "
            << (result.orientation_consistent ? "yes" : "no") << "\n";
  std::cout << "CW = leader's Port1 dir     : "
            << (result.orientation_matches_leader_port1 ? "yes" : "no")
            << "\n";
  std::cout << "pulses sent / n(2*IDmax+1)  : " << result.pulses << " / "
            << co::theorem1_pulses(n, id_max) << "\n";
  return result.valid_election() && result.orientation_consistent ? 0 : 1;
}
