// Quickstart: content-oblivious leader election on an oriented ring
// (Algorithm 2 / Theorem 1 of "Content-Oblivious Leader Election on Rings").
//
//   ./examples/quickstart [n] [seed]
//
// Builds a ring of n nodes with random sparse IDs, runs the quiescently
// terminating election under a random adversarial scheduler, and prints the
// outcome together with the paper's exact message-complexity formula.
#include <iostream>

#include "co/election.hpp"
#include "sim/scheduler.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace colex;

  std::size_t n = 8;
  std::uint64_t seed = 42;
  namespace cli = util::cli;
  const cli::Command cmd{
      .positionals = {cli::optional(cli::u64("n", "", n, "ring size", 1)),
                      cli::optional(cli::u64("seed", "", seed, "RNG seed"))}};
  if (cli::parse_argv({cmd}, argc, argv) == nullptr) return cli::kUsageExit;

  // Assign unique random IDs (any distinct positive integers work; the
  // message complexity depends on the largest one).
  util::Xoshiro256StarStar rng(seed);
  std::vector<std::uint64_t> ids;
  while (ids.size() < n) {
    const std::uint64_t candidate = rng.in_range(1, 4 * n);
    bool fresh = true;
    for (const auto existing : ids) fresh = fresh && existing != candidate;
    if (fresh) ids.push_back(candidate);
  }

  // Run Algorithm 2 under an adversarial (seeded random) pulse scheduler.
  sim::RandomScheduler scheduler(seed);
  const auto result = co::elect_oriented_terminating(ids, scheduler);

  std::cout << "Content-oblivious leader election (Algorithm 2, Theorem 1)\n";
  std::cout << "ring size n = " << n << ", scheduler = " << scheduler.name()
            << "\n\n";

  util::Table table({"node", "ID", "role", "rho_cw", "rho_ccw"});
  for (std::size_t v = 0; v < n; ++v) {
    const auto& node = result.nodes[v];
    table.add_row({util::Table::num(static_cast<std::uint64_t>(v)),
                   util::Table::num(node.id), co::to_string(node.role),
                   util::Table::num(node.rho_cw),
                   util::Table::num(node.rho_ccw)});
  }
  table.print(std::cout);

  std::uint64_t id_max = 0;
  for (const auto id : ids) id_max = std::max(id_max, id);
  std::cout << "\nelected leader : node " << *result.leader << " (ID "
            << ids[*result.leader] << ")\n";
  std::cout << "pulses sent    : " << result.pulses << "\n";
  std::cout << "n(2*IDmax + 1) : " << co::theorem1_pulses(n, id_max) << "\n";
  std::cout << "quiescent      : " << (result.quiescent ? "yes" : "no")
            << ", all terminated: "
            << (result.all_terminated ? "yes" : "no") << "\n";
  return result.valid_election() ? 0 : 1;
}
