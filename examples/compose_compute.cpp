// Corollary 5 end-to-end: arbitrary computation over a fully defective
// ring with no pre-existing leader. Algorithm 2 elects a leader with
// quiescent termination; the leader then acts as the root of the
// content-oblivious token bus (the ring-specialized substrate of
// Censor-Hillel et al.'s universal scheme), over which every node
// broadcasts its private input. Every node ends up knowing the ring size,
// every input, and hence max and sum — all of it conveyed purely by pulse
// ORDER, never by message content.
//
//   ./examples/compose_compute [n] [seed]
#include <iostream>

#include "colib/apps.hpp"
#include "colib/composed.hpp"
#include "sim/scheduler.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace colex;

  std::size_t n = 6;
  std::uint64_t seed = 11;
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
  std::vector<std::uint64_t> inputs(n);
  for (std::size_t v = 0; v < n; ++v) inputs[v] = rng.in_range(1, 1000);

  sim::PulseNetwork net;
  sim::RandomScheduler scheduler(seed);
  const auto result = colib::run_composed_with_network(
      ids,
      [&inputs](sim::NodeId v) {
        return std::make_unique<colib::GatherAllApp>(inputs[v]);
      },
      scheduler, {}, net);

  std::cout << "Corollary 5: election composed with universal "
               "content-oblivious computation\n\n";
  util::Table table({"node", "ID", "input", "offset from root", "knows sum",
                     "knows max"});
  for (std::size_t v = 0; v < n; ++v) {
    const auto& composed = net.automaton_as<colib::ComposedNode>(v);
    const auto& app =
        dynamic_cast<const colib::GatherAllApp&>(composed.bus()->app());
    table.add_row(
        {util::Table::num(static_cast<std::uint64_t>(v)),
         util::Table::num(ids[v]), util::Table::num(inputs[v]),
         util::Table::num(static_cast<std::uint64_t>(app.offset())),
         app.complete() ? util::Table::num(app.sum()) : "-",
         app.complete() ? util::Table::num(app.max_value()) : "-"});
  }
  table.print(std::cout);

  std::cout << "\nleader (bus root)      : node " << *result.leader
            << " (ID " << ids[*result.leader] << ")\n";
  std::cout << "ring size learned      : " << result.ring_size_learned
            << "\n";
  std::cout << "election pulses        : " << result.election_pulses << "\n";
  std::cout << "bus pulses             : " << result.bus_pulses << "\n";
  std::cout << "total pulses           : " << result.total_pulses << "\n";
  std::cout << "quiescent termination  : "
            << (result.all_terminated && result.quiescent ? "yes" : "no")
            << "\n";
  return result.all_terminated ? 0 : 1;
}
