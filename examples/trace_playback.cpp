// Trace playback: runs an election and prints the full pulse timeline —
// every send and delivery in adversarial order — followed by per-node
// totals and the conservation audit. A pedagogical view of how the
// algorithm's counters evolve purely through pulse order.
//
//   ./examples/trace_playback [n] [seed] [max_lines]
#include <iostream>
#include <memory>

#include "co/alg2.hpp"
#include "co/election.hpp"
#include "sim/network.hpp"
#include "sim/trace.hpp"
#include "util/cli.hpp"
#include "util/ids.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace colex;

  std::size_t n = 3;
  std::uint64_t seed = 7;
  std::size_t max_lines = 60;
  namespace cli = util::cli;
  const cli::Command cmd{
      .positionals = {cli::optional(cli::u64("n", "", n, "ring size", 1)),
                      cli::optional(cli::u64("seed", "", seed, "RNG seed")),
                      cli::optional(cli::u64("max_lines", "", max_lines,
                                             "timeline lines to print"))}};
  if (cli::parse_argv({cmd}, argc, argv) == nullptr) return cli::kUsageExit;

  const auto ids = util::shuffled(util::dense_ids(n), seed);
  auto net = sim::PulseNetwork::ring(n);
  for (sim::NodeId v = 0; v < n; ++v) {
    net.set_automaton(v, std::make_unique<co::Alg2Terminating>(ids[v]));
  }

  sim::TraceRecorder trace;
  sim::RunOptions opts;
  trace.attach(net, opts);
  sim::RandomScheduler scheduler(seed);
  const auto report = net.run(scheduler, opts);

  std::cout << "Algorithm 2 on a " << n << "-ring, IDs:";
  for (const auto id : ids) std::cout << " " << id;
  std::cout << ", scheduler " << scheduler.name() << "\n\n";

  std::cout << "pulse timeline (" << trace.events().size() << " events";
  if (trace.events().size() > max_lines) {
    std::cout << ", showing first " << max_lines;
  }
  std::cout << "):\n";
  std::size_t shown = 0;
  for (const auto& event : trace.events()) {
    if (shown++ >= max_lines) break;
    std::cout << "  " << to_string(event) << "\n";
  }
  if (trace.events().size() > max_lines) std::cout << "  ...\n";

  std::cout << "\nper-node outcome:\n";
  util::Table table({"node", "ID", "role", "rho_cw", "rho_ccw"});
  for (sim::NodeId v = 0; v < n; ++v) {
    const auto& alg = net.automaton_as<co::Alg2Terminating>(v);
    table.add_row({util::Table::num(static_cast<std::uint64_t>(v)),
                   util::Table::num(alg.id()), co::to_string(alg.role()),
                   util::Table::num(alg.counters().rho_cw),
                   util::Table::num(alg.counters().rho_ccw)});
  }
  table.print(std::cout);

  const auto audit = trace.audit(sim::ring_wiring(n));
  std::cout << "\ntotal pulses       : " << report.sent << "\n";
  std::cout << "conservation audit : " << (audit.empty() ? "clean" : audit)
            << "\n";
  std::cout << "quiescent+terminated: "
            << (report.quiescent && report.all_terminated ? "yes" : "no")
            << "\n";
  return audit.empty() && report.all_terminated ? 0 : 1;
}
