// The same algorithms on real OS threads: one thread per node, mutex+cv
// pulse ports, genuine asynchrony. Runs the blocking-style pseudocode
// transcription of Algorithm 2 and checks that the outcome — including the
// exact pulse count — matches the discrete-event simulator.
//
//   ./examples/threaded_ring [n] [repeats]
#include <iostream>

#include "co/election.hpp"
#include "runtime/blocking_algs.hpp"
#include "threaded_ring_cli.hpp"
#include "util/rng.hpp"

int main(int argc, char** argv) {
  using namespace colex;

  examples::ThreadedRingArgs args;
  if (util::cli::parse_argv({examples::threaded_ring_command(args)}, argc,
                            argv) == nullptr) {
    return util::cli::kUsageExit;
  }
  const std::size_t n = args.n;
  const int repeats = args.repeats;

  util::Xoshiro256StarStar rng(99);
  std::vector<std::uint64_t> ids;
  while (ids.size() < n) {
    const std::uint64_t candidate = rng.in_range(1, 4 * n);
    bool fresh = true;
    for (const auto existing : ids) fresh = fresh && existing != candidate;
    if (fresh) ids.push_back(candidate);
  }
  std::uint64_t id_max = 0;
  for (const auto id : ids) id_max = std::max(id_max, id);

  // Reference run on the discrete simulator.
  sim::RandomScheduler scheduler(1);
  const auto simulated = co::elect_oriented_terminating(ids, scheduler);
  std::cout << "simulator: leader node " << *simulated.leader << ", "
            << simulated.pulses << " pulses\n";

  bool all_match = true;
  for (int r = 0; r < repeats; ++r) {
    const auto threaded =
        rt::run_on_threads(ids, {}, rt::ThreadAlg::alg2);
    const bool match = threaded.completed &&
                       threaded.leader == simulated.leader &&
                       threaded.pulses == simulated.pulses;
    all_match = all_match && match;
    std::cout << "threads run " << r << ": leader node "
              << (threaded.leader ? std::to_string(*threaded.leader) : "-")
              << ", " << threaded.pulses << " pulses -> "
              << (match ? "matches simulator" : "MISMATCH") << "\n";
  }
  std::cout << "\nexact formula n(2*IDmax+1) = "
            << co::theorem1_pulses(n, id_max) << "\n";
  return all_match ? 0 : 1;
}
