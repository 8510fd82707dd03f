// Anonymous rings (Algorithm 4 + Theorem 3): nodes have no IDs, only
// private randomness. Each samples an ID from a geometric-length bit string
// and the ring then runs Algorithm 3; with high probability the maximal
// sample is unique and a single leader emerges (with a consistent
// orientation). Repeats many trials and reports the success rate.
//
//   ./examples/anonymous_ring [n] [c] [trials] [seed]
#include <iostream>
#include <limits>

#include "co/election.hpp"
#include "sim/scheduler.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace colex;

  std::size_t n = 8;
  double c = 2.0;
  int trials = 25;
  std::uint64_t seed0 = 1;
  namespace cli = util::cli;
  const cli::Command cmd{
      .positionals = {cli::optional(cli::u64("n", "", n, "ring size", 1)),
                      cli::optional(cli::f64(
                          "c", "", c, "ID-sampling constant",
                          std::numeric_limits<double>::denorm_min())),
                      cli::optional(
                          cli::u64("trials", "", trials, "elections", 1)),
                      cli::optional(
                          cli::u64("seed", "", seed0, "first trial's seed"))}};
  if (cli::parse_argv({cmd}, argc, argv) == nullptr) return cli::kUsageExit;

  std::cout << "Anonymous-ring election (Theorem 3), n = " << n
            << ", c = " << c << ", " << trials << " trials\n\n";

  int unique_max = 0, elected = 0, skipped = 0;
  std::uint64_t max_pulses = 0;
  util::Table table({"trial", "IDmax sampled", "unique max", "leader",
                     "oriented", "pulses"});
  for (int t = 0; t < trials; ++t) {
    const std::uint64_t seed = seed0 + static_cast<std::uint64_t>(t);
    // Pre-check the sampled IDs: complexity is n(2*IDmax+1), so skip the
    // rare astronomically expensive draws to keep the demo snappy.
    std::uint64_t sampled_max = 0;
    for (const auto& s : co::sample_ids(n, c, seed)) {
      sampled_max = std::max(sampled_max, s.id);
    }
    if (sampled_max > 200'000) {
      ++skipped;
      continue;
    }

    util::Xoshiro256StarStar rng(seed * 31);
    std::vector<bool> flips(n);
    for (std::size_t v = 0; v < n; ++v) flips[v] = rng.bernoulli(0.5);
    sim::RandomScheduler scheduler(seed);
    const auto result = co::anonymous_election(n, flips, c, seed, scheduler);

    const bool ok = result.election.valid_election();
    if (result.sampled_unique_max) ++unique_max;
    if (ok) ++elected;
    max_pulses = std::max(max_pulses, result.election.pulses);
    table.add_row({util::Table::num(static_cast<std::uint64_t>(t)),
                   util::Table::num(sampled_max),
                   result.sampled_unique_max ? "yes" : "no",
                   ok ? "unique" : "none/multiple",
                   result.election.orientation_consistent ? "yes" : "no",
                   util::Table::num(result.election.pulses)});
  }
  table.print(std::cout);

  std::cout << "\nunique-max trials : " << unique_max << "/"
            << trials - skipped << " (election succeeds exactly on these)\n";
  std::cout << "elected trials    : " << elected << "\n";
  std::cout << "skipped (huge ID) : " << skipped << "\n";
  std::cout << "max pulses seen   : " << max_pulses << "\n";
  return unique_max == elected ? 0 : 1;
}
