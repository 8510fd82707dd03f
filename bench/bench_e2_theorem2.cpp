// E2 — Proposition 15 vs Theorem 2: Algorithm 3 on non-oriented rings
// elects the max-ID node and consistently orients the ring, with
// n(4*IDmax-1) pulses under the doubled virtual-ID scheme and n(2*IDmax+1)
// under the improved scheme; it stabilizes quiescently but never terminates.
#include <iostream>

#include "bench_common.hpp"
#include "co/election.hpp"
#include "sim/scheduler.hpp"
#include "util/ids.hpp"
#include "util/table.hpp"

int main() {
  using namespace colex;
  bench::banner(
      "E2  Theorem 2 / Proposition 15: non-oriented rings "
      "(bench_e2_theorem2)",
      "doubled scheme: n(4*IDmax-1) pulses; improved scheme: n(2*IDmax+1); "
      "single leader + consistent orientation on every port scramble");
  bench::WallTimer total;
  bench::JsonReport report("E2", "Theorem 2 / Prop. 15 non-oriented rings");

  util::Table table({"n", "IDmax", "scheme", "scrambles", "pulses",
                     "formula", "exact", "oriented", "stabilized"});
  bool all_ok = true;

  auto run_config = [&](std::size_t n, const std::vector<std::uint64_t>& ids,
                        co::Algorithm alg,
                        const std::vector<std::vector<bool>>& scrambles) {
    std::uint64_t id_max = 0;
    for (const auto id : ids) id_max = std::max(id_max, id);
    const std::uint64_t formula = co::exact_pulses(alg, n, id_max);
    bool exact = true, oriented = true, stabilized = true;
    std::uint64_t measured = 0;
    co::Alg3NonOriented::Options options;
    options.scheme = co::facts(alg).scheme;
    for (const auto& flips : scrambles) {
      sim::RandomScheduler sched(n + flips.size());
      const auto result =
          co::elect_and_orient(ids, flips, options, sched);
      measured = result.pulses;
      exact = exact && result.pulses == formula &&
              result.valid_election() && ids[*result.leader] == id_max;
      oriented = oriented && result.orientation_consistent &&
                 result.orientation_matches_leader_port1;
      stabilized = stabilized && result.quiescent && !result.all_terminated;
    }
    all_ok = all_ok && exact && oriented && stabilized;
    table.add_row(
        {util::Table::num(static_cast<std::uint64_t>(n)),
         util::Table::num(id_max), co::to_string(options.scheme),
         util::Table::num(static_cast<std::uint64_t>(scrambles.size())),
         util::Table::num(measured), util::Table::num(formula),
         exact ? "yes" : "NO", oriented ? "yes" : "NO",
         stabilized ? "yes" : "NO"});
  };

  // Exhaustive port scrambles for small rings (Figure 1's point: all port
  // assignments must work).
  for (const std::size_t n : {1u, 2u, 4u, 6u, 8u}) {
    const auto ids = util::shuffled(util::dense_ids(n), 3 * n + 1);
    const auto scrambles = util::all_flip_masks(n);
    run_config(n, ids, co::Algorithm::alg3_doubled, scrambles);
    run_config(n, ids, co::Algorithm::alg3_improved, scrambles);
  }
  // Random scrambles for larger rings.
  for (const std::size_t n : {16u, 32u, 64u, 128u}) {
    const auto ids = util::sparse_ids(n, 8 * n, n);
    std::vector<std::vector<bool>> scrambles;
    for (std::uint64_t s = 1; s <= 8; ++s) {
      scrambles.push_back(util::random_flips(n, s));
    }
    run_config(n, ids, co::Algorithm::alg3_doubled, scrambles);
    run_config(n, ids, co::Algorithm::alg3_improved, scrambles);
  }
  table.print(std::cout);
  report.root().set("all_ok", all_ok);
  report.finish(total.seconds());

  bench::verdict(all_ok,
                 "both virtual-ID schemes meet their exact pulse formulas "
                 "and orient every scramble consistently");
  return all_ok ? 0 : 1;
}
