// E8 — Real-asynchrony validation: the blocking pseudocode transcriptions
// on OS threads (mutex+cv ports, genuine scheduler nondeterminism) must
// reproduce the discrete-event simulator's outputs and exact pulse counts,
// run after run.
#include <chrono>
#include <iostream>

#include "bench_common.hpp"
#include "co/election.hpp"
#include "runtime/blocking_algs.hpp"
#include "sim/scheduler.hpp"
#include "util/ids.hpp"
#include "util/table.hpp"

int main() {
  using namespace colex;
  bench::banner(
      "E8  Threaded runtime vs discrete simulator (bench_e8_runtime)",
      "the paper's pseudocode, run on real threads, must match the "
      "event-driven simulator exactly: same leader, same roles, same "
      "n(2*IDmax+1) pulses");
  bench::WallTimer total;
  bench::JsonReport report("E8", "threaded runtime vs discrete simulator");

  util::Table table({"n", "alg", "repeats", "sim pulses", "thread pulses",
                     "all exact", "leader match", "wall ms/run"});
  bool all_ok = true;


  for (const std::size_t n : {2u, 4u, 8u, 16u, 24u}) {
    const auto ids = util::shuffled(util::dense_ids(n), n * 13 + 2);
    sim::RandomScheduler sched(n);
    const auto simulated = co::elect_oriented_terminating(ids, sched);

    for (const rt::ThreadAlg alg : {rt::ThreadAlg::alg1, rt::ThreadAlg::alg2,
                                    rt::ThreadAlg::alg3_improved}) {
      const int repeats = 5;
      bool exact = true, leader_match = true;
      std::uint64_t thread_pulses = 0;
      const auto t0 = std::chrono::steady_clock::now();
      for (int r = 0; r < repeats; ++r) {
        const auto threaded = rt::run_on_threads(ids, {}, alg);
        exact = exact && threaded.completed;
        thread_pulses = threaded.pulses;
        // All three algorithms elect the same leader; alg1's pulse count is
        // n*IDmax, alg2 and alg3-improved cost n(2*IDmax+1).
        exact = exact && threaded.pulses == co::exact_pulses(alg, n, n);
        leader_match = leader_match && threaded.leader == simulated.leader &&
                       threaded.leader_count == 1;
      }
      const auto t1 = std::chrono::steady_clock::now();
      const double ms =
          std::chrono::duration<double, std::milli>(t1 - t0).count() /
          repeats;
      all_ok = all_ok && exact && leader_match;
      table.add_row({util::Table::num(static_cast<std::uint64_t>(n)),
                     co::to_string(alg), util::Table::num(std::uint64_t{repeats}),
                     util::Table::num(simulated.pulses),
                     util::Table::num(thread_pulses), exact ? "yes" : "NO",
                     leader_match ? "yes" : "NO", util::Table::fixed(ms, 2)});
    }
  }
  table.print(std::cout);
  report.root().set("all_ok", all_ok);
  report.finish(total.seconds());

  bench::verdict(all_ok,
                 "two independent execution models (event-driven simulation, "
                 "blocking threads) agree exactly on every run");
  return all_ok ? 0 : 1;
}
