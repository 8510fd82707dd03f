// colexctl — command-line driver for the library: run any algorithm on any
// ring under any adversary, inspect solitude patterns, compare against the
// classical baselines.
//
//   colexctl elect       run Algorithm 1, 2 or 3 on one ring
//   colexctl anonymous   sample IDs, then elect (anonymous rings)
//   colexctl compose     Corollary 5 demo: election + bus computation
//   colexctl solitude    Definition 21's solitude pattern of one ID
//   colexctl baselines   message counts of the classical algorithms
//   colexctl explore     every schedule of a tiny ring
//   colexctl schedulers  list the adversaries
//
// Exit status (DESIGN.md §15): 0 ok, 1 the run failed its check, 2 usage
// error (printed with the generated usage) or contract violation.
#include <algorithm>
#include <iostream>
#include <limits>
#include <string>
#include <string_view>

#include "baselines/baselines.hpp"
#include "co/election.hpp"
#include "colib/apps.hpp"
#include "colib/composed.hpp"
#include "lb/solitude.hpp"
#include "sim/explore.hpp"
#include "sim/scheduler.hpp"
#include "util/cli.hpp"
#include "util/ids.hpp"
#include "util/table.hpp"

namespace {

using namespace colex;

namespace cli = util::cli;

/// Every flag value colexctl's commands read, at its default.
struct Args {
  std::string alg = "alg2";
  std::string scheme = "improved";
  std::size_t n = 8;
  std::vector<std::uint64_t> ids;  ///< empty: a seeded shuffle of 1..n
  std::uint64_t scramble = 0;
  std::string scheduler = "random";
  std::unique_ptr<sim::Scheduler> adversary;  ///< resolved from `scheduler`
  std::uint64_t seed = 1;
  double c = 2.0;
  std::uint64_t id = 5;
  std::uint64_t budget = 2'000'000;
};

std::unique_ptr<sim::Scheduler> make_scheduler(const std::string& name,
                                               std::uint64_t seed) {
  for (auto& s : sim::standard_schedulers(1, seed)) {
    // Allow both exact names and seed-less prefixes like "random".
    if (s.name == name || s.name.rfind(name + "-", 0) == 0) {
      return std::move(s.scheduler);
    }
  }
  return nullptr;
}

std::vector<std::uint64_t> resolve_ids(const Args& args) {
  if (!args.ids.empty()) return args.ids;
  return util::shuffled(util::dense_ids(args.n), args.seed + 7);
}

int cmd_elect(const Args& args) {
  const auto ids = resolve_ids(args);
  sim::Scheduler& scheduler = *args.adversary;

  if (args.alg == "alg1") {
    const auto result = co::elect_oriented_stabilizing(ids, scheduler);
    std::cout << "alg1 (stabilizing): leader="
              << (result.leader ? std::to_string(*result.leader) : "-")
              << " pulses=" << result.pulses
              << " (n*IDmax=" << result.pulse_bound << ") quiescent="
              << (result.quiescent ? "yes" : "no") << "\n";
    return result.valid_election() ? 0 : 1;
  }
  if (args.alg == "alg2") {
    const auto result = co::elect_oriented_terminating(ids, scheduler);
    std::cout << "alg2 (terminating): leader="
              << (result.leader ? std::to_string(*result.leader) : "-")
              << " pulses=" << result.pulses
              << " (n(2*IDmax+1)=" << result.pulse_bound << ") terminated="
              << (result.all_terminated ? "yes" : "no") << "\n";
    return result.valid_election() ? 0 : 1;
  }
  co::Alg3NonOriented::Options options;
  options.scheme = args.scheme == "doubled" ? co::IdScheme::doubled
                                            : co::IdScheme::improved;
  const auto flips = util::random_flips(ids.size(), args.scramble);
  const auto result = co::elect_and_orient(ids, flips, options, scheduler);
  std::cout << "alg3 (" << to_string(options.scheme) << "): leader="
            << (result.leader ? std::to_string(*result.leader) : "-")
            << " pulses=" << result.pulses << " oriented="
            << (result.orientation_consistent ? "yes" : "no") << "\n";
  return result.valid_election() && result.orientation_consistent ? 0 : 1;
}

int cmd_anonymous(const Args& args) {
  const auto flips = util::random_flips(args.n, args.seed * 3);
  const auto result = co::anonymous_election(args.n, flips, args.c, args.seed,
                                             *args.adversary);
  std::uint64_t mx = 0;
  for (const auto& s : result.sampled) mx = std::max(mx, s.id);
  std::cout << "anonymous: n=" << args.n << " c=" << args.c << " IDmax=" << mx
            << " unique-max=" << (result.sampled_unique_max ? "yes" : "no")
            << " elected="
            << (result.election.valid_election() ? "yes" : "no")
            << " pulses=" << result.election.pulses << "\n";
  return 0;
}

int cmd_compose(const Args& args) {
  const auto ids = resolve_ids(args);
  sim::PulseNetwork net;
  const auto result = colib::run_composed_with_network(
      ids,
      [](sim::NodeId v) {
        return std::make_unique<colib::GatherAllApp>(v + 1);
      },
      *args.adversary, {}, net);
  std::cout << "compose: leader="
            << (result.leader ? std::to_string(*result.leader) : "-")
            << " n-learned=" << result.ring_size_learned
            << " election-pulses=" << result.election_pulses
            << " bus-pulses=" << result.bus_pulses << " terminated="
            << (result.all_terminated ? "yes" : "no") << "\n";
  return result.all_terminated ? 0 : 1;
}

int cmd_solitude(const Args& args) {
  const auto pattern = lb::solitude_pattern(
      [](std::uint64_t i) -> std::unique_ptr<sim::PulseAutomaton> {
        return std::make_unique<co::Alg2Terminating>(i);
      },
      args.id);
  std::cout << "solitude pattern of ID " << args.id << " (0=CW, 1=CCW): "
            << pattern.bits << "\n";
  std::cout << "length=" << pattern.bits.size() << " (2*ID+1="
            << 2 * args.id + 1 << "), terminated="
            << (pattern.terminated ? "yes" : "no") << "\n";
  return 0;
}

int cmd_baselines(const Args& args) {
  const auto ids = resolve_ids(args);
  util::Table table({"algorithm", "messages", "bits", "leader-id", "ok"});
  auto row = [&table](const char* name, const baselines::BaselineResult& r) {
    table.add_row({name, util::Table::num(r.messages),
                   util::Table::num(r.bits), util::Table::num(r.leader_id),
                   r.ok ? "yes" : "NO"});
  };
  sim::GlobalFifoScheduler s0, s1, s2, s3, s4;
  row("lelann", baselines::lelann(ids, s0));
  row("chang-roberts", baselines::chang_roberts(ids, s1));
  row("hirschberg-sinclair", baselines::hirschberg_sinclair(ids, s2));
  row("peterson", baselines::peterson(ids, s3));
  row("franklin", baselines::franklin(ids, s4));
  sim::GlobalFifoScheduler s5;
  row("itai-rodeh (anon)", baselines::itai_rodeh(ids.size(), args.seed, s5));
  sim::GlobalFifoScheduler s6;
  const auto co_result = co::elect_oriented_terminating(ids, s6);
  table.add_row({"content-oblivious alg2",
                 util::Table::num(co_result.pulses), "0 (pulses only)",
                 util::Table::num(
                     co_result.leader ? ids[*co_result.leader] : 0),
                 co_result.valid_election() ? "yes" : "NO"});
  table.print(std::cout);
  return 0;
}

int cmd_explore(const Args& args) {
  const auto ids = args.ids.empty() ? std::vector<std::uint64_t>{1, 2}
                                    : args.ids;
  std::uint64_t id_max = 0;
  for (const auto id : ids) id_max = std::max(id_max, id);
  std::uint64_t bad_leaves = 0;
  const auto stats = sim::explore_all_schedules(
      [&ids] {
        auto net = sim::PulseNetwork::ring(ids.size());
        for (sim::NodeId v = 0; v < ids.size(); ++v) {
          net.set_automaton(v,
                            std::make_unique<co::Alg2Terminating>(ids[v]));
        }
        return net;
      },
      [&](sim::PulseNetwork& net) {
        std::size_t leaders = 0;
        for (sim::NodeId v = 0; v < ids.size(); ++v) {
          const auto& alg = net.automaton_as<co::Alg2Terminating>(v);
          if (!alg.terminated()) ++bad_leaves;
          if (alg.role() == co::Role::leader) ++leaders;
        }
        if (leaders != 1 ||
            net.total_sent() !=
                co::theorem1_pulses(ids.size(), id_max)) {
          ++bad_leaves;
        }
      },
      args.budget);
  std::cout << "explore: " << stats.leaves << " distinct schedules"
            << (stats.exhaustive() ? " (exhaustive)" : " (TRUNCATED)")
            << ", max depth " << stats.max_depth << ", violations "
            << bad_leaves << "\n";
  return stats.exhaustive() && bad_leaves == 0 ? 0 : 1;
}

int cmd_schedulers() {
  std::cout << "standard adversary suite:\n";
  for (const auto& s : sim::standard_schedulers(1)) {
    std::cout << "  " << s.name << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  auto one_of = [](std::string& target, std::vector<std::string_view> names) {
    return [&target, names](std::string_view v) {
      target = std::string(v);
      return std::ranges::find(names, v) != names.end();
    };
  };
  const cli::Flag n =
      cli::u64("--n", "N", args.n, "ring size; IDs: 1..N shuffled by seed", 1);
  const cli::Flag ids =
      cli::u64_list("--ids", "LIST", args.ids, "explicit IDs (3,9,2)");
  const cli::Flag seed = cli::u64("--seed", "S", args.seed, "RNG seed");
  const cli::Flag scheduler = cli::str("--scheduler", "NAME", args.scheduler,
                                       "adversary (see: colexctl schedulers)");
  auto known_scheduler = [&args] {
    args.adversary = make_scheduler(args.scheduler, args.seed);
    return args.adversary ? "" : "unknown --scheduler '" + args.scheduler + "'";
  };
  const std::vector<cli::Command> commands = {
      {.name = "elect",
       .flags = {cli::Flag{"--alg", "A", "alg1 | alg2 | alg3 (default alg2)",
                             one_of(args.alg, {"alg1", "alg2", "alg3"})},
                 cli::Flag{"--scheme", "S",
                             "alg3 IDs: doubled | improved (default improved)",
                             one_of(args.scheme, {"doubled", "improved"})},
                 n, ids,
                 cli::u64("--scramble", "SEED", args.scramble,
                          "seed of alg3's port flips"),
                 scheduler, seed},
       .check = known_scheduler,
       .body = [&args] { return cmd_elect(args); }},
      {.name = "anonymous",
       .flags = {n,
                 cli::f64("--c", "C", args.c, "ID-sampling constant",
                          std::numeric_limits<double>::denorm_min()),
                 seed, scheduler},
       .check = known_scheduler,
       .body = [&args] { return cmd_anonymous(args); }},
      {.name = "compose",
       .flags = {n, ids, seed, scheduler},
       .check = known_scheduler,
       .body = [&args] { return cmd_compose(args); }},
      {.name = "solitude",
       .flags = {cli::u64("--id", "I", args.id, "the ID to run alone")},
       .body = [&args] { return cmd_solitude(args); }},
      {.name = "baselines",
       .flags = {n, ids, seed},
       .body = [&args] { return cmd_baselines(args); }},
      {.name = "explore",
       .flags = {ids, cli::u64("--budget", "B", args.budget, "leaf budget")},
       .check = [&args] {
         return args.ids.size() <= 3 ? "" : "explore takes at most 3 --ids";
       },
       .body = [&args] { return cmd_explore(args); }},
      {.name = "schedulers", .body = cmd_schedulers},
  };
  try {
    return cli::run(commands, argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
