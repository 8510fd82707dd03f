// colex-ring: run a content-oblivious election on a real socket ring, one
// OS process per node.
//
//   colex-ring run   --ids 6,11,3,9,1,7 [options]
//   colex-ring coord --ring-size N [options]
//   colex-ring node  --index I --ring-size N --id ID --coordinator-port P
//                    [options]
//
// (A malformed invocation prints the options of its command.)
//
// `run` is the one-command demo: it forks one child per node, each child
// joins the coordinator's control plane, dials its ring neighbours over
// TCP on localhost, and runs the election; the parent plays coordinator
// and prints the merged verdict (leader, exact pulse count, quiescence
// counters).
//
// `coord` + `node` split the same run across terminals (or machines
// sharing a loopback): start the coordinator first — it announces
// "coordinator listening on PORT" — then launch one `node` per index
// against that port.
//
// The alg3 variants accept --flips/--flip: ports mounted against the ring
// orientation, which the algorithm must overcome.
//
// Exit status (DESIGN.md §15): 0 the election completed (coord/run: with a
// unique leader); 1 it failed or stalled; 2 usage error.
#include <algorithm>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "co/roles.hpp"
#include "net/coordinator.hpp"
#include "net/node.hpp"
#include "net/run.hpp"
#include "runtime/blocking_algs.hpp"
#include "util/cli.hpp"

namespace {

using namespace colex;
namespace cli = util::cli;

void print_json_run(const net::MultiProcResult& r, std::size_t n,
                    rt::ThreadAlg alg) {
  std::cout << "{\"completed\":" << (r.completed ? "true" : "false")
            << ",\"n\":" << n << ",\"alg\":\"" << co::to_string(alg) << "\""
            << ",\"pulses\":" << r.pulses << ",\"consumed\":" << r.consumed
            << ",\"probe_rounds\":" << r.probe_rounds
            << ",\"leader_count\":" << r.leader_count << ",\"leader\":";
  if (r.leader) std::cout << *r.leader;
  else std::cout << "null";
  std::cout << ",\"roles\":[";
  for (std::size_t v = 0; v < r.outcomes.size(); ++v) {
    if (v) std::cout << ",";
    std::cout << "\"" << co::to_string(r.outcomes[v].role) << "\"";
  }
  std::cout << "],\"exit_codes\":[";
  for (std::size_t v = 0; v < r.exit_codes.size(); ++v) {
    if (v) std::cout << ",";
    std::cout << r.exit_codes[v];
  }
  std::cout << "]}\n";
}

int cmd_run(const std::vector<std::uint64_t>& ids,
            const std::vector<bool>& flips, rt::ThreadAlg alg,
            const net::MultiProcOptions& opt, bool json) {
  const net::MultiProcResult r = net::run_multiprocess(ids, flips, alg, opt);
  if (json) {
    print_json_run(r, ids.size(), alg);
  } else if (r.completed) {
    std::cout << "ring of " << ids.size() << " processes, "
              << co::to_string(alg) << ": leader node "
              << (r.leader ? std::to_string(*r.leader) : std::string("<none>"))
              << ", " << r.pulses << " pulses sent, " << r.consumed
              << " consumed, quiescence proven in " << r.probe_rounds
              << " probe rounds\n";
  } else {
    std::cerr << "election failed:\n" << r.stall_dump << "\n";
  }
  return r.completed && r.leader_count == 1 ? 0 : 1;
}

int cmd_coord(const net::CoordinatorOptions& opt, bool json) {
  net::Coordinator coord(opt);
  if (!coord.ok()) {
    std::cerr << "coordinator: " << coord.init_error() << "\n";
    return 1;
  }
  // Announced on stdout so scripts (and the multi-process test harness)
  // can pick up an ephemeral port.
  std::cout << "coordinator listening on " << coord.port() << std::endl;
  const net::CoordinatorResult r = coord.run();
  if (!r.completed) {
    std::cerr << "election failed: " << r.error << "\n";
    return 1;
  }
  std::size_t leaders = 0;
  std::size_t leader_index = 0;
  for (std::size_t v = 0; v < r.results.size(); ++v) {
    if (r.results[v].outcome.role == co::Role::leader) {
      ++leaders;
      leader_index = v;
    }
  }
  if (json) {
    std::cout << "{\"completed\":true,\"n\":" << r.results.size()
              << ",\"pulses\":" << r.total_sent
              << ",\"consumed\":" << r.total_consumed
              << ",\"probe_rounds\":" << r.probe_rounds
              << ",\"leader_count\":" << leaders << ",\"leader\":";
    if (leaders == 1) std::cout << leader_index;
    else std::cout << "null";
    std::cout << "}\n";
  } else {
    std::cout << "ring of " << r.results.size() << " nodes: "
              << (leaders == 1 ? "leader node " + std::to_string(leader_index)
                               : std::to_string(leaders) + " leaders")
              << ", " << r.total_sent << " pulses sent, " << r.total_consumed
              << " consumed, " << r.probe_rounds << " probe rounds\n";
  }
  return leaders == 1 ? 0 : 1;
}

int cmd_node(const net::RingNodeConfig& cfg) {
  const net::NodeResult r = net::run_ring_node(cfg);
  if (!r.ok) {
    std::cerr << "node " << cfg.index << ": " << r.error << "\n";
    return 1;
  }
  std::cout << "node " << cfg.index << " (id " << cfg.id
            << "): " << co::to_string(r.outcome.role) << ", sent "
            << r.counters.sent << ", consumed " << r.counters.consumed
            << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::uint64_t> ids;
  std::vector<std::uint64_t> flips;
  bool json = false;
  net::MultiProcOptions run_opt;
  net::CoordinatorOptions coord_opt;
  net::RingNodeConfig node;  // also carries the flags run and coord share
  const cli::Flag alg_flag{
      "--alg", "A", "alg1 | alg2 | alg3-doubled | alg3-improved (default alg2)",
      [&node](std::string_view name) {
        // A ring node is given its ID, so alg4 (which samples one) is out.
        const auto parsed = co::from_string(name);
        if (!parsed || co::facts(*parsed).samples_ids) return false;
        node.alg = *parsed;
        return true;
      }};
  const cli::Flag ring_size_flag =
      cli::u64("--ring-size", "N", node.ring_size, "ring size", 1).require();
  const cli::Flag timeout_flag = cli::u64("--timeout-ms", "MS", node.timeout_ms,
                                          "watchdog on the election");
  const cli::Flag json_flag = cli::flag("--json", json, "print one JSON line");
  const std::vector<cli::Command> commands = {
      {.name = "run",
       .flags = {cli::u64_list("--ids", "LIST", ids, "one process per ID")
                     .require(),
                 alg_flag,
                 cli::u64_list("--flips", "BITS", flips, "0/1 flip per ID"),
                 cli::u64("--base-port", "P", run_opt.base_port,
                          "node v listens on P+v; 0 = ephemeral"),
                 timeout_flag, json_flag},
       .check = [&] {
         return flips.empty() || (flips.size() == ids.size() &&
                                  std::ranges::max(flips) <= 1)
                    ? ""
                    : "--flips needs one 0/1 bit per --ids entry";
       },
       .body = [&] {
         run_opt.timeout_ms = node.timeout_ms;
         return cmd_run(ids, {flips.begin(), flips.end()}, node.alg, run_opt,
                        json);
       }},
      {.name = "coord",
       .flags = {ring_size_flag,
                 cli::u64("--port", "P", coord_opt.port,
                          "control-plane port; 0 = ephemeral"),
                 timeout_flag, json_flag},
       .body = [&] {
         coord_opt.ring_size = node.ring_size;
         coord_opt.timeout_ms = node.timeout_ms;
         return cmd_coord(coord_opt, json);
       }},
      {.name = "node",
       .flags = {cli::u64("--index", "I", node.index, "position").require(),
                 ring_size_flag,
                 cli::u64("--id", "ID", node.id, "this node's ID").require(),
                 cli::u64("--coordinator-port", "P", node.coordinator_port,
                          "the coordinator's port", 1)
                     .require(),
                 alg_flag,
                 cli::flag("--flip", node.flip, "ports against orientation"),
                 cli::u64("--data-port", "P", node.data_port,
                          "data-plane port; 0 = ephemeral"),
                 timeout_flag},
       .check = [&node] {
         return node.index < node.ring_size ? "" : "--index >= --ring-size";
       },
       .body = [&node] { return cmd_node(node); }},
  };
  return cli::run(commands, argc, argv);
}
