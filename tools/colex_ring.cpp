// colex-ring: run a content-oblivious election on a real socket ring, one
// OS process per node.
//
//   colex-ring run   --ids 6,11,3,9,1,7 [--alg A] [--flips 0,1,0,0,1,0]
//                    [--base-port P] [--timeout-ms N] [--json]
//   colex-ring coord --ring-size N [--port P] [--timeout-ms N] [--json]
//   colex-ring node  --index I --ring-size N --id ID --coordinator-port P
//                    [--alg A] [--flip] [--data-port P] [--timeout-ms N]
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
// Algorithms (--alg): alg1 | alg2 (default) | alg3-doubled |
// alg3-improved. The alg3 variants accept --flips/--flip: ports mounted
// against the ring orientation, which the algorithm must overcome.
//
// Exit status: 0 the election completed (coord/run: with a unique
// leader); 1 it failed or stalled; 2 usage error.
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "co/roles.hpp"
#include "net/coordinator.hpp"
#include "net/node.hpp"
#include "net/run.hpp"
#include "runtime/blocking_algs.hpp"
#include "util/json.hpp"

namespace {

using namespace colex;
using util::parse_u64;

int usage() {
  std::cerr
      << "usage:\n"
         "  colex-ring run   --ids 6,11,3,9,1,7 [--alg A] [--flips 0,1,...]\n"
         "                   [--base-port P] [--timeout-ms N] [--json]\n"
         "  colex-ring coord --ring-size N [--port P] [--timeout-ms N]\n"
         "                   [--json]\n"
         "  colex-ring node  --index I --ring-size N --id ID\n"
         "                   --coordinator-port P [--alg A] [--flip]\n"
         "                   [--data-port P] [--timeout-ms N]\n"
         "  (A: alg1 | alg2 | alg3-doubled | alg3-improved)\n";
  return 2;
}

bool parse_port(const std::string& s, std::uint16_t& out) {
  std::uint64_t v = 0;
  if (!parse_u64(s, v) || v > 0xffff) return false;
  out = static_cast<std::uint16_t>(v);
  return true;
}

/// Comma-separated u64 list ("6,11,3"); empty string = empty list.
bool parse_list(const std::string& s, std::vector<std::uint64_t>& out) {
  out.clear();
  std::string item;
  for (const char ch : s) {
    if (ch == ',') {
      std::uint64_t v = 0;
      if (!parse_u64(item, v)) return false;
      out.push_back(v);
      item.clear();
    } else {
      item.push_back(ch);
    }
  }
  if (item.empty()) return false;
  std::uint64_t v = 0;
  if (!parse_u64(item, v)) return false;
  out.push_back(v);
  return true;
}

void print_json_run(const net::MultiProcResult& r, std::size_t n,
                    rt::ThreadAlg alg) {
  std::cout << "{\"completed\":" << (r.completed ? "true" : "false")
            << ",\"n\":" << n << ",\"alg\":\"" << rt::to_string(alg) << "\""
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

int cmd_run(const std::vector<std::string>& args) {
  std::vector<std::uint64_t> ids;
  std::vector<std::uint64_t> flip_bits;
  rt::ThreadAlg alg = rt::ThreadAlg::alg2;
  net::MultiProcOptions opt;
  bool json = false;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    const bool has_next = i + 1 < args.size();
    if (a == "--ids" && has_next) {
      if (!parse_list(args[++i], ids)) return usage();
    } else if (a == "--flips" && has_next) {
      if (!parse_list(args[++i], flip_bits)) return usage();
    } else if (a == "--alg" && has_next) {
      const auto parsed = rt::from_string(args[++i]);
      if (!parsed) return usage();
      alg = *parsed;
    } else if (a == "--base-port" && has_next) {
      if (!parse_port(args[++i], opt.base_port)) return usage();
    } else if (a == "--timeout-ms" && has_next) {
      if (!parse_u64(args[++i], opt.timeout_ms)) return usage();
    } else if (a == "--json") {
      json = true;
    } else {
      return usage();
    }
  }
  if (ids.empty()) return usage();
  if (!flip_bits.empty() && flip_bits.size() != ids.size()) return usage();
  std::vector<bool> flips;
  for (const std::uint64_t b : flip_bits) {
    if (b > 1) return usage();
    flips.push_back(b == 1);
  }

  const net::MultiProcResult r = net::run_multiprocess(ids, flips, alg, opt);
  if (json) {
    print_json_run(r, ids.size(), alg);
  } else if (r.completed) {
    std::cout << "ring of " << ids.size() << " processes, "
              << rt::to_string(alg) << ": leader node "
              << (r.leader ? std::to_string(*r.leader) : std::string("<none>"))
              << ", " << r.pulses << " pulses sent, " << r.consumed
              << " consumed, quiescence proven in " << r.probe_rounds
              << " probe rounds\n";
  } else {
    std::cerr << "election failed:\n" << r.stall_dump << "\n";
  }
  return r.completed && r.leader_count == 1 ? 0 : 1;
}

int cmd_coord(const std::vector<std::string>& args) {
  net::CoordinatorOptions opt;
  std::uint64_t ring_size = 0;
  bool json = false;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    const bool has_next = i + 1 < args.size();
    if (a == "--ring-size" && has_next) {
      if (!parse_u64(args[++i], ring_size)) return usage();
    } else if (a == "--port" && has_next) {
      if (!parse_port(args[++i], opt.port)) return usage();
    } else if (a == "--timeout-ms" && has_next) {
      if (!parse_u64(args[++i], opt.timeout_ms)) return usage();
    } else if (a == "--json") {
      json = true;
    } else {
      return usage();
    }
  }
  if (ring_size == 0 || ring_size > 0xffffffffULL) return usage();
  opt.ring_size = static_cast<std::uint32_t>(ring_size);

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

int cmd_node(const std::vector<std::string>& args) {
  net::RingNodeConfig cfg;
  std::uint64_t index = 0;
  std::uint64_t ring_size = 0;
  bool have_index = false;
  bool have_id = false;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    const bool has_next = i + 1 < args.size();
    if (a == "--index" && has_next) {
      if (!parse_u64(args[++i], index)) return usage();
      have_index = true;
    } else if (a == "--ring-size" && has_next) {
      if (!parse_u64(args[++i], ring_size)) return usage();
    } else if (a == "--id" && has_next) {
      if (!parse_u64(args[++i], cfg.id)) return usage();
      have_id = true;
    } else if (a == "--alg" && has_next) {
      const auto parsed = rt::from_string(args[++i]);
      if (!parsed) return usage();
      cfg.alg = *parsed;
    } else if (a == "--coordinator-port" && has_next) {
      if (!parse_port(args[++i], cfg.coordinator_port)) return usage();
    } else if (a == "--data-port" && has_next) {
      if (!parse_port(args[++i], cfg.data_port)) return usage();
    } else if (a == "--timeout-ms" && has_next) {
      if (!parse_u64(args[++i], cfg.timeout_ms)) return usage();
    } else if (a == "--flip") {
      cfg.flip = true;
    } else {
      return usage();
    }
  }
  if (!have_index || !have_id || ring_size == 0 ||
      ring_size > 0xffffffffULL || index >= ring_size ||
      cfg.coordinator_port == 0) {
    return usage();
  }
  cfg.index = static_cast<std::uint32_t>(index);
  cfg.ring_size = static_cast<std::uint32_t>(ring_size);

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
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  std::vector<std::string> args(argv + 2, argv + argc);
  if (cmd == "run") return cmd_run(args);
  if (cmd == "coord") return cmd_coord(args);
  if (cmd == "node") return cmd_node(args);
  return usage();
}
