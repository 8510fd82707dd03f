// E18 — real-socket transport: the same elections over actual TCP.
// The transport seam (runtime/transport.hpp) promises that the blocking
// transcriptions are substrate-blind; src/net cashes that in with 1-byte
// pulse frames over loopback TCP, per-neighbor sessions, and a coordinator
// that proves quiescence with a four-counter probe protocol. Measured
// here:
//
//  * Multi-process election FIRST (fork() is only safe while the process
//    is single-threaded): one OS process per node via net::run_multiprocess
//    — the paper's setting taken literally, n processes sharing nothing
//    but TCP connections. Algorithm 2, unique dense IDs: exactly
//    n(2·IDmax+1) pulses merged across processes.
//  * In-process socket sweep vs the coroutine executor on the identical
//    workload (Algorithm 1, IDmax=2, exactly 2n pulses): nodes/sec and
//    pulses/sec head to head at n = 8, 32, 128 (smoke: 8, 32).
//  * A socket Algorithm 2 run at the largest sweep size for a heavier
//    cross-validation point (n(2n+1) pulses through real kernel buffers).
//
// Gates (recorded in BENCH_E18.json): every run completes with the exact
// paper-predicted pulse count and a unique max-ID leader; the multi-process
// merged total equals Theorem 1 AND every wire-level consumed count equals
// the sent count (nothing lost or duplicated by TCP framing). There is no
// socket-vs-coro speed gate — syscalls per pulse make sockets slower by
// design; the recorded factor is the cost of real I/O, not a regression.
//
// --smoke runs the CI-sized sweep.
#include <cstdint>
#include <iostream>
#include <numeric>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "co/election.hpp"
#include "coro/run.hpp"
#include "net/run.hpp"
#include "runtime/blocking_algs.hpp"
#include "util/table.hpp"

namespace {

using namespace colex;

/// IDmax=2 ring: Corollary 13 gives exactly 2n pulses, so the work per
/// node is constant and nodes/sec is comparable across substrates.
std::vector<std::uint64_t> sweep_ids(std::size_t n) {
  std::vector<std::uint64_t> ids(n, 1);
  ids[n / 2] = 2;
  return ids;
}

struct Row {
  std::string runtime;
  std::string algorithm;
  std::size_t n = 0;
  bool completed = false;
  bool exact = false;  ///< pulses == expected and exactly one leader
  std::uint64_t pulses = 0;
  std::uint64_t expected = 0;
  double seconds = 0.0;
  double nodes_per_sec = 0.0;
  double pulses_per_sec = 0.0;
};

Row make_row(const char* runtime, const char* algorithm, std::size_t n,
             bool completed, std::size_t leaders, std::uint64_t pulses,
             std::uint64_t expected, double seconds) {
  Row row;
  row.runtime = runtime;
  row.algorithm = algorithm;
  row.n = n;
  row.completed = completed;
  row.pulses = pulses;
  row.expected = expected;
  row.seconds = seconds;
  row.exact = completed && leaders == 1 && pulses == expected;
  if (completed && seconds > 0.0) {
    row.nodes_per_sec = static_cast<double>(n) / seconds;
    row.pulses_per_sec = static_cast<double>(pulses) / seconds;
  }
  return row;
}

bench::Json json_row(const Row& row) {
  bench::Json j = bench::Json::object();
  j.set("runtime", row.runtime)
      .set("algorithm", row.algorithm)
      .set("n", static_cast<std::uint64_t>(row.n))
      .set("completed", row.completed)
      .set("exact", row.exact)
      .set("pulses", row.pulses)
      .set("expected_pulses", row.expected)
      .set("seconds", row.seconds)
      .set("nodes_per_sec", row.nodes_per_sec)
      .set("pulses_per_sec", row.pulses_per_sec);
  return j;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  bench::JsonReport report("E18", "socket transport vs coroutine executor");
  if (!report.parse_args(argc, argv, smoke)) return 2;

  bench::banner(
      "E18 — real-socket transport: the same elections over actual TCP",
      "the blocking transcriptions are substrate-blind: one-byte pulse "
      "frames over loopback TCP (threads in one process, or one OS process "
      "per node) land the exact Theorem 1 / Corollary 13 pulse counts with "
      "a unique max-ID leader, with quiescence proven from wire counters");

  bench::WallTimer total;

  util::Table table({"runtime", "alg", "n", "pulses", "seconds", "nodes/s",
                     "pulses/s", "exact"});
  auto add_table_row = [&table](const Row& row) {
    table.add_row({row.runtime, row.algorithm, std::to_string(row.n),
                   std::to_string(row.pulses),
                   util::Table::fixed(row.seconds, 3),
                   util::Table::fixed(row.nodes_per_sec, 0),
                   util::Table::fixed(row.pulses_per_sec, 0),
                   row.exact ? "yes" : "NO"});
  };
  std::vector<Row> rows;

  // --- Phase 1: multi-process election (must run before any std::thread
  // exists in this process — fork() of a multi-threaded process is UB-
  // adjacent; run_multiprocess documents the same requirement). ----------
  const std::size_t mp_n = smoke ? 6 : 12;
  std::vector<std::uint64_t> mp_ids(mp_n);
  std::iota(mp_ids.begin(), mp_ids.end(), 1);
  const std::uint64_t mp_expected =
      co::theorem1_pulses(mp_n, static_cast<std::uint64_t>(mp_n));
  bench::WallTimer mp_timer;
  const net::MultiProcResult mp =
      net::run_multiprocess(mp_ids, {}, rt::ThreadAlg::alg2);
  const double mp_seconds = mp_timer.seconds();
  Row mp_row = make_row("multiproc", "alg2", mp_n, mp.completed,
                        mp.leader_count, mp.pulses, mp_expected, mp_seconds);
  const bool mp_conserved = mp.consumed == mp.pulses;
  add_table_row(mp_row);
  rows.push_back(mp_row);
  if (!mp.completed) {
    std::cout << "multi-process election failed:\n" << mp.stall_dump << "\n";
  }

  // --- Phase 2: in-process socket sweep vs coro, identical workload. ----
  const std::vector<std::size_t> sizes =
      smoke ? std::vector<std::size_t>{8, 32}
            : std::vector<std::size_t>{8, 32, 128};
  bool sweep_exact = true;
  bool wire_conserved = mp_conserved;
  double socket_best_nps = 0.0;
  double coro_best_nps = 0.0;
  for (const std::size_t n : sizes) {
    const auto ids = sweep_ids(n);
    const std::uint64_t expected = 2 * static_cast<std::uint64_t>(n);

    net::SocketRunOptions sopts;
    sopts.timeout_ms = 120'000;
    bench::WallTimer s_timer;
    const net::SocketRunResult s =
        net::run_on_sockets(ids, {}, rt::ThreadAlg::alg1, sopts);
    const Row s_row = make_row("socket", "alg1", n, s.completed,
                               s.leader_count, s.pulses, expected,
                               s_timer.seconds());
    add_table_row(s_row);
    rows.push_back(s_row);
    sweep_exact = sweep_exact && s_row.exact;
    wire_conserved = wire_conserved && s.consumed == s.pulses &&
                     s.wire.bytes_tx == s.pulses &&
                     s.wire.bytes_rx == s.pulses;
    socket_best_nps = std::max(socket_best_nps, s_row.nodes_per_sec);

    coro::CoroRunOptions copts;
    copts.workers = 2;
    copts.timeout_ms = 120'000;
    bench::WallTimer c_timer;
    const coro::CoroRunResult c =
        coro::run_on_coro(ids, {}, rt::ThreadAlg::alg1, copts);
    const Row c_row = make_row("coro", "alg1", n, c.completed,
                               c.leader_count, c.pulses, expected,
                               c_timer.seconds());
    add_table_row(c_row);
    rows.push_back(c_row);
    sweep_exact = sweep_exact && c_row.exact;
    coro_best_nps = std::max(coro_best_nps, c_row.nodes_per_sec);

    // Cross-validation: both substrates landed the identical count.
    sweep_exact = sweep_exact && s.pulses == c.pulses;
  }

  // --- Phase 3: socket Algorithm 2 at the largest sweep size. -----------
  const std::size_t alg2_n = sizes.back();
  std::vector<std::uint64_t> alg2_ids(alg2_n);
  std::iota(alg2_ids.begin(), alg2_ids.end(), 1);
  const std::uint64_t alg2_expected =
      co::theorem1_pulses(alg2_n, static_cast<std::uint64_t>(alg2_n));
  net::SocketRunOptions alg2_opts;
  alg2_opts.timeout_ms = 300'000;
  bench::WallTimer alg2_timer;
  const net::SocketRunResult alg2 =
      net::run_on_sockets(alg2_ids, {}, rt::ThreadAlg::alg2, alg2_opts);
  const Row alg2_row = make_row("socket", "alg2", alg2_n, alg2.completed,
                                alg2.leader_count, alg2.pulses, alg2_expected,
                                alg2_timer.seconds());
  add_table_row(alg2_row);
  rows.push_back(alg2_row);
  wire_conserved = wire_conserved && alg2.consumed == alg2.pulses;
  table.print(std::cout);

  // --- Gates. -----------------------------------------------------------
  const bool all_exact = mp_row.exact && sweep_exact && alg2_row.exact;
  const double io_cost_factor =
      socket_best_nps > 0.0 ? coro_best_nps / socket_best_nps : 0.0;

  std::cout << "\nmulti-process: " << mp_n << " OS processes, " << mp.pulses
            << " pulses merged (" << mp.probe_rounds
            << " probe rounds to prove quiescence, "
            << util::Table::fixed(mp_seconds, 3) << "s)\n"
            << "socket peak: " << util::Table::fixed(socket_best_nps, 0)
            << " nodes/s; coro peak: "
            << util::Table::fixed(coro_best_nps, 0)
            << " nodes/s; real-I/O cost factor: "
            << util::Table::fixed(io_cost_factor, 1) << "x\n"
            << "wire conservation (sent == consumed == bytes each way): "
            << (wire_conserved ? "held" : "VIOLATED") << "\n";

  for (const Row& row : rows) report.add_result(json_row(row));
  report.root()
      .set("smoke", smoke)
      .set("multiproc_n", static_cast<std::uint64_t>(mp_n))
      .set("multiproc_pulses", mp.pulses)
      .set("multiproc_expected_pulses", mp_expected)
      .set("multiproc_probe_rounds", mp.probe_rounds)
      .set("socket_nodes_per_sec", socket_best_nps)
      .set("coro_nodes_per_sec", coro_best_nps)
      .set("io_cost_factor", io_cost_factor)
      .set("gate_multiproc_ok", mp_row.exact && mp_conserved)
      .set("gate_wire_conserved", wire_conserved)
      .set("gate_all_exact", all_exact)
      .set("gate_ok", all_exact && wire_conserved);
  report.finish(total.seconds());

  const bool ok = all_exact && wire_conserved;
  bench::verdict(
      ok, "the socket transport ran every election to the exact paper "
          "pulse count — including " +
              std::to_string(mp_n) +
              " single-node OS processes whose merged Theorem 1 total and "
              "wire counters prove quiescence over real TCP");
  return ok ? 0 : 1;
}
