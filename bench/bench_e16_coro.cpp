// E16 — coroutine event-loop runtime: million-node rings in one process.
// ThreadRing's one-OS-thread-per-node design caps real-concurrency
// elections at a few thousand nodes; the coroutine executor (src/coro)
// runs each node as a coroutine over lock-free SPSC pulse channels and a
// work-stealing scheduler, lifting the same blocking-style transcriptions
// to rings of 10^5–10^6 nodes. Measured here, head to head:
//
//  * ThreadRing capacity sweep — Algorithm 1 with IDmax=2 (exactly 2n
//    pulses), ring size doubling until thread creation fails or a run
//    blows the per-size time budget. That last completed size is the
//    baseline's max practical ring.
//  * Coroutine sweep — the identical workload at n = 10^4, 10^5, 10^6.
//  * The acceptance election — Algorithm 2, unique dense IDs, at n = 10^4
//    (smoke) or n = 10^5 (full): n(2·IDmax+1) ≈ 2·10^10 pulses for the
//    full run, completed in one process with the exact Theorem 1 count.
//
// Gates (all recorded in BENCH_E16.json): the coroutine runtime reaches
// ≥10× ThreadRing's max ring size (smoke: ≥2×), at ≥2× its nodes/sec, and
// the Algorithm 2 election completes with the exact pulse count and one
// leader. Peak RSS is sampled (getrusage ru_maxrss) after each phase;
// ThreadRing runs first so its peak is unpolluted, and the coro phases
// report the running process maximum (equal to their own peak whenever
// they are the high-water mark).
//
// --smoke is the CI-sized run: the sweep is capped and Alg 2 runs at 10^4.
#include <sys/resource.h>

#include <condition_variable>
#include <cstdint>
#include <iostream>
#include <mutex>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "coro/run.hpp"
#include "runtime/blocking_algs.hpp"
#include "util/table.hpp"

namespace {

using namespace colex;

/// Process peak RSS in MiB (Linux ru_maxrss is KiB).
double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// IDmax=2 ring for the capacity sweeps: Corollary 13 gives exactly 2n
/// pulses, so the work per node is constant and nodes/sec is comparable
/// across sizes and runtimes.
std::vector<std::uint64_t> sweep_ids(std::size_t n) {
  std::vector<std::uint64_t> ids(n, 1);
  ids[n / 2] = 2;
  return ids;
}

struct SweepRow {
  std::size_t n = 0;
  bool completed = false;
  bool exact = false;  ///< pulses == 2n and exactly one leader
  std::uint64_t pulses = 0;
  double seconds = 0.0;
  double nodes_per_sec = 0.0;
  double pulses_per_sec = 0.0;
};

SweepRow row_from(std::size_t n, bool completed, std::size_t leaders,
                  std::uint64_t pulses, double seconds) {
  SweepRow row;
  row.n = n;
  row.completed = completed;
  row.pulses = pulses;
  row.seconds = seconds;
  row.exact = completed && leaders == 1 && pulses == 2 * n;
  if (completed && seconds > 0.0) {
    row.nodes_per_sec = static_cast<double>(n) / seconds;
    row.pulses_per_sec = static_cast<double>(pulses) / seconds;
  }
  return row;
}

/// True iff the process can hold `count` simultaneous parked threads.
/// ThreadRing spawns one thread per node and cannot survive a failed
/// std::thread constructor (joinable threads unwinding -> std::terminate),
/// so the capacity wall — vm.max_map_count allows ~32k thread stacks here —
/// must be probed where the failure is a catchable exception. The probe
/// threads are all alive at once, then released and joined, so reaching
/// `count` proves the real run's spawn loop will too.
bool can_spawn(std::size_t count) {
  std::mutex m;
  std::condition_variable cv;
  bool release = false;
  std::vector<std::thread> pool;
  pool.reserve(count);
  bool ok = true;
  try {
    for (std::size_t i = 0; i < count; ++i) {
      pool.emplace_back([&m, &cv, &release] {
        std::unique_lock<std::mutex> lock(m);
        cv.wait(lock, [&release] { return release; });
      });
    }
  } catch (const std::exception& e) {
    ok = false;
    std::cout << "threadring capacity probe failed at thread " << pool.size()
              << " of " << count << ": " << e.what() << "\n";
  }
  {
    const std::lock_guard<std::mutex> lock(m);
    release = true;
  }
  cv.notify_all();
  for (std::thread& t : pool) t.join();
  return ok;
}

SweepRow threadring_sweep_run(std::size_t n, std::uint64_t timeout_ms) {
  // +4: the monitor thread plus slack for the runtime's own helpers.
  if (!can_spawn(n + 4)) {
    // Thread creation failing IS the capacity measurement.
    return row_from(n, false, 0, 0, 0.0);
  }
  const auto ids = sweep_ids(n);
  bench::WallTimer timer;
  const rt::ThreadRunResult r =
      rt::run_on_threads(ids, {}, rt::ThreadAlg::alg1, timeout_ms);
  return row_from(n, r.completed, r.leader_count, r.pulses, timer.seconds());
}

SweepRow coro_sweep_run(std::size_t n, std::size_t workers,
                        std::uint64_t timeout_ms) {
  const auto ids = sweep_ids(n);
  coro::CoroRunOptions options;
  options.workers = workers;
  options.timeout_ms = timeout_ms;
  bench::WallTimer timer;
  const coro::CoroRunResult r =
      coro::run_on_coro(ids, {}, rt::ThreadAlg::alg1, options);
  return row_from(n, r.completed, r.leader_count, r.pulses, timer.seconds());
}

bench::Json json_row(const char* runtime, const SweepRow& row) {
  bench::Json j = bench::Json::object();
  j.set("runtime", runtime)
      .set("n", static_cast<std::uint64_t>(row.n))
      .set("completed", row.completed)
      .set("exact", row.exact)
      .set("pulses", row.pulses)
      .set("seconds", row.seconds)
      .set("nodes_per_sec", row.nodes_per_sec)
      .set("pulses_per_sec", row.pulses_per_sec);
  return j;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  bench::JsonReport report("E16", "coroutine executor vs ThreadRing");
  std::size_t workers = 1;
  if (!report.parse_args(argc, argv, smoke,
                         {util::cli::u64("--workers", "N", workers,
                                         "executor threads", 1, 256)})) {
    return 2;
  }

  bench::banner(
      "E16 — coroutine runtime: million-node rings in one process",
      "each ring node as a coroutine over lock-free SPSC pulse channels "
      "runs the same blocking-style transcriptions as ThreadRing at 10x+ "
      "the ring size with exact Theorem 1 / Corollary 13 pulse counts");

  bench::WallTimer total;

  util::Table table({"runtime", "n", "pulses", "seconds", "nodes/s",
                     "Mpulses/s", "exact"});
  auto add_table_row = [&table](const char* runtime, const SweepRow& row) {
    table.add_row({runtime, std::to_string(row.n), std::to_string(row.pulses),
                   util::Table::fixed(row.seconds, 3),
                   util::Table::fixed(row.nodes_per_sec, 0),
                   util::Table::fixed(row.pulses_per_sec / 1e6, 2),
                   row.exact ? "yes" : "NO"});
  };

  // --- Phase 1: ThreadRing capacity sweep (runs first so its peak RSS is
  // unpolluted by the million-node coroutine arena). --------------------
  const std::size_t tr_cap = smoke ? 4096 : 32768;
  const double tr_budget_seconds = smoke ? 5.0 : 30.0;
  std::vector<SweepRow> tr_rows;
  SweepRow tr_best;
  for (std::size_t n = 1024; n <= tr_cap; n *= 2) {
    const SweepRow row = threadring_sweep_run(n, /*timeout_ms=*/120'000);
    add_table_row("threadring", row);
    tr_rows.push_back(row);
    if (!row.exact) break;
    tr_best = row;
    if (row.seconds > tr_budget_seconds) break;  // next doubling won't fit
  }
  const double tr_peak_rss = peak_rss_mb();

  // --- Phase 2: coroutine sweep over the same workload. ----------------
  const std::vector<std::size_t> coro_sizes =
      smoke ? std::vector<std::size_t>{10'000}
            : std::vector<std::size_t>{10'000, 100'000, 1'000'000};
  std::vector<SweepRow> coro_rows;
  SweepRow coro_best;
  for (const std::size_t n : coro_sizes) {
    const SweepRow row = coro_sweep_run(n, workers, /*timeout_ms=*/600'000);
    add_table_row("coro", row);
    coro_rows.push_back(row);
    if (row.exact) coro_best = row;
  }
  const double coro_peak_rss = peak_rss_mb();

  // --- Phase 3: the acceptance election — Algorithm 2, unique dense IDs,
  // exactly n(2·IDmax+1) pulses end to end in one process. --------------
  const std::size_t alg2_n = smoke ? 10'000 : 100'000;
  std::vector<std::uint64_t> alg2_ids(alg2_n);
  std::iota(alg2_ids.begin(), alg2_ids.end(), 1);
  const std::uint64_t alg2_expected =
      static_cast<std::uint64_t>(alg2_n) *
      (2 * static_cast<std::uint64_t>(alg2_n) + 1);
  coro::CoroRunOptions alg2_options;
  alg2_options.workers = workers;
  alg2_options.timeout_ms = 3'600'000;
  bench::WallTimer alg2_timer;
  const coro::CoroRunResult alg2 =
      coro::run_on_coro(alg2_ids, {}, rt::ThreadAlg::alg2, alg2_options);
  const double alg2_seconds = alg2_timer.seconds();
  const bool alg2_ok = alg2.completed && alg2.leader_count == 1 &&
                       alg2.leader == alg2_n - 1 &&
                       alg2.pulses == alg2_expected;
  table.add_row({"coro-alg2", std::to_string(alg2_n),
                 std::to_string(alg2.pulses),
                 util::Table::fixed(alg2_seconds, 3),
                 util::Table::fixed(static_cast<double>(alg2_n) / alg2_seconds, 0),
                 util::Table::fixed(static_cast<double>(alg2.pulses) / alg2_seconds / 1e6, 2),
                 alg2_ok ? "yes" : "NO"});
  const double final_peak_rss = peak_rss_mb();
  table.print(std::cout);

  // --- Gates. ----------------------------------------------------------
  const double capacity_factor =
      tr_best.n > 0 ? static_cast<double>(coro_best.n) /
                          static_cast<double>(tr_best.n)
                    : 0.0;
  const double speed_factor =
      tr_best.nodes_per_sec > 0.0
          ? coro_best.nodes_per_sec / tr_best.nodes_per_sec
          : 0.0;
  const double required_capacity = smoke ? 2.0 : 10.0;
  const bool capacity_ok = capacity_factor >= required_capacity;
  const bool speed_ok = speed_factor >= 2.0;
  bool sweeps_exact = coro_best.exact && tr_best.exact;
  for (const SweepRow& row : coro_rows) sweeps_exact = sweeps_exact && row.exact;

  std::cout << "\nthreadring max practical ring: " << tr_best.n << " nodes ("
            << util::Table::fixed(tr_best.nodes_per_sec, 0)
            << " nodes/s, peak RSS " << util::Table::fixed(tr_peak_rss, 1)
            << " MiB)\n"
            << "coro max ring: " << coro_best.n << " nodes ("
            << util::Table::fixed(coro_best.nodes_per_sec, 0)
            << " nodes/s, process peak RSS "
            << util::Table::fixed(coro_peak_rss, 1) << " MiB)\n"
            << "capacity factor: " << util::Table::fixed(capacity_factor, 1)
            << "x (gate >= " << required_capacity << "x), nodes/sec factor: "
            << util::Table::fixed(speed_factor, 1) << "x (gate >= 2x)\n"
            << "alg2 n=" << alg2_n << ": "
            << (alg2_ok ? "completed exactly" : "FAILED") << " ("
            << alg2.pulses << " pulses, "
            << util::Table::fixed(alg2_seconds, 1) << "s)\n";

  for (const SweepRow& row : tr_rows) report.add_result(json_row("threadring", row));
  for (const SweepRow& row : coro_rows) report.add_result(json_row("coro", row));
  bench::Json alg2_row = bench::Json::object();
  alg2_row.set("runtime", "coro")
      .set("algorithm", "alg2")
      .set("n", static_cast<std::uint64_t>(alg2_n))
      .set("completed", alg2.completed)
      .set("exact", alg2_ok)
      .set("pulses", alg2.pulses)
      .set("expected_pulses", alg2_expected)
      .set("seconds", alg2_seconds)
      .set("pulses_per_sec", static_cast<double>(alg2.pulses) / alg2_seconds)
      .set("steals", alg2.stats.steals)
      .set("parks", alg2.stats.parks)
      .set("resumes", alg2.stats.resumes)
      .set("wakeups", alg2.stats.wakeups);
  report.add_result(std::move(alg2_row));

  report.root()
      .set("smoke", smoke)
      .set("workers", static_cast<std::uint64_t>(workers))
      .set("threadring_max_n", static_cast<std::uint64_t>(tr_best.n))
      .set("threadring_nodes_per_sec", tr_best.nodes_per_sec)
      .set("threadring_peak_rss_mb", tr_peak_rss)
      .set("coro_max_n", static_cast<std::uint64_t>(coro_best.n))
      .set("coro_nodes_per_sec", coro_best.nodes_per_sec)
      .set("coro_peak_rss_mb", coro_peak_rss)
      .set("final_peak_rss_mb", final_peak_rss)
      .set("capacity_factor", capacity_factor)
      .set("required_capacity_factor", required_capacity)
      .set("nodes_per_sec_factor", speed_factor)
      .set("alg2_n", static_cast<std::uint64_t>(alg2_n))
      .set("alg2_ok", alg2_ok)
      .set("gate_capacity_ok", capacity_ok)
      .set("gate_speed_ok", speed_ok)
      .set("gate_ok", capacity_ok && speed_ok && sweeps_exact && alg2_ok);
  report.finish(total.seconds());

  const bool ok = capacity_ok && speed_ok && sweeps_exact && alg2_ok;
  bench::verdict(
      ok,
      "the coroutine executor ran the same transcriptions at " +
          util::Table::fixed(capacity_factor, 1) +
          "x ThreadRing's max ring size and " +
          util::Table::fixed(speed_factor, 1) +
          "x its nodes/sec, every election landing the exact paper pulse "
          "count with a unique max-ID leader");
  return ok ? 0 : 1;
}
