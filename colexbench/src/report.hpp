// Shared pieces of the benchmark program: the run arguments, the result
// record every workload fills, the closed-loop election loop, seeded
// input generation and the summary statistics the metrics are built from.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

namespace colexbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

inline std::uint64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// What one run reports: the election tally, every metric by name with its
/// unit (in print order), and free-form facts for the stamp line.
class Result {
 public:
  /// Counts one checked election; a false `ok` marks the run incorrect and
  /// logs `what` to stderr.
  void check(bool ok, const std::string& what);
  /// Counts `attempted` elections checked elsewhere (e.g. by the soak
  /// supervisor), `failed` of which did not complete correctly.
  void tally(std::uint64_t attempted, std::uint64_t failed,
             const std::string& what);
  /// Records a count-reconciliation outcome of a traced election; a
  /// mismatch is an incorrect output too.
  void reconcile(bool ok, const std::string& what);

  void metric(const std::string& name, double value, const std::string& unit);
  void info(const std::string& key, double value);
  void info(const std::string& key, const std::string& value);

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  bool correct() const { return failed_ == 0 && reconcile_failed_ == 0; }
  double reconciled_share() const;

  /// One JSON object: correct, attempted, failed, metrics, info.
  std::string to_json() const;

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t reconciled_ = 0;
  std::uint64_t reconcile_failed_ = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
  std::vector<std::pair<std::string, std::string>> info_;  // raw JSON values
};

/// Nearest-rank percentile, q in [0, 1]; 0 for an empty sample.
double percentile(std::vector<double> v, double q);
inline double median(std::vector<double> v) {
  return percentile(std::move(v), 0.5);
}

/// Per-election latencies plus throughput per equal time slice of a
/// closed-loop run (the next election starts when the previous returns).
struct LoopStats {
  std::vector<double> latency_ms;
  std::vector<double> slice_elections_per_s;
  double wall_s = 0.0;
};

/// Runs `election` back to back until `seconds` have elapsed, split into
/// `slices` equal time slices (each slice runs at least one election).
LoopStats closed_loop(double seconds, int slices,
                      const std::function<void()>& election);

/// Median of `reps` timed calls of `setup`, in seconds.
double median_setup_s(int reps, const std::function<void()>& setup);

/// The end-to-end metric set the fixed-size workloads print with --trace 0.
void add_end_to_end(Result& r, const LoopStats& loop,
                    double pulses_per_election, double setup_s);

/// Moves the calling thread to the next core it may run on, in turn.
/// Threads it creates afterwards inherit the one-core affinity. On a shared
/// host the cores run at different speeds at any one time, so rotating
/// spreads a run over all of them; and keeping a workload's threads on one
/// core means their hand-offs never wait for the host to wake another,
/// idle, virtual core.
void pin_to_next_core();

/// Process peak resident set size in MiB.
double peak_rss_mb();

/// Seeded stream for input generation: the same (seed, stream, index)
/// always yields the same values, independent of the library's own RNGs.
std::uint64_t mix(std::uint64_t seed, std::uint64_t stream,
                  std::uint64_t index);

/// A seeded uniform permutation of 1..n (Fisher-Yates).
std::vector<std::uint64_t> permutation_ids(std::size_t n, std::uint64_t seed);

/// `n` distinct IDs from 1..id_max that include id_max, in seeded order.
std::vector<std::uint64_t> ids_with_max(std::size_t n, std::uint64_t id_max,
                                        std::uint64_t seed);

// Workloads. Each runs for args.seconds, checks every election's output
// into the result, and adds the end-to-end metrics (trace off) or the
// per-layer metrics of the layers it runs (trace on; run.py reports the
// other declared per-layer metrics as 0).
void run_sim_ring(const Args& args, Result& r);
void run_coro_ring(const Args& args, Result& r);
void run_socket_ring(const Args& args, Result& r);
void run_soak_churn(const Args& args, Result& r);

}  // namespace colexbench
