// coro-ring: Algorithm 2 on a 2000-node ring (IDmax = 2000) on the
// coroutine executor at one worker per core.
//
// Untraced elections call coro::run_on_coro. The traced run alternates
// elections with CoroRunOptions::metrics null and set (obs.armed_ratio),
// reads the executor's always-on scheduler counters, times an own
// Executor's construction/bind/run with every port wrapped in a timing
// PulsePort decorator, and repeats the election on one worker for scaling.
#include <algorithm>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "co/election.hpp"
#include "coro/executor.hpp"
#include "coro/run.hpp"
#include "layers.hpp"
#include "obs/metrics.hpp"
#include "report.hpp"

namespace colexbench {

namespace {

constexpr std::size_t kN = 2000;
constexpr std::uint64_t kPulses = colex::co::theorem1_pulses(kN, kN);
constexpr std::uint64_t kTimeoutMs = 60'000;

/// Per-node port timings. Each node's coroutine runs on one worker at a
/// time and the executor's state transitions order its resumptions, so the
/// plain fields need no atomics; they are read after Executor::run joined.
struct alignas(64) PortStats {
  std::uint64_t ops = 0;
  std::uint64_t ns = 0;
};

/// A timing decorator over CoroIo that models rt::PulsePort.
class TimedPort {
 public:
  TimedPort(colex::coro::CoroIo io, PortStats& stats)
      : io_(io), stats_(&stats) {}

  bool recv(colex::sim::Port p) {
    const auto t0 = Clock::now();
    const bool got = io_.recv(p);
    count(t0);
    return got;
  }
  void send(colex::sim::Port p) {
    const auto t0 = Clock::now();
    io_.send(p);
    count(t0);
  }
  auto wait_any() { return io_.wait_any(); }
  void set_phase(colex::obs::Phase p) { io_.set_phase(p); }

 private:
  void count(Clock::time_point t0) {
    stats_->ns += ns_between(t0, Clock::now());
    ++stats_->ops;
  }

  colex::coro::CoroIo io_;
  PortStats* stats_;
};

static_assert(colex::rt::PulsePort<TimedPort>);

std::size_t workers() {
  return std::max(1u, std::thread::hardware_concurrency());
}

colex::coro::CoroRunResult election(const std::vector<std::uint64_t>& ids,
                                    std::size_t worker_count,
                                    colex::obs::Registry* metrics,
                                    Result& r) {
  auto res = colex::coro::run_on_coro(
      ids, {}, colex::rt::ThreadAlg::alg2,
      colex::coro::CoroRunOptions{worker_count, kTimeoutMs, metrics});
  const std::string err = check_transport(res, ids);
  r.check(err.empty(), "coro-ring: " + err);
  return res;
}

}  // namespace

std::string check_transport(const colex::rt::TransportRunResult& res,
                            const std::vector<std::uint64_t>& ids) {
  const std::uint64_t id_max = *std::max_element(ids.begin(), ids.end());
  const std::uint64_t bound = colex::co::theorem1_pulses(ids.size(), id_max);
  if (!res.completed) return "did not complete: " + res.stall_dump;
  if (res.pulses != bound) {
    return "pulses " + std::to_string(res.pulses) + " != " +
           std::to_string(bound);
  }
  if (res.leader_count != 1 || !res.leader.has_value() ||
      ids[*res.leader] != id_max) {
    return std::to_string(res.leader_count) + " leaders, max-ID node " +
           (res.leader.has_value() && ids[*res.leader] == id_max ? "leads"
                                                                 : "does not");
  }
  for (const auto& out : res.outcomes) {
    if (out.role == colex::co::Role::undecided) return "undecided node";
    if (!out.terminated && !out.stopped) return "node did not end";
  }
  return {};
}

std::string timed_coro_election(const std::vector<std::uint64_t>& ids,
                                std::size_t worker_count, CoroTiming& t,
                                bool& reconciled) {
  const std::size_t n = ids.size();
  const auto t0 = Clock::now();
  colex::coro::Executor ex(
      n, {}, colex::coro::ExecutorOptions{worker_count, kTimeoutMs, nullptr});
  std::vector<PortStats> ports(n);
  std::vector<colex::rt::ElectionTask> tasks;
  tasks.reserve(n);
  for (std::uint32_t v = 0; v < n; ++v) {
    tasks.push_back(colex::rt::spawn_alg(colex::rt::ThreadAlg::alg2,
                                         TimedPort(ex.io(v), ports[v]),
                                         ids[v]));
    ex.bind(v, tasks.back().handle());
  }
  const auto t1 = Clock::now();
  colex::rt::TransportRunResult res;
  res.completed = ex.run();
  const auto t2 = Clock::now();
  res.pulses = ex.total_sent();
  if (!res.completed) res.stall_dump = ex.stall_dump();
  for (const auto& task : tasks) res.outcomes.push_back(task.outcome());
  colex::rt::tally_leaders(res);

  const colex::coro::ExecStats stats = ex.stats();
  reconciled = stats.sent == res.pulses && stats.consumed == res.pulses &&
               stats.swallowed == 0;
  t.setup_ns += ns_between(t0, t1);
  t.run_ns += ns_between(t1, t2);
  t.pulses += res.pulses;
  ++t.elections;
  for (const PortStats& p : ports) {
    t.port_ops += p.ops;
    t.port_ns += p.ns;
  }
  return check_transport(res, ids);
}

void run_coro_ring(const Args& args, Result& r) {
  std::uint64_t next = 0;
  const auto ids = [&] {
    return permutation_ids(kN, mix(args.seed, 1, next++));
  };
  const std::size_t w = workers();
  r.info("n", static_cast<double>(kN));
  r.info("workers", static_cast<double>(w));
  r.info("pulses_per_election", static_cast<double>(kPulses));
  if (!args.trace) {
    const double setup_s =
        median_setup_s(5, [&] { election(ids(), w, nullptr, r); });
    const LoopStats loop = closed_loop(
        args.seconds, 10, [&] { election(ids(), w, nullptr, r); });
    add_end_to_end(r, loop, static_cast<double>(kPulses), setup_s);
    return;
  }

  election(ids(), w, nullptr, r);  // warm-up
  const auto pps = [](Clock::time_point t0) {
    return static_cast<double>(kPulses) / seconds_since(t0);
  };
  // Half the time: dark and armed elections alternate, so drift hits both
  // alike; the dark ones also supply the executor's scheduler counters.
  colex::coro::ExecStats s{};
  std::uint64_t dark = 0;
  std::vector<double> dark_pps;
  std::vector<double> armed_pps;
  auto t_phase = Clock::now();
  do {
    auto t0 = Clock::now();
    const auto res = election(ids(), w, nullptr, r);
    dark_pps.push_back(pps(t0));
    s.sent += res.stats.sent;
    s.resumes += res.stats.resumes;
    s.steals += res.stats.steals;
    s.parks += res.stats.parks;
    s.wakeups += res.stats.wakeups;
    s.batched += res.stats.batched;
    s.yields += res.stats.yields;
    ++dark;
    colex::obs::Registry metrics;
    t0 = Clock::now();
    election(ids(), w, &metrics, r);
    armed_pps.push_back(pps(t0));
  } while (seconds_since(t_phase) < args.seconds * 0.5);

  // A quarter: the decorated executor, for the port and setup/run split.
  CoroTiming t;
  std::vector<double> traced_pps;
  t_phase = Clock::now();
  do {
    bool reconciled = false;
    const auto t0 = Clock::now();
    const std::string err = timed_coro_election(ids(), w, t, reconciled);
    traced_pps.push_back(pps(t0));
    r.check(err.empty(), "coro-ring traced: " + err);
    r.reconcile(reconciled, "coro-ring: executor sent/consumed != pulses");
  } while (seconds_since(t_phase) < args.seconds * 0.25);

  // A quarter: the same election on one worker.
  std::vector<double> w1_pps;
  t_phase = Clock::now();
  do {
    const auto t0 = Clock::now();
    election(ids(), 1, nullptr, r);
    w1_pps.push_back(pps(t0));
  } while (seconds_since(t_phase) < args.seconds * 0.25);

  const auto per_kpulse = [&s](std::uint64_t x) {
    return 1000.0 * ratio(x, s.sent);
  };
  r.metric("coro.resumes_per_pulse", ratio(s.resumes, s.sent), "count");
  r.metric("coro.steals_per_kpulse", per_kpulse(s.steals), "count");
  r.metric("coro.parks_per_kpulse", per_kpulse(s.parks), "count");
  r.metric("coro.wakeups_per_kpulse", per_kpulse(s.wakeups), "count");
  r.metric("coro.batched_share", ratio(s.batched, s.sent), "share");
  r.metric("coro.yields", ratio(s.yields, dark), "count");
  r.metric("coro.port_op_ns", ratio(t.port_ns, t.port_ops), "ns");
  r.metric("coro.w1_pulses_per_s", median(w1_pps), "1/s");
  r.metric("coro.setup_ms", ratio(t.setup_ns, t.elections) / 1e6, "ms");
  r.metric("coro.run_ms", ratio(t.run_ns, t.elections) / 1e6, "ms");
  r.metric("obs.armed_ratio", median(armed_pps) / median(dark_pps), "ratio");
  r.metric("trace.overhead", median(dark_pps) / median(traced_pps), "ratio");
  r.metric("trace.reconciled", r.reconciled_share(), "share");
  r.info("dark_elections", static_cast<double>(dark));
  r.info("traced_elections", static_cast<double>(t.elections));
  r.info("w1_elections", static_cast<double>(w1_pps.size()));
  r.info("untraced_pulses_per_s", median(dark_pps));
  r.info("traced_pulses_per_s", median(traced_pps));
  r.info("port_ops_per_pulse", ratio(t.port_ops, t.pulses));
}

}  // namespace colexbench
