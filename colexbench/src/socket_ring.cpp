// socket-ring: Algorithm 2 on a 3-node ring of loopback TCP endpoints
// (three node threads plus the coordinator), IDs seeded from 1..4000 with
// IDmax = 4000, i.e. 24,003 one-byte pulse frames per election.
//
// Untraced elections call net::run_on_sockets with no recorder. The traced
// run alternates them with elections that pass a FlightRecorder and a
// metrics registry through SocketRunOptions: the coordinator's go /
// probe / quiescent / complete milestones split each election into ring
// formation, the election itself, the quiescence confirmation and teardown,
// and the endpoint counters give the per-pulse wire work.
//
// Every election runs pinned to one core, the next core for each election:
// the node and coordinator threads run_on_sockets creates inherit it, so
// each pulse hand-off is a switch on that core rather than a wake-up of
// another virtual core, which a busy host delays. In alternating 30 s runs
// on a loaded 4-vCPU host, unpinned elections slowed from ~0.35 s to
// 1.2–1.6 s while pinned ones stayed at 0.54–0.67 s.
#include <string>
#include <vector>

#include "co/election.hpp"
#include "layers.hpp"
#include "net/run.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "report.hpp"

namespace colexbench {

namespace {

constexpr std::size_t kN = 3;
constexpr std::uint64_t kIdMax = 4000;
constexpr std::uint64_t kPulses = colex::co::theorem1_pulses(kN, kIdMax);
constexpr std::uint64_t kTimeoutMs = 60'000;

colex::net::SocketRunResult election(const std::vector<std::uint64_t>& ids,
                                     colex::obs::Registry* metrics,
                                     colex::obs::FlightRecorder* flight,
                                     Result& r) {
  pin_to_next_core();
  colex::net::SocketRunOptions opts;
  opts.timeout_ms = kTimeoutMs;
  opts.metrics = metrics;
  opts.flight = flight;
  auto res = colex::net::run_on_sockets(ids, {}, colex::rt::ThreadAlg::alg2,
                                        opts);
  const std::string err = check_transport(res, ids);
  r.check(err.empty(), "socket-ring: " + err);
  return res;
}

std::uint64_t steady_ns(Clock::time_point t) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          t.time_since_epoch())
          .count());
}

struct NetTrace {
  std::vector<double> formation_ms, run_ms, quiescence_ms, teardown_ms;
  std::uint64_t pulses = 0;
  std::uint64_t polls = 0;
  std::uint64_t flushes = 0;
  std::uint64_t waits = 0;
  std::uint64_t bytes_tx = 0;
  std::uint64_t probe_rounds = 0;
  std::uint64_t elections = 0;
};

void traced_election(const std::vector<std::uint64_t>& ids, NetTrace& t,
                     Result& r) {
  colex::obs::FlightRecorder flight(256);
  colex::obs::Registry metrics;
  const auto t_call = Clock::now();
  const auto res = election(ids, &metrics, &flight, r);
  const auto t_ret = Clock::now();

  // The coordinator's milestones; the last two probe rounds before
  // "quiescent" are the consecutive stable rounds that confirmed it.
  std::uint64_t go = 0, quiescent = 0;
  std::vector<std::uint64_t> probes;
  for (const auto& [ring, e] : flight.merged_tail(0)) {
    if (ring != "net.coordinator") continue;
    const std::string what = e.what;
    if (what == "go") go = e.t_ns;
    if (what == "probe" && quiescent == 0) probes.push_back(e.t_ns);
    if (what == "quiescent") quiescent = e.t_ns;
  }
  const bool timed = go != 0 && quiescent != 0 && probes.size() >= 2;
  r.reconcile(timed && res.consumed == res.pulses &&
                  res.wire.sent == res.pulses &&
                  res.wire.bytes_tx == res.pulses &&
                  res.wire.bytes_rx == res.pulses,
              "socket-ring: pulses=" + std::to_string(res.pulses) +
                  " consumed=" + std::to_string(res.consumed) +
                  " bytes_tx=" + std::to_string(res.wire.bytes_tx) +
                  " bytes_rx=" + std::to_string(res.wire.bytes_rx));
  if (!timed) return;
  const auto ms = [](std::uint64_t a, std::uint64_t b) {
    return static_cast<double>(b - a) / 1e6;
  };
  t.formation_ms.push_back(ms(steady_ns(t_call), go));
  t.run_ms.push_back(ms(go, quiescent));
  t.quiescence_ms.push_back(ms(probes[probes.size() - 2], quiescent));
  t.teardown_ms.push_back(ms(quiescent, steady_ns(t_ret)));
  t.pulses += res.pulses;
  t.polls += res.wire.polls;
  t.flushes += res.wire.flushes;
  t.waits += res.wire.waits;
  t.bytes_tx += res.wire.bytes_tx;
  t.probe_rounds += res.probe_rounds;
  ++t.elections;
}

}  // namespace

void run_socket_ring(const Args& args, Result& r) {
  std::uint64_t next = 0;
  const auto ids = [&] {
    return ids_with_max(kN, kIdMax, mix(args.seed, 1, next++));
  };
  r.info("n", static_cast<double>(kN));
  r.info("id_max", static_cast<double>(kIdMax));
  r.info("pulses_per_election", static_cast<double>(kPulses));
  if (!args.trace) {
    const double setup_s =
        median_setup_s(5, [&] { election(ids(), nullptr, nullptr, r); });
    const LoopStats loop = closed_loop(
        args.seconds, 10, [&] { election(ids(), nullptr, nullptr, r); });
    add_end_to_end(r, loop, static_cast<double>(kPulses), setup_s);
    return;
  }

  election(ids(), nullptr, nullptr, r);  // warm-up
  NetTrace t;
  std::vector<double> plain_pps;
  std::vector<double> traced_pps;
  const auto t_start = Clock::now();
  do {
    auto t0 = Clock::now();
    election(ids(), nullptr, nullptr, r);
    plain_pps.push_back(static_cast<double>(kPulses) / seconds_since(t0));
    t0 = Clock::now();
    traced_election(ids(), t, r);
    traced_pps.push_back(static_cast<double>(kPulses) / seconds_since(t0));
  } while (seconds_since(t_start) < args.seconds);

  r.metric("net.formation_ms", median(t.formation_ms), "ms");
  r.metric("net.run_ms", median(t.run_ms), "ms");
  r.metric("net.quiescence_ms", median(t.quiescence_ms), "ms");
  r.metric("net.teardown_ms", median(t.teardown_ms), "ms");
  r.metric("net.polls_per_pulse", ratio(t.polls, t.pulses), "count");
  r.metric("net.flushes_per_pulse", ratio(t.flushes, t.pulses), "count");
  r.metric("net.waits_per_pulse", ratio(t.waits, t.pulses), "count");
  r.metric("net.bytes_tx_per_pulse", ratio(t.bytes_tx, t.pulses), "count");
  r.metric("net.probe_rounds", ratio(t.probe_rounds, t.elections), "count");
  r.metric("trace.overhead", median(plain_pps) / median(traced_pps), "ratio");
  r.metric("trace.reconciled", r.reconciled_share(), "share");
  r.info("traced_elections", static_cast<double>(t.elections));
  r.info("untraced_pulses_per_s", median(plain_pps));
  r.info("traced_pulses_per_s", median(traced_pps));
}

}  // namespace colexbench
