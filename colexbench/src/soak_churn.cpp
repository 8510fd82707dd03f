// soak-churn: svc::run_soak with the `steady` churn preset, clean attempts
// on the coroutine backend, 1024 ring slots, one shard. Many tiny
// supervised elections: faulty attempts run on sim::FaultyNetwork, clean
// ones each build a fresh one-worker executor.
//
// Every soak runs pinned to one core, the next core for each soak, so the
// shard, the worker thread each clean attempt spawns and joins, and the
// soak's monitor share that core. Across cores, each of these hand-offs
// waits for the host to wake an idle virtual core: on a 4-vCPU shared host
// four unpinned shards spread 0.53 in elections/s over five 30 s runs
// (p95 0.77), one pinned shard 0.15 (p95 0.07).
//
// The untraced run is a sequence of soak slices (each its own run_soak with
// a seed derived from the run's seed) and reports the median slice. The
// traced run adds to one soak's own tallies a single-threaded replay of
// the same elections — ChurnEngine::spec is a pure function — whose
// svc::run_attempt calls are timed per backend, and an own executor for
// the clean rings to split coroutine setup from running.
#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "layers.hpp"
#include "report.hpp"
#include "svc/churn.hpp"
#include "svc/soak.hpp"
#include "svc/supervisor.hpp"

namespace colexbench {

namespace {

constexpr std::size_t kRings = 1024;

colex::svc::SoakOptions soak_options(std::uint64_t seed, double seconds) {
  colex::svc::SoakOptions o;
  o.duration_seconds = seconds;
  o.rings = kRings;
  o.shards = 1;
  o.seed = seed;
  o.churn = colex::svc::ChurnProfile::preset(colex::svc::ChurnPreset::steady);
  o.policy.backend = colex::svc::SoakBackend::coro;
  return o;
}

std::uint64_t counter(const colex::obs::Registry& reg,
                      const std::string& name) {
  for (const auto& [n, c] : reg.counters()) {
    if (n == name) return c->value();
  }
  return 0;
}

colex::svc::SoakReport soak(const colex::svc::SoakOptions& o, Result& r) {
  pin_to_next_core();
  colex::svc::SoakReport rep = colex::svc::run_soak(o);
  // A completed election passed the supervisor's checks: a unique max-ID
  // leader within the Theorem 1 bound. Everything else counts as failed.
  std::uint64_t failed = rep.started - std::min(rep.started, rep.completed);
  if (!rep.ok() && failed == 0) failed = 1;
  r.tally(rep.started, failed,
          "soak-churn: safety_violated=" +
              std::to_string(rep.safety_violated) +
              " abandoned=" + std::to_string(rep.abandoned) +
              (rep.violations.empty() ? "" : " " + rep.violations.front()));
  return rep;
}

double pulses_per_s(const colex::svc::SoakReport& rep) {
  return static_cast<double>(counter(rep.metrics, "svc.pulses")) /
         rep.wall_seconds;
}

/// One supervised election replayed attempt by attempt, with the same
/// retry ladder as svc::run_supervised, timing each run_attempt call.
struct Replay {
  std::vector<double> sim_us, coro_us;
  std::vector<std::vector<std::uint64_t>> clean_rings;
  std::uint64_t pulses = 0;
};

void replay_election(const colex::svc::ChurnEngine& engine,
                     std::uint64_t election,
                     const colex::svc::SupervisorPolicy& policy, Replay& rp,
                     Result& r) {
  using colex::sim::FaultOutcome;
  for (unsigned a = 0; a < policy.max_attempts; ++a) {
    const colex::svc::RingSpec spec =
        engine.spec(election, a, policy.clean_after_attempts);
    const auto t0 = Clock::now();
    const colex::svc::AttemptResult res =
        colex::svc::run_attempt(spec, policy.backend);
    const double us = seconds_since(t0) * 1e6;
    (res.on_coro ? rp.coro_us : rp.sim_us).push_back(us);
    if (res.on_coro && rp.clean_rings.size() < 4096) {
      rp.clean_rings.push_back(spec.ids);
    }
    if (res.outcome == FaultOutcome::recovered_correct) {
      rp.pulses += res.pulses;
      r.check(true, "");
      return;
    }
    if (res.outcome == FaultOutcome::safety_violated) break;
  }
  r.check(false, "soak-churn replay: slot " + std::to_string(engine.slot()) +
                     " election " + std::to_string(election));
}

}  // namespace

void run_soak_churn(const Args& args, Result& r) {
  r.info("rings", static_cast<double>(kRings));
  if (!args.trace) {
    constexpr int kSlices = 10;
    // Set-up: slot engines, shard threads, and a warm-up election per slot.
    std::uint64_t setup_seed = 0;
    const double setup_s = median_setup_s(5, [&] {
      auto o = soak_options(mix(args.seed, 4, setup_seed++), 0.0);
      o.min_elections = kRings;
      soak(o, r);
    });
    std::vector<double> eps, pps, p50, p95, p99;
    double elections = 0;
    double beyond_p95 = 0;
    for (int s = 0; s < kSlices; ++s) {
      const auto rep = soak(
          soak_options(mix(args.seed, 3, static_cast<std::uint64_t>(s)),
                       args.seconds / kSlices),
          r);
      eps.push_back(rep.elections_per_second);
      pps.push_back(pulses_per_s(rep));
      p50.push_back(rep.latency_ms.p50);
      p95.push_back(rep.latency_ms.p95);
      p99.push_back(rep.latency_ms.p99);
      elections += static_cast<double>(rep.latency_ms.count);
      beyond_p95 += std::floor(static_cast<double>(rep.latency_ms.count) *
                               0.05);
    }
    r.metric("elections_per_s", median(eps), "1/s");
    r.metric("pulses_per_s", median(pps), "1/s");
    r.metric("election_ms_p50", median(p50), "ms");
    // p95, not p99: a host that preempts a core for a millisecond now and
    // then hits about 1% of these 0.06 ms elections, so p99 largely
    // measures the host (0.45 vs 0.9 ms between quiet and busy runs of the
    // same code). p99 stays in the stamp.
    r.metric("election_ms_tail", median(p95), "ms");
    r.metric("setup_s", setup_s, "s");
    r.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    r.info("timed_elections", elections);
    r.info("tail_percentile", 95.0);
    r.info("samples_beyond_tail", beyond_p95);
    r.info("election_ms_p99", median(p99));
    r.info("slices", kSlices);
    return;
  }

  // The supervisor's own tallies from one soak over 40% of the time.
  const auto rep =
      soak(soak_options(mix(args.seed, 3, 0), args.seconds * 0.4), r);
  double utilization = 0.0;
  for (const auto& s : rep.shards) utilization += s.utilization;
  utilization /=
      static_cast<double>(std::max<std::size_t>(1, rep.shards.size()));

  // Replay the same soak's slots single-threaded: first through
  // run_supervised untimed, then attempt by attempt with every run_attempt
  // timed, over the same elections, 20% of the time each.
  const auto o = soak_options(mix(args.seed, 3, 0), 0.0);
  std::vector<colex::svc::ChurnEngine> engines;
  for (std::size_t slot = 0; slot < kRings; ++slot) {
    engines.emplace_back(o.seed, slot, o.churn);
  }
  std::uint64_t plain_pulses = 0;
  std::uint64_t visits = 0;
  auto t0 = Clock::now();
  do {
    const auto er = colex::svc::run_supervised(engines[visits % kRings],
                                               visits / kRings, o.policy);
    r.check(er.completed, "soak-churn replay: " + er.diagnosis);
    plain_pulses += er.pulses;
    ++visits;
  } while (seconds_since(t0) < args.seconds * 0.2);
  const double plain_pps =
      static_cast<double>(plain_pulses) / seconds_since(t0);

  Replay rp;
  t0 = Clock::now();
  for (std::uint64_t i = 0; i < visits; ++i) {
    replay_election(engines[i % kRings], i / kRings, o.policy, rp, r);
  }
  const double traced_pps =
      static_cast<double>(rp.pulses) / seconds_since(t0);

  // The clean rings once more on an own one-worker executor, to split the
  // coroutine backend's per-attempt setup from its run.
  CoroTiming ct;
  t0 = Clock::now();
  for (std::size_t i = 0; i < rp.clean_rings.size(); ++i) {
    bool reconciled = false;
    const std::string err =
        timed_coro_election(rp.clean_rings[i], 1, ct, reconciled);
    r.check(err.empty(), "soak-churn coro ring: " + err);
    r.reconcile(reconciled, "soak-churn: executor sent/consumed != pulses");
    if (seconds_since(t0) >= args.seconds * 0.2) break;
  }

  r.metric("svc.attempts_per_election",
           ratio(rep.attempts, rep.started), "count");
  r.metric("svc.retried_share", ratio(rep.retried, rep.started), "share");
  r.metric("svc.faults_per_election",
           ratio(rep.faults_applied, rep.started), "count");
  r.metric("svc.coro_attempt_share",
           ratio(rep.coro_attempts, rep.attempts), "share");
  r.metric("svc.shard_utilization", utilization, "share");
  r.metric("svc.sim_attempt_us_p50", median(rp.sim_us), "us");
  r.metric("svc.coro_attempt_us_p50", median(rp.coro_us), "us");
  r.metric("coro.setup_ms", ratio(ct.setup_ns, ct.elections) / 1e6, "ms");
  r.metric("coro.run_ms", ratio(ct.run_ns, ct.elections) / 1e6, "ms");
  r.metric("coro.port_op_ns", ratio(ct.port_ns, ct.port_ops), "ns");
  r.metric("trace.overhead",
           traced_pps > 0.0 ? plain_pps / traced_pps : 0.0, "ratio");
  r.metric("trace.reconciled", r.reconciled_share(), "share");
  r.info("soak_elections", static_cast<double>(rep.started));
  r.info("replayed_elections", static_cast<double>(visits));
  r.info("sim_attempts", static_cast<double>(rp.sim_us.size()));
  r.info("coro_attempts", static_cast<double>(rp.coro_us.size()));
  r.info("timed_executors", static_cast<double>(ct.elections));
  r.info("untraced_pulses_per_s", plain_pps);
  r.info("traced_pulses_per_s", traced_pps);
}

}  // namespace colexbench
