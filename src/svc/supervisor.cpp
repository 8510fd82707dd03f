#include "svc/supervisor.hpp"

#include <optional>
#include <utility>

#include "co/election.hpp"
#include "co/roles.hpp"
#include "coro/run.hpp"
#include "net/run.hpp"
#include "sim/network.hpp"
#include "sim/scheduler.hpp"
#include "util/contracts.hpp"

namespace colex::svc {

const char* to_string(SoakBackend backend) {
  switch (backend) {
    case SoakBackend::coro: return "coro";
    case SoakBackend::socket: return "socket";
    default: return "sim";
  }
}

bool backend_from_string(const std::string& s, SoakBackend& out) {
  if (s == "sim") {
    out = SoakBackend::sim;
    return true;
  }
  if (s == "coro") {
    out = SoakBackend::coro;
    return true;
  }
  if (s == "socket") {
    out = SoakBackend::socket;
    return true;
  }
  return false;
}

namespace {

/// The count an attempt's pulses are held to: on a clean attempt the
/// algorithm's exact count (Corollary 13 / Theorem 1), which it must hit;
/// under faults Theorem 1's n(2·IDmax+1) ceiling, which it may not pass.
std::uint64_t pulse_bound(const RingSpec& spec, bool clean) {
  const std::size_t n = spec.ids.size();
  return clean ? co::exact_pulses(spec.alg, n, spec.id_max())
               : co::theorem1_pulses(n, spec.id_max());
}

/// The leader tally of a settled simulator ring.
struct Leaders {
  std::size_t leader_count = 0;
  std::optional<sim::NodeId> leader;
};

Leaders leaders_of(const sim::PulseNetwork& net) {
  Leaders t;
  co::tally_leaders(t, net.size(),
                    [&net](sim::NodeId v) { return co::role_at(net, v); });
  return t;
}

/// Classifies a clean attempt run on a runtime backend: the coroutine
/// executor, or the real-socket backend (one thread per node over loopback
/// TCP, quiescence proven by the coordinator's four-counter probe
/// protocol). Outcomes here are schedule-independent — the conserved pulse
/// counters give the exact Theorem 1 / Corollary 13 count and a unique
/// max-ID leader — so the only non-deterministic ending is a wall-clock
/// watchdog timeout, which classifies as `stalled` without the
/// clean-attempt escalation (a loaded machine is not an algorithm bug; the
/// retry ladder absorbs it). `deliveries` is the backend's consumed count.
AttemptResult classify_runtime_attempt(const RingSpec& spec,
                                       SoakBackend backend,
                                       const rt::TransportRunResult& r,
                                       std::uint64_t deliveries) {
  const std::string label = to_string(backend);
  AttemptResult a;
  a.on_coro = backend == SoakBackend::coro;
  a.on_socket = backend == SoakBackend::socket;
  for (const rt::BlockingOutcome& out : r.outcomes) {
    for (std::size_t i = 0; i < obs::kPhaseCount; ++i) {
      a.phase_pulses[i] += out.phase_sends[i];
    }
  }
  a.pulses = r.pulses;
  a.pulse_bound = pulse_bound(spec, /*clean=*/true);
  a.within_bound = a.pulses == a.pulse_bound;
  a.unique_leader = r.leader_count == 1;
  a.leader_is_max =
      r.leader.has_value() && spec.ids[*r.leader] == spec.id_max();
  a.report.sent = r.pulses;
  a.report.deliveries = deliveries;
  a.report.quiescent = r.completed;

  if (!r.completed) {
    a.outcome = sim::FaultOutcome::stalled;
    a.diagnosis = label + " attempt hit the stall watchdog: " + r.stall_dump;
    return a;
  }
  const bool terminates = co::facts(spec.alg).terminates;
  bool decided = a.unique_leader && a.leader_is_max;
  for (const rt::BlockingOutcome& out : r.outcomes) {
    if (out.role == co::Role::undecided) decided = false;
    if (terminates && !out.terminated && !out.stopped) decided = false;
  }
  a.report.all_terminated = decided && terminates;
  if (!decided) {
    a.outcome = sim::FaultOutcome::safety_violated;
    a.diagnosis = "clean " + label +
                  " attempt settled without a valid election: " +
                  std::to_string(r.leader_count) + " leaders";
  } else if (!a.within_bound) {
    a.outcome = sim::FaultOutcome::safety_violated;
    a.diagnosis = "clean " + label + " run missed its exact pulse count: " +
                  std::to_string(a.pulses) + " != " +
                  std::to_string(a.pulse_bound);
  } else {
    a.outcome = sim::FaultOutcome::recovered_correct;
  }
  return a;
}

}  // namespace

AttemptResult run_attempt(const RingSpec& spec, SoakBackend backend) {
  COLEX_EXPECTS(!spec.ids.empty());
  COLEX_EXPECTS(spec.max_events > 0);
  if (backend == SoakBackend::coro && spec.faults.trivial()) {
    // One worker per election: a soak shard is already one thread of a
    // fixed pool, so fanning each tiny ring across more workers would only
    // oversubscribe the machine.
    coro::CoroRunOptions copts;
    copts.workers = 1;
    copts.timeout_ms = 10'000;
    const coro::CoroRunResult r =
        coro::run_on_coro(spec.ids, {}, spec.alg, copts);
    // SPSC fabric: every pulse consumed once.
    return classify_runtime_attempt(spec, backend, r, r.pulses);
  }
  if (backend == SoakBackend::socket && spec.faults.trivial()) {
    net::SocketRunOptions sopts;
    sopts.timeout_ms = 10'000;
    const net::SocketRunResult r =
        net::run_on_sockets(spec.ids, {}, spec.alg, sopts);
    // Wire conservation: sent == consumed.
    return classify_runtime_attempt(spec, backend, r, r.consumed);
  }
  const std::size_t n = spec.ids.size();
  const std::uint64_t id_max = spec.id_max();
  const bool terminates = co::facts(spec.alg).terminates;

  sim::PulseNetwork net = sim::PulseNetwork::ring(n);
  for (sim::NodeId v = 0; v < n; ++v) {
    net.set_automaton(v, co::make_automaton(spec.alg, spec.ids[v]));
  }
  sim::FaultyNetwork faulty(std::move(net), spec.faults,
                            [&spec](sim::NodeId v) {
                              return co::make_automaton(spec.alg, spec.ids[v]);
                            });

  // Phase-attribute every node send (the sender's current phase, resolved
  // through the network so crash/recover automaton swaps stay safe). Plain
  // stack tallies, not a registry: attempts are the soak hot loop, and the
  // shard folds the result into its own registry post-attempt.
  std::array<std::uint64_t, obs::kPhaseCount> phase_pulses{};
  std::uint64_t observed_sends = 0;
  sim::PulseNetwork* const net_ptr = &faulty.network();
  net_ptr->chain_send_observer(
      [net_ptr, &phase_pulses, &observed_sends](sim::NodeId v, sim::Port,
                                                sim::Direction) {
        ++phase_pulses[obs::index(
            obs::phase_from_string(net_ptr->automaton(v).phase()))];
        ++observed_sends;
      });

  // The intended output: exactly one Leader, it holds the max ID, everyone
  // else decided Non-Leader — and for the terminating algorithm, everyone
  // terminated. Per-event invariant predicates are deliberately NOT wired
  // in: under faults the algorithms legitimately traverse states the
  // fault-free invariants forbid (a spurious pulse pushes counters past
  // IDmax), so only the final output is judged; clean-attempt escalation
  // below restores full strictness where the model actually promises it.
  const auto correct = [&spec, n, id_max,
                        terminates](const sim::PulseNetwork& final_net) {
    for (sim::NodeId v = 0; v < n; ++v) {
      if (co::role_at(final_net, v) == co::Role::undecided) return false;
      if (terminates && !final_net.automaton(v).terminated()) return false;
    }
    const Leaders t = leaders_of(final_net);
    return t.leader_count == 1 && spec.ids[*t.leader] == id_max;
  };

  sim::RunOptions opts;
  opts.max_events = spec.max_events;
  sim::RandomScheduler scheduler(spec.schedule_seed);
  const bool clean = spec.faults.trivial();
  auto run = faulty.run(scheduler, opts, /*safety=*/{}, correct);

  AttemptResult a;
  a.outcome = run.outcome;
  a.diagnosis = std::move(run.diagnosis);
  a.tallies = run.tallies;
  a.report = run.report;
  a.pulses = run.report.sent;
  a.pulse_bound = pulse_bound(spec, clean);
  a.within_bound =
      clean ? a.pulses == a.pulse_bound : a.pulses <= a.pulse_bound;
  a.phase_pulses = phase_pulses;
  if (a.pulses > observed_sends) {
    // Fabric pulses no node sent (injections, duplicates): the adversary
    // bucket keeps the per-phase series summing to the ground-truth total.
    a.phase_pulses[obs::index(obs::Phase::adversary)] +=
        a.pulses - observed_sends;
  }

  const Leaders t = leaders_of(faulty.network());
  a.unique_leader = t.leader_count == 1;
  a.leader_is_max = t.leader && spec.ids[*t.leader] == id_max;

  if (a.outcome == sim::FaultOutcome::recovered_correct && !a.within_bound) {
    // The hard invariant: no election completes past Theorem 1's ceiling.
    // Under faults an excess is the adversary's doing (one duplicate breaks
    // Algorithm 2's exact n(2·IDmax+1) count) — demote and retry. On a
    // clean run the exact count is the theorem's promise, so a miss is a
    // bug.
    if (clean) {
      a.outcome = sim::FaultOutcome::safety_violated;
      a.diagnosis = "clean run missed its exact pulse count: " +
                    std::to_string(a.pulses) + " != " +
                    std::to_string(a.pulse_bound);
    } else {
      a.outcome = sim::FaultOutcome::stalled;
      a.diagnosis = "correct output but pulse bound exceeded under faults (" +
                    std::to_string(a.pulses) + " > " +
                    std::to_string(a.pulse_bound) + "); retrying";
    }
  } else if (clean && a.outcome == sim::FaultOutcome::stalled) {
    // A clean election settling without the intended output cannot be
    // blamed on any adversary: escalate to fatal.
    a.outcome = sim::FaultOutcome::safety_violated;
    a.diagnosis = "clean attempt settled without a valid election: " +
                  a.diagnosis;
  }
  return a;
}

ElectionReport run_supervised(const ChurnEngine& churn, std::uint64_t election,
                              const SupervisorPolicy& policy) {
  COLEX_EXPECTS(policy.max_attempts >= 1);
  COLEX_EXPECTS(policy.clean_after_attempts < policy.max_attempts);
  ElectionReport out;
  for (unsigned attempt = 0; attempt < policy.max_attempts; ++attempt) {
    const RingSpec spec =
        churn.spec(election, attempt, policy.clean_after_attempts);
    const AttemptResult a = run_attempt(spec, policy.backend);
    out.attempts = attempt + 1;
    out.coro_attempts += a.on_coro ? 1 : 0;
    out.socket_attempts += a.on_socket ? 1 : 0;
    out.final_outcome = a.outcome;
    out.diagnosis = a.diagnosis;
    out.pulses = a.pulses;
    out.pulse_bound = a.pulse_bound;
    out.phase_pulses = a.phase_pulses;
    out.faults_applied += a.tallies.total();
    out.events_consumed += a.report.deliveries;
    if (a.outcome == sim::FaultOutcome::recovered_correct) {
      out.completed = true;
      return out;
    }
    if (a.outcome == sim::FaultOutcome::safety_violated) return out;
    // stalled or diverged: abandon this ring, rebuild, re-elect.
  }
  out.abandoned = true;
  return out;
}

}  // namespace colex::svc
