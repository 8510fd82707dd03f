// Blocking-style transcriptions of the paper's pseudocode, line for line,
// written once as template coroutines over the PulsePort concept
// (runtime/port.hpp) so the *same* pseudocode runs on two execution models:
//
//  * ThreadRing (one OS thread per node): BlockingPortAdapter's wait_any()
//    blocks inside await_ready() and never suspends, so resuming the
//    coroutine once (drive_blocking) runs the algorithm to completion.
//  * The coroutine runtime (src/coro): CoroIo's wait_any() parks the node
//    coroutine until a pulse arrives, so millions of nodes share a few
//    worker threads.
//
// The bodies are deliberately written as loops over non-blocking recv calls
// — the exact shape of Algorithms 1, 2 and 3 in the paper — with the
// awaitable wait inserted only where a loop iteration made no progress
// (which is where an event-driven node would go back to sleep).
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "co/alg3.hpp"
#include "co/algorithms.hpp"
#include "co/oriented.hpp"
#include "co/roles.hpp"
#include "runtime/port.hpp"
#include "runtime/thread_ring.hpp"

namespace colex::rt {

namespace detail {

// Oriented-ring wrappers matching the paper's four methods (§3): sendCW
// transmits on Port1; CW pulses arrive at Port0. The wrapper also carries
// the node's current phase (obs/phase.hpp): every send is attributed to
// the phase in force at the call, mirroring how the sim-side instrumention
// samples Automaton::phase() at each genuine send, and enter() publishes
// transitions to ports that expose the optional set_phase extension.
template <PulsePort Io>
struct OrientedIo {
  Io& io;
  BlockingOutcome& out;
  obs::Phase phase = obs::Phase::probe;

  void enter(obs::Phase p) {
    if (p == phase) return;
    phase = p;
    if constexpr (requires { io.set_phase(p); }) io.set_phase(p);
  }
  void count_wait() { ++out.phase_waits[obs::index(phase)]; }

  void send_cw() {
    io.send(co::kCwPort);
    ++out.counters.sigma_cw;
    ++out.phase_sends[obs::index(phase)];
  }
  bool recv_cw() {
    if (!io.recv(co::kCcwPort)) return false;
    ++out.counters.rho_cw;
    return true;
  }
  void send_ccw() {
    io.send(co::kCcwPort);
    ++out.counters.sigma_ccw;
    ++out.phase_sends[obs::index(phase)];
  }
  bool recv_ccw() {
    if (!io.recv(co::kCwPort)) return false;
    ++out.counters.rho_ccw;
    return true;
  }
};

}  // namespace detail

/// Algorithm 1 on an oriented ring; runs until the harness signals
/// quiescence (the algorithm itself never terminates).
template <PulsePort Io>
ElectionTask run_alg1(Io io, std::uint64_t id) {
  COLEX_EXPECTS(id >= 1);
  BlockingOutcome out;
  out.id = id;
  detail::OrientedIo<Io> ring{io, out};

  ring.send_cw();  // line 1
  for (;;) {       // line 2
    if (ring.recv_cw()) {  // line 3
      if (out.counters.rho_cw == id) {  // line 4
        out.role = co::Role::leader;
        ring.enter(obs::Phase::elected);
      } else {
        out.role = co::Role::non_leader;
        ring.enter(obs::Phase::elected);
        ring.send_cw();
      }
    } else {
      ring.count_wait();
      if (!co_await io.wait_any()) {
        out.stopped = true;  // harness: network is quiescent
        co_return out;
      }
    }
  }
}

/// Algorithm 2 on an oriented ring; returns when the node terminates.
template <PulsePort Io>
ElectionTask run_alg2(Io io, std::uint64_t id) {
  COLEX_EXPECTS(id >= 1);
  BlockingOutcome out;
  out.id = id;
  detail::OrientedIo<Io> ring{io, out};
  auto& k = out.counters;
  bool initiated = false;

  ring.send_cw();  // line 1
  do {             // line 2
    bool progress = false;
    if (ring.recv_cw()) {  // lines 3-8
      if (k.rho_cw == id) {
        out.role = co::Role::leader;
      } else {
        out.role = co::Role::non_leader;
      }
      ring.enter(obs::Phase::elected);
      if (out.role == co::Role::non_leader) ring.send_cw();
      progress = true;
    }
    if (k.rho_cw >= id) {  // lines 9-13
      if (k.sigma_ccw == 0) {
        ring.send_ccw();
        progress = true;
      }
      if (ring.recv_ccw()) {
        if (k.rho_ccw != id) ring.send_ccw();
        progress = true;
      }
    }
    if (k.rho_cw == id && k.rho_ccw == id && !initiated) {  // lines 14-17
      initiated = true;
      // Enter before the send: the termination pulse belongs to the
      // initiated_wait phase (matching Alg2Terminating's ordering).
      ring.enter(obs::Phase::initiated_wait);
      ring.send_ccw();
      while (!ring.recv_ccw()) {
        ring.count_wait();
        if (!co_await io.wait_any()) {
          out.stopped = true;  // should never happen for Algorithm 2
          co_return out;
        }
      }
      progress = true;
    }
    if (!progress && !(k.rho_ccw > k.rho_cw)) {
      ring.count_wait();
      if (!co_await io.wait_any()) {
        out.stopped = true;
        co_return out;
      }
    }
  } while (!(k.rho_ccw > k.rho_cw));  // line 18
  ring.enter(obs::Phase::done);
  out.terminated = true;  // line 19: output state
  co_return out;
}

/// Algorithm 3 on a (possibly scrambled) ring; runs until harness stop.
template <PulsePort Io>
ElectionTask run_alg3(Io io, std::uint64_t id, co::IdScheme scheme) {
  COLEX_EXPECTS(id >= 1);
  BlockingOutcome out;
  out.id = id;
  const co::VirtualIds vids = co::virtual_ids(id, scheme);

  obs::Phase phase = obs::Phase::probe;
  auto enter = [&](obs::Phase p) {
    if (p == phase) return;
    phase = p;
    if constexpr (requires { io.set_phase(p); }) io.set_phase(p);
  };
  auto send_port = [&](int i) {
    io.send(sim::port_from_index(i));
    ++out.sigma_port[i];
    ++out.phase_sends[obs::index(phase)];
  };
  auto recv_port = [&](int i) {
    if (!io.recv(sim::port_from_index(i))) return false;
    ++out.rho_port[i];
    return true;
  };

  for (const int i : {0, 1}) send_port(i);  // lines 1-3
  for (;;) {                                // line 4
    bool progress = false;
    for (const int i : {0, 1}) {  // lines 5-7
      if (recv_port(1 - i)) {
        if (out.rho_port[1 - i] != vids.vid[i]) send_port(i);
        progress = true;
      }
    }
    // Lines 8-16.
    if (std::max(out.rho_port[0], out.rho_port[1]) >= vids.vid[1]) {
      if (out.rho_port[0] == vids.vid[1] && out.rho_port[1] < vids.vid[1]) {
        out.role = co::Role::leader;
      } else {
        out.role = co::Role::non_leader;
      }
      out.cw_port =
          out.rho_port[0] > out.rho_port[1] ? sim::Port::p1 : sim::Port::p0;
      enter(out.cw_port == sim::Port::p0 ? obs::Phase::orientation_flip
                                         : obs::Phase::elected);
    }
    if (!progress) {
      ++out.phase_waits[obs::index(phase)];
      if (!co_await io.wait_any()) {
        out.stopped = true;
        co_return out;
      }
    }
  }
}

/// Which algorithm a run executes (the catalogue's, co/algorithms.hpp).
using ThreadAlg = co::Algorithm;

/// Publishes `<prefix>.pulse_bound` (co::exact_pulses for these ids) and
/// `<prefix>.pulse_margin` (the bound minus `node_sends`) as gauges.
void publish_pulse_bound(obs::Registry& metrics, const std::string& prefix,
                         ThreadAlg alg, const std::vector<std::uint64_t>& ids,
                         std::uint64_t node_sends);

/// Instantiates the template transcription for `alg` over any PulsePort
/// (alg4's nodes are given their IDs, so they run Algorithm 3 improved).
template <PulsePort Io>
ElectionTask spawn_alg(ThreadAlg alg, Io io, std::uint64_t id) {
  const co::AlgorithmFacts& f = co::facts(alg);
  if (!f.oriented) return run_alg3(std::move(io), id, f.scheme);
  if (f.terminates) return run_alg2(std::move(io), id);
  return run_alg1(std::move(io), id);
}

/// ThreadRing's run result: the substrate-agnostic TransportRunResult shape
/// (outcomes, pulses, completion, leader tally, stall post-mortem from
/// ThreadRing::dump()) plus the fault-hook counters only this substrate
/// has.
struct ThreadRunResult : TransportRunResult {
  std::uint64_t crashes = 0;      ///< crash() events during the run
  std::uint64_t recoveries = 0;   ///< recover() events during the run
};

/// A fault script run concurrently with the algorithms, in its own thread:
/// it may crash(), recover() and inject_pulse() on the live fabric. It
/// deliberately races the workers — that nondeterminism is the point of
/// exercising faults on real threads (the simulator side, sim/faults.hpp,
/// covers the reproducible-schedule half).
using ChaosScript = std::function<void(ThreadRing&)>;

/// Spawns one thread per node, runs `alg`, monitors for quiescence /
/// termination, joins, and aggregates results. `port_flips` must be empty
/// for the oriented algorithms. `timeout_ms` is the watchdog budget: a run
/// that exceeds it is aborted (never hangs) and `stall_dump` is filled in.
/// A worker whose node crash-stops parks until recover() or stop; on
/// recovery it re-runs the algorithm from scratch with erased state.
/// A non-null `metrics` registry enables the fabric's telemetry probes
/// (per-node pulse counts, blocking-wait durations) and receives the
/// published snapshot after the run; the stall post-mortem embeds it too.
ThreadRunResult run_on_threads(const std::vector<std::uint64_t>& ids,
                               const std::vector<bool>& port_flips,
                               ThreadAlg alg,
                               std::uint64_t timeout_ms = 30'000,
                               ChaosScript chaos = {},
                               obs::Registry* metrics = nullptr);

}  // namespace colex::rt
