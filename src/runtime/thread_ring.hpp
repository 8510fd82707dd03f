// A real-thread runtime for the fully defective ring: one OS thread per
// node, mutex+condition-variable pulse ports, genuine (hardware/OS-induced)
// asynchrony. The algorithms run here are the *blocking-style* literal
// transcriptions of the paper's pseudocode (blocking_algs.hpp), in contrast
// to the event-driven automata used on the discrete simulator — running the
// same pseudocode through two independent execution models and comparing
// outcomes exactly is one of this repository's main validation tools.
//
// Quiescence detection (for the stabilizing algorithms, which never
// terminate on their own) is performed by the *harness*, not the nodes:
// a monitor thread observes "all threads blocked on empty ports" plus
// "globally sent == consumed" — the standard counter-based distributed
// termination-detection argument, executed with shared-memory atomics. This
// mirrors what the omniscient simulator does and is test instrumentation,
// never part of the algorithms.
//
// Fault hooks (mirroring sim/faults.hpp on real threads):
//  * crash(v) / recover(v): crash-stop a node mid-run and optionally bring
//    it back with *erased* local state. Crashing bumps the node's
//    incarnation epoch; a NodeIo handle is bound to the epoch it was created
//    under and goes permanently dead the moment the epoch moves on, so a
//    worker thread that raced past the crash cannot smuggle pre-crash
//    counters into the recovered node. Deliveries to a crashed node are
//    swallowed (counted sent *and* consumed, so conservation-based
//    quiescence detection stays sound).
//  * inject_pulse(to, p): deposits a spurious pulse — the real-thread
//    analogue of the simulator's FaultKind::spurious. Against Algorithm 1
//    this manufactures a guaranteed livelock (n absorptions cannot cover
//    n+1 pulses), which is how the stall watchdog is exercised.
//  * The monitor already was a stall watchdog; dump() adds the post-mortem:
//    per-node pending queues, per-node sent/consumed, crash flags, and the
//    global counters, so a timed-out run aborts with evidence instead of
//    hanging.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/phase.hpp"
#include "runtime/progress.hpp"
#include "runtime/transport.hpp"
#include "sim/types.hpp"
#include "util/contracts.hpp"

namespace colex::rt {

class ThreadRing;

/// The port interface a blocking algorithm sees: non-blocking receive,
/// send, and a blocking wait for the next pulse (which the harness can
/// interrupt once global quiescence is certain).
///
/// A NodeIo is one *incarnation* of the node: it is bound to the crash
/// epoch current when ThreadRing::io() created it. If the node crashes, the
/// handle goes dead — recv/wait_any return false, send is suppressed — even
/// after a recover(), which starts a fresh incarnation that must obtain a
/// fresh handle via io().
class NodeIo {
 public:
  /// Consume one pulse from the incoming queue of `p` if available.
  bool recv(sim::Port p);

  /// Send one pulse out of port `p`.
  void send(sim::Port p);

  /// Block until a pulse is available on a port in the node's interest
  /// set: the ports whose recv() came back empty since its previous wait,
  /// or both ports if none did (runtime/transport.hpp). Pulses queued on
  /// other ports neither end the wait nor wake it. Returns false when the
  /// harness has signalled stop (global quiescence / timeout) or this
  /// incarnation has been crashed; the algorithm should then return.
  bool wait_any();

  // --- rt::Transport surface (runtime/transport.hpp) --------------------
  //
  // NodeIo is the in-process reference model of the transport concept the
  // socket backend (src/net) implements over real file descriptors: the
  // same blocking wait, the same stop semantics, a no-op teardown (the
  // fabric owns the condvar ports and outlives every handle).

  /// Transport::wait(): the blocking wait under its seam name.
  bool wait() { return wait_any(); }

  /// Transport::stopped(): true once the harness broadcast stop or this
  /// incarnation was crashed — wait()/wait_any() can only return false.
  bool stopped() const;

  /// Transport::shutdown(): idempotent no-op. ThreadRing owns the port
  /// state; a handle holds nothing that needs releasing.
  void shutdown() {}

  /// Pulses delivered to port `p` and not yet consumed.
  std::size_t pending(sim::Port p) const;

  /// Publishes the node's current algorithm phase (one relaxed store on
  /// the node's own state) so watchdog dumps and live per-phase gauges see
  /// where every node is. Dead incarnations stay silent.
  void set_phase(obs::Phase p);

 private:
  friend class ThreadRing;
  NodeIo(ThreadRing& ring, sim::NodeId self, std::uint64_t epoch)
      : ring_(ring), self_(self), epoch_(epoch) {}
  bool dead() const;
  ThreadRing& ring_;
  sim::NodeId self_;
  std::uint64_t epoch_;  // crash epoch this incarnation belongs to
};

/// Shared pulse fabric for an n-node ring (oriented or port-scrambled).
class ThreadRing {
 public:
  explicit ThreadRing(std::size_t n, std::vector<bool> port_flips = {});

  std::size_t size() const { return nodes_.size(); }
  /// Mints an io handle for the node's CURRENT incarnation, and records
  /// that the worker has caught up with it (see acked_epoch below).
  NodeIo io(sim::NodeId v) {
    const std::uint64_t epoch = nodes_[v].crash_epoch.load();
    ack_epoch(v, epoch);
    return NodeIo(*this, v, epoch);
  }

  std::uint64_t total_sent() const { return sent_.load(); }
  std::uint64_t total_consumed() const { return consumed_.load(); }
  bool stopped() const { return stop_.load(); }

  /// Worker bookkeeping: a worker thread calls this when its algorithm
  /// function returns.
  void worker_finished() {
    finished_.fetch_add(1);
    maybe_notify_monitor();
  }

  /// Runs the monitor loop in the calling thread until either all `n`
  /// workers finished naturally, or quiescence is detected / the timeout
  /// expires (then `stop` is broadcast so blocked workers return). Returns
  /// true if stopping was due to quiescence or natural termination, false
  /// on timeout — in which case dump() holds the post-mortem.
  bool monitor(std::uint64_t timeout_ms);

  // --- Fault hooks (harness-side; mirror of sim/faults.hpp) -------------

  /// Crash-stop node `v`: its pending pulses are lost, future deliveries
  /// are swallowed, and its current NodeIo incarnation goes dead. The
  /// worker thread notices (recv/wait_any fail), sees the epoch moved, and
  /// parks in await_recovery(). Must not already be crashed.
  void crash(sim::NodeId v);

  /// Bring a crashed node back with no memory of its past incarnation.
  /// The parked worker wakes and re-runs its algorithm from scratch
  /// through a fresh io(v) handle. Must currently be crashed.
  void recover(sim::NodeId v);

  bool node_crashed(sim::NodeId v) const {
    return nodes_[v].crashed.load();
  }
  /// Incarnation counter for `v`: bumped by every crash().
  std::uint64_t crash_epoch(sim::NodeId v) const {
    return nodes_[v].crash_epoch.load();
  }

  /// Worker-side: park until the node is recovered or the harness stops.
  /// Returns true if the worker should re-run its algorithm (recovered),
  /// false if the run is over (stop while still crashed).
  bool await_recovery(sim::NodeId v);

  /// Deposit one spurious pulse into `to`'s queue for port `p`, as if a
  /// defective channel fired without a send. Counted in sent_ so that
  /// conservation-based quiescence detection still requires the pulse to
  /// be consumed — an unabsorbable injected pulse therefore keeps the ring
  /// non-quiescent until the watchdog trips.
  void inject_pulse(sim::NodeId to, sim::Port p);

  std::uint64_t crashes() const { return crash_count_.load(); }
  std::uint64_t recoveries() const { return recovery_count_.load(); }
  std::uint64_t crash_lost() const { return crash_lost_.load(); }
  std::uint64_t injected() const { return injected_.load(); }

  // --- Telemetry (src/obs) ----------------------------------------------
  //
  // The fabric's metrics are plain per-node atomics written only by their
  // owning worker (wait durations) or under the port mutex (traffic), so
  // attaching a registry adds two clock reads per blocking wait and nothing
  // else. The registry itself is single-threaded: it is only written by
  // publish_metrics(), called from the harness thread after (or instead of)
  // the workers, never concurrently with them.

  /// Attach a caller-owned metrics registry. Must be called before worker
  /// threads start; a null registry (the default) disables the wait-timing
  /// probes entirely. Attaching also arms the flight recorder: two rings
  /// ("monitor" for the watchdog loop, "fabric" for crash/recover/inject
  /// events from the chaos thread), whose merged tail the stall dump
  /// embeds.
  void set_metrics(obs::Registry* registry) {
    metrics_ = registry;
    if (registry != nullptr && flight_ == nullptr) {
      flight_ = std::make_unique<obs::FlightRecorder>();
      flight_monitor_ = &flight_->ring("monitor");
      flight_fabric_ = &flight_->ring("fabric");
    }
  }

  /// The armed flight recorder, or null when metrics are off.
  const obs::FlightRecorder* flight() const { return flight_.get(); }

  /// Publishes per-node pulse counts, blocking-wait durations, and the
  /// global fabric counters into the attached registry. Harness-side: call
  /// after monitor() returns (the watchdog path calls it from dump()).
  void publish_metrics() const;

  /// Human-readable post-mortem of the fabric: global counters plus, per
  /// node, the pending pulses on each port, per-node sent/consumed, and
  /// the crash state — and, when a metrics registry is attached, the
  /// last-N progress samples the monitor recorded plus the full metrics
  /// snapshot. Safe to call at any time; intended for the watchdog path
  /// (monitor() returned false).
  std::string dump() const;

 private:
  friend class NodeIo;

  struct Node {
    mutable std::mutex mutex;
    std::condition_variable cv;
    std::uint64_t pending[2] = {0, 0};  // pulses queued per port
    InterestSet interest;  // what the next wait blocks on (under `mutex`)
    // Wiring: sending out of port p delivers to peer[p] at peer_port[p].
    sim::NodeId peer[2] = {0, 0};
    sim::Port peer_port[2] = {sim::Port::p0, sim::Port::p0};
    // Fault state. `crashed` gates delivery/consumption; `crash_epoch`
    // counts incarnations so stale NodeIo handles can be fenced off.
    // `acked_epoch` is the newest incarnation the worker thread has caught
    // up with (set by io() and await_recovery()). Quiescence detection
    // refuses to fire while any acked_epoch lags crash_epoch: the worker of
    // a freshly crashed/recovered node may still be counted idle (parked on
    // its condvar, not yet rescheduled) even though its restart — and the
    // fresh initial pulse that comes with it — is inevitable.
    std::atomic<bool> crashed{false};
    std::atomic<std::uint64_t> crash_epoch{0};
    std::atomic<std::uint64_t> acked_epoch{0};
    // Per-node traffic counters (for the watchdog dump).
    std::atomic<std::uint64_t> sent{0};
    std::atomic<std::uint64_t> consumed{0};
    // Blocking-wait probes (only written when a metrics registry is
    // attached; owned by the node's worker thread, read by the harness).
    std::atomic<std::uint64_t> wait_count{0};
    std::atomic<std::uint64_t> wait_ns{0};
    std::atomic<std::uint64_t> wait_max_ns{0};
    // Current algorithm phase (obs::Phase index), published by the worker
    // at transitions; read by dumps and the per-phase gauges.
    std::atomic<std::uint8_t> phase{0};
    // The wait probes again, attributed to the phase in force when the
    // wait began (metrics-gated writes, owner thread only).
    std::atomic<std::uint64_t> phase_wait_count[obs::kPhaseCount] = {};
    std::atomic<std::uint64_t> phase_wait_ns[obs::kPhaseCount] = {};
  };

  bool recv(sim::NodeId v, sim::Port p);
  void send(sim::NodeId v, sim::Port p);
  bool wait_any(sim::NodeId v);
  std::size_t pending(sim::NodeId v, sim::Port p) const;
  void set_phase(sim::NodeId v, obs::Phase p) {
    nodes_[v].phase.store(static_cast<std::uint8_t>(obs::index(p)),
                          std::memory_order_relaxed);
  }
  void broadcast_stop();
  void ack_epoch(sim::NodeId v, std::uint64_t epoch);
  bool all_epochs_acked() const;

  /// True iff the fabric currently looks fully quiet: every worker is
  /// accounted for (idle, parked awaiting recovery, or finished), every
  /// pulse sent has been consumed, and no crash epoch is unacknowledged.
  bool candidate_quiescent() const;

  /// Wakes the monitor iff the fabric just became a quiescence (or natural
  /// termination) candidate. Called from the counter-transition sites —
  /// going idle, finishing, parking for recovery, acking an epoch, crash
  /// bookkeeping — so idle detection is event-driven instead of the
  /// monitor polling on a fixed sleep. Cheap checks short-circuit first;
  /// notifying takes the (empty) monitor critical section so a wakeup can
  /// never slip between the monitor's predicate check and its wait.
  void maybe_notify_monitor();

  /// Appends one progress sample (called by the monitor loop) to the
  /// bounded history reported on stall.
  void record_progress_sample(double elapsed_ms);

  std::vector<Node> nodes_;
  obs::Registry* metrics_ = nullptr;
  // Armed together with metrics_ (set_metrics). Ring writers: "monitor" is
  // written only by the monitor() thread, "fabric" only by whichever single
  // thread drives the fault hooks (the chaos thread in run_on_threads).
  std::unique_ptr<obs::FlightRecorder> flight_;
  obs::FlightRing* flight_monitor_ = nullptr;
  obs::FlightRing* flight_fabric_ = nullptr;
  // Monitor wakeup channel: workers notify when the fabric becomes a
  // quiescence candidate; the monitor waits here (bounded by its sampling
  // cadence, so the watchdog and progress history keep their timing).
  std::mutex monitor_mutex_;
  std::condition_variable monitor_cv_;
  // Last-N progress snapshots from the monitor loop, for the stall
  // post-mortem: "was the run dead all along or did it die at t=X?".
  static constexpr std::size_t kProgressSamples = 16;
  ProgressTracker progress_{kProgressSamples};
  std::atomic<std::uint64_t> sent_{0};
  std::atomic<std::uint64_t> consumed_{0};
  std::atomic<std::size_t> idle_{0};
  std::atomic<std::size_t> awaiting_recovery_{0};
  std::atomic<std::size_t> finished_{0};
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> crash_count_{0};
  std::atomic<std::uint64_t> recovery_count_{0};
  std::atomic<std::uint64_t> crash_lost_{0};
  std::atomic<std::uint64_t> injected_{0};
};

}  // namespace colex::rt
