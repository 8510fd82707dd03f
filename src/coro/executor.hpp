// Work-stealing coroutine executor for ring elections (the tentpole of
// DESIGN.md "Coroutine runtime").
//
// Shape
// -----
// Every ring node is one lazily-started coroutine (runtime/port.hpp's
// ElectionTask) over a CoroIo port. recv()/send() are plain calls on the
// node table; wait_any() is the only awaitable. W worker threads each own a
// Chase-Lev deque of ready node indices; a worker pops LIFO from its own
// deque, steals FIFO round-robin from the others, and parks on a condition
// variable when the whole system has no ready work.
//
// Sleep/wake protocol (per node and port, Dekker-style, all seq_cst)
// -------------------------------------------------------------------
// A node waits on its *interest set*: the ports whose recv() came back
// empty since its previous wait (both ports if none did). The
// transcriptions poll every port their state can use and wait only after
// an iteration that made no progress, so a pulse on any other port cannot
// change what the node does next; it stays queued and wakes nobody.
//
//   consumer (the node, in await_suspend):   producer (a send to port q):
//     M <- interest set; interest <- {}        channel[q].produced += 1
//     state <- PARKED(M)                       s <- state
//     re-check channels in M / stop            if s == PARKED(M), q in M,
//     if pulse or stop:                           and CAS(state: s->READY):
//       if CAS(state: PARKED(M)->READY):          push node to own deque
//         push self to own deque               // otherwise the node is
//     suspend (return true)                    // READY/RUNNING/DONE (the
//                                              // pulse rides that wakeup)
//                                              // or parked elsewhere (the
//                                              // pulse waits for a poll)
//
// For each port q in M, seq_cst makes the consumer's state store and its
// re-check of q, and the producer's deposit on q and its state load, a
// Dekker pair: either the re-check sees the new pulse, or the producer
// sees PARKED(M) (or a later state, whose owner will re-poll q) — a pulse
// on a port in M can never slip between the last empty poll of q and the
// suspension (no lost wakeup). Once PARKED is published the frame belongs
// to whoever wins the CAS to READY, the parking node included: it never
// resumes itself inline, because a CAS(PARKED->RUNNING) cannot tell its
// own park from a later one of the same frame, already claimed and
// resumed on another worker (two workers would run one frame). The set
// comes from failed recv() calls, not from which channels are empty when
// the wait starts: a pulse that lands on a polled port between the poll
// and the wait must still be in M, or the re-check would skip it and the
// node could sleep on a pulse it needs.
// The CAS claims the wakeup exactly once, so a node is never
// double-resumed; pulses that arrive while the node is already READY
// coalesce into the pending wakeup (batched wakeups — counted, and
// harmless to the fault model because pulses are fungible: consuming k
// batched pulses one recv() at a time is indistinguishable from k separate
// wakeups).
//
// Quiescence (counter-based, worker-side)
// ---------------------------------------
// The stabilizing algorithms never terminate on their own; the harness
// stops them when the fabric is provably quiet. The last worker to park
// (idle == W under the park mutex) checks ready_count == 0 and global
// sent == consumed. Per-worker counters are relaxed, but every worker's
// idle transition is a seq_cst RMW on idle_workers_, so the RMW chain
// orders each worker's counter writes before the last parker's check
// (release sequence through the RMWs) — the sums are exact, not racy
// approximations. Natural termination (Algorithm 2) is detected separately
// by done_count == n at the moment the last node returns. A pulse sent to
// an already-terminated node is swallowed but counted consumed (same
// convention as ThreadRing's crashed-node swallow), keeping the
// conservation argument sound. A parked node that still holds a pulse on a
// port outside its interest set keeps sent != consumed, so every node
// parked with pulses unconsumed is a stall the watchdog reports, never
// quiescence.
//
// The driver thread is the stall watchdog: it waits on a completion cv
// with the ThreadRing monitor's sampling cadence, records a ProgressTracker
// history, and on timeout broadcasts stop and snapshots dump(). After the
// workers join, the driver resumes every unfinished coroutine once (with
// stop set, wait_any can no longer suspend), so all outcomes — stopped
// flags included — are collected exactly as run_on_threads reports them.
#pragma once

#include <atomic>
#include <condition_variable>
#include <coroutine>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "coro/deque.hpp"
#include "coro/ring.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "runtime/port.hpp"
#include "runtime/progress.hpp"
#include "sim/types.hpp"
#include "util/contracts.hpp"

namespace colex::coro {

struct ExecutorOptions {
  std::size_t workers = 1;
  std::uint64_t timeout_ms = 30'000;  ///< stall watchdog budget
  /// Optional caller-owned registry: per-worker registries are merged into
  /// it post-join (obs single-writer contract; never written concurrently).
  obs::Registry* metrics = nullptr;
};

/// Aggregated executor telemetry (always on: plain per-worker counters,
/// summed post-run; independent of the obs registry).
struct ExecStats {
  std::uint64_t sent = 0;       ///< pulses deposited on channels
  std::uint64_t consumed = 0;   ///< pulses taken off channels
  std::uint64_t swallowed = 0;  ///< pulses to already-terminated nodes
  std::uint64_t resumes = 0;    ///< coroutine resumptions
  std::uint64_t steals = 0;     ///< successful cross-deque steals
  std::uint64_t parks = 0;      ///< worker condvar parks
  std::uint64_t wakeups = 0;    ///< PARKED->READY transitions claimed
  std::uint64_t batched = 0;    ///< pulses that claimed no wakeup
  /// Always 0: the executor has no yield path since waits park on the
  /// interest set. Kept only because colexbench/src/coro_ring.cpp reads
  /// it; goes with the next change that may edit colexbench/.
  std::uint64_t yields = 0;
  std::size_t workers = 0;
};

class CoroIo;

/// Per-execution-context (worker or drain driver) counters: written only by
/// the owning thread (relaxed load+store, never RMW), read by others only
/// behind a happens-before edge (idle RMW chain, join).
struct alignas(kCacheLine) WorkerStats {
  std::atomic<std::uint64_t> sent{0};
  std::atomic<std::uint64_t> consumed{0};
  std::atomic<std::uint64_t> swallowed{0};
  std::atomic<std::uint64_t> resumes{0};
  std::atomic<std::uint64_t> steals{0};
  std::atomic<std::uint64_t> parks{0};
  std::atomic<std::uint64_t> wakeups{0};
  std::atomic<std::uint64_t> batched{0};
};

/// One execution context — a worker, or the driver's post-stop drain:
/// which deque send_pulse() pushes wakeups to and which stats slot it owns.
/// run_node hands it to the node it resumes (CoroNode::ctx), and the
/// node-side operations reach it there. Not through a thread_local: GCC may
/// keep a thread_local's address computed before a co_await in the frame
/// and reuse it after the coroutine resumes on another thread.
struct ExecContext {
  WorkerStats* stats;
  WorkDeque* deque;
  std::size_t index;
  /// Set by a wait that suspended during the current run_node resume.
  bool suspended = false;
};

class Executor {
 public:
  Executor(std::size_t n, const std::vector<bool>& port_flips,
           ExecutorOptions options);

  std::size_t size() const { return nodes_.size(); }
  std::size_t workers() const { return worker_count_; }

  /// Port handle for node `v` (hand to spawn_alg / the template algorithms).
  CoroIo io(std::uint32_t v);

  /// Registers node `v`'s coroutine. All n nodes must be bound before run().
  void bind(std::uint32_t v, std::coroutine_handle<> h) {
    COLEX_EXPECTS(!nodes_[v].handle);
    nodes_[v].handle = h;
  }

  /// Seeds every node ready, drives the run to completion (quiescence,
  /// all-terminated, or watchdog timeout), joins the workers, and finishes
  /// every coroutine. Returns true unless the watchdog fired (then
  /// stall_dump() holds the post-mortem).
  bool run();

  bool timed_out() const { return timed_out_; }
  /// True when the run ended by counter-based quiescence detection (vs
  /// every node terminating on its own).
  bool quiescent() const { return quiescent_.load(); }
  const std::string& stall_dump() const { return stall_dump_; }

  std::uint64_t total_sent() const { return sum(&WorkerStats::sent); }
  std::uint64_t total_consumed() const {
    return sum(&WorkerStats::consumed) + sum(&WorkerStats::swallowed);
  }
  ExecStats stats() const;

  /// Human-readable post-mortem: global counters, scheduler state, any
  /// anomalous nodes (pending pulses / not parked), progress history, and
  /// the metrics snapshot when a registry is attached. Intended post-run
  /// or from the watchdog path.
  std::string dump() const;

  // --- node-side operations (called from coroutine bodies) --------------

  bool recv_pulse(std::uint32_t v, sim::Port p) {
    auto& nd = nodes_[v];
    if (!nd.in[sim::index(p)].try_consume()) {
      nd.interest.missed(p);
      return false;
    }
    auto& consumed = nd.ctx->stats->consumed;
    consumed.store(consumed.load(std::memory_order_relaxed) + 1,
                   std::memory_order_relaxed);
    return true;
  }

  void send_pulse(std::uint32_t v, sim::Port p) {
    auto& src = nodes_[v];
    const std::uint32_t to = src.peer[sim::index(p)];
    auto& dst = nodes_[to];
    const std::uint8_t q = src.peer_port[sim::index(p)];
    dst.in[q].produce();  // seq_cst deposit
    ExecContext& ctx = *src.ctx;
    auto& stats = *ctx.stats;
    stats.sent.store(stats.sent.load(std::memory_order_relaxed) + 1,
                     std::memory_order_relaxed);
    NodeState expected = dst.state.load(std::memory_order_seq_cst);
    if (wakes(expected, 1u << q) && claim(ctx, to, expected)) return;
    if (expected == NodeState::done) {
      // Swallowed (receiver terminated): total_consumed() counts these so
      // conservation-based quiescence stays sound — mirror of ThreadRing's
      // crashed-node convention.
      stats.swallowed.store(
          stats.swallowed.load(std::memory_order_relaxed) + 1,
          std::memory_order_relaxed);
    } else {
      // READY or RUNNING: the pulse rides the receiver's existing wakeup;
      // parked on the other port: it waits until the node polls q again.
      stats.batched.store(stats.batched.load(std::memory_order_relaxed) + 1,
                          std::memory_order_relaxed);
    }
  }

  /// Publishes node `v`'s current algorithm phase: a relaxed store on the
  /// node's own cache line, read by stall dumps and the per-phase node
  /// distribution gauges. Always cheap enough to leave unconditional.
  void set_node_phase(std::uint32_t v, obs::Phase p) {
    nodes_[v].phase.store(static_cast<std::uint8_t>(obs::index(p)),
                          std::memory_order_relaxed);
  }

  /// Flight recorder (armed iff a metrics registry is attached; nullptr
  /// otherwise — zero-overhead-when-off). One ring per execution context.
  const obs::FlightRecorder* flight() const { return flight_.get(); }

  bool stopping() const { return stop_.load(std::memory_order_seq_cst); }
  /// True iff node `v` parked on `mask` must not stay suspended.
  bool node_ready_check(std::uint32_t v, std::uint32_t mask) const {
    return nodes_[v].has_pending(mask) || stopping();
  }

  /// The awaitable behind CoroIo::wait_any() — see the protocol in the
  /// file header. await_suspend copies its members to locals before any
  /// state publication: the moment a store lands, another thread may resume
  /// (and even finish) the coroutine, destroying this awaiter with it.
  struct WaitAnyAwaiter {
    Executor* ex;
    std::uint32_t v;

    // Stop short-circuits suspension entirely: the post-join drain relies
    // on wait_any never suspending (and returning false) once stop_ is set.
    bool await_ready() const noexcept { return ex->stopping(); }
    void await_suspend(std::coroutine_handle<>) noexcept {
      Executor* const e = ex;  // frame (and *this) may die after a store
      const std::uint32_t self = v;
      auto& nd = e->nodes_[self];
      ExecContext& ctx = *nd.ctx;  // a claimant's run_node rewrites nd.ctx
      const std::uint32_t mask = nd.interest.take();
      NodeState parked = parked_on(mask);
      // Past the state store the frame belongs to whoever claims the
      // wakeup, this thread included: a pulse (or stop) that raced the park
      // is answered by claiming it like a producer, never by resuming
      // inline — an inline CAS(PARKED->RUNNING) could land on a later park
      // of the same frame already resumed by another worker.
      ctx.suspended = true;
      nd.state.store(parked, std::memory_order_seq_cst);
      if (e->node_ready_check(self, mask)) e->claim(ctx, self, parked);
    }
    // False only on stop (ThreadRing's wait_any contract): the algorithms
    // treat false as "stopped, record and co_return", which is exactly how
    // the drain unwinds nodes that still hold unconsumable pulses. True
    // does NOT promise a pulse — wakeups can be spurious: a producer's
    // produce -> CAS window may straddle the consumer's whole
    // claim/resume/consume/re-park cycle, landing the CAS on a later park
    // whose channels are already empty. The algorithms re-poll and wait
    // again, exactly as they do after a ThreadRing condvar wake.
    bool await_resume() const noexcept { return !ex->stopping(); }
  };

 private:
  void worker_main(std::size_t w);
  void run_node(ExecContext& ctx, std::uint32_t v);
  /// Parks the calling worker; the last to park runs quiescence detection.
  void park_worker(ExecContext& ctx);
  void signal_stop();
  void wake_one_worker();

  /// Claims the wakeup of node `v`, parked as `parked`: CAS(PARKED->READY),
  /// then push it on `ctx`'s deque. Exactly the claimant pushes, once per
  /// transition. On failure `parked` holds the state the CAS found.
  bool claim(ExecContext& ctx, std::uint32_t v, NodeState& parked) {
    if (!nodes_[v].state.compare_exchange_strong(parked, NodeState::ready,
                                                 std::memory_order_seq_cst,
                                                 std::memory_order_seq_cst)) {
      return false;
    }
    ready_count_.fetch_add(1, std::memory_order_seq_cst);
    ctx.deque->push(v);
    auto& wakeups = ctx.stats->wakeups;
    wakeups.store(wakeups.load(std::memory_order_relaxed) + 1,
                  std::memory_order_relaxed);
    if (idle_workers_.load(std::memory_order_seq_cst) != 0) wake_one_worker();
    return true;
  }
  void drain();
  void record_progress_sample(double elapsed_ms);
  void publish_metrics(const std::vector<obs::Registry>& worker_registries);

  /// Records a cold-path scheduler event on execution context `ctx`'s
  /// flight ring (no-op when the recorder is off). Single-writer per ring:
  /// context i only ever writes flight_rings_[i].
  void flight_record(std::size_t ctx, const char* what, std::uint64_t a = 0,
                     std::uint64_t b = 0) {
    if (flight_ != nullptr) flight_rings_[ctx]->record(what, a, b);
  }

  std::uint64_t sum(std::atomic<std::uint64_t> WorkerStats::*field) const {
    std::uint64_t total = 0;
    for (const auto& s : stats_) {
      total += (s.*field).load(std::memory_order_seq_cst);
    }
    return total;
  }

  std::vector<CoroNode> nodes_;
  ExecutorOptions options_;
  std::size_t worker_count_;
  // One deque per worker plus one for the driver's post-stop drain.
  std::vector<std::unique_ptr<WorkDeque>> deques_;
  std::vector<WorkerStats> stats_;  // worker_count_ + 1 slots
  // Flight recorder: rings "worker.0".."worker.W-1" plus "driver" (watchdog
  // + drain events). Created in the constructor, before any worker spawns.
  std::unique_ptr<obs::FlightRecorder> flight_;
  std::vector<obs::FlightRing*> flight_rings_;  // worker_count_ + 1 slots

  std::atomic<std::uint64_t> ready_count_{0};
  std::atomic<std::size_t> idle_workers_{0};
  std::atomic<std::size_t> done_count_{0};
  std::atomic<bool> stop_{false};
  std::atomic<bool> quiescent_{false};
  bool timed_out_ = false;  // driver-owned
  std::string stall_dump_;  // driver-owned

  std::mutex park_mutex_;
  std::condition_variable park_cv_;  // workers wait for ready work
  std::condition_variable done_cv_;  // driver waits for completion
  static constexpr std::size_t kProgressSamples = 16;
  rt::ProgressTracker progress_{kProgressSamples};
};

/// The coroutine runtime's PulsePort: a 12-byte handle into the executor's
/// node table. recv/send never block; wait_any parks the node coroutine.
class CoroIo {
 public:
  CoroIo(Executor& ex, std::uint32_t v) : ex_(&ex), v_(v) {}

  bool recv(sim::Port p) { return ex_->recv_pulse(v_, p); }
  void send(sim::Port p) { ex_->send_pulse(v_, p); }
  /// Phase-publication extension (detected by the transcriptions via
  /// `requires { io.set_phase(p); }`, same as BlockingPortAdapter).
  void set_phase(obs::Phase p) { ex_->set_node_phase(v_, p); }
  Executor::WaitAnyAwaiter wait_any() {
    return Executor::WaitAnyAwaiter{ex_, v_};
  }

 private:
  Executor* ex_;
  std::uint32_t v_;
};

static_assert(rt::PulsePort<CoroIo>);

inline CoroIo Executor::io(std::uint32_t v) { return CoroIo(*this, v); }

}  // namespace colex::coro
