// The execution-model seam shared by ThreadRing, the coroutine runtime
// (src/coro), and the socket backend (src/net): one coroutine task type,
// one per-node outcome record, and one run-result shape, over the
// Transport/PulsePort concepts of runtime/transport.hpp.
//
// The paper's pseudocode is transcribed once, as a template coroutine over a
// `PulsePort` (blocking_algs.hpp). The only operation that can block is
// wait_any(), so it is the only awaitable; recv()/send() are plain calls.
// On the coroutine runtime the awaitable parks the node until a pulse
// lands on a port of its interest set (runtime/transport.hpp: the ports
// whose recv() came back empty since its previous wait). On the blocking
// substrates (ThreadRing, src/net), TransportPort performs the blocking
// wait inside await_ready() and never suspends — the coroutine therefore
// runs to completion in one resume, byte-for-byte the old blocking
// behavior, on the thread that resumed it. Every substrate waits on the
// same interest set, so the transcriptions see one contract.
#pragma once

#include <array>
#include <concepts>
#include <coroutine>
#include <cstdint>
#include <exception>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "co/oriented.hpp"
#include "co/roles.hpp"
#include "obs/metrics.hpp"
#include "obs/phase.hpp"
#include "runtime/thread_ring.hpp"
#include "runtime/transport.hpp"
#include "sim/types.hpp"
#include "util/contracts.hpp"

namespace colex::rt {

/// Per-node outcome of a blocking-style run (either runtime).
struct BlockingOutcome {
  std::uint64_t id = 0;
  co::Role role = co::Role::undecided;
  co::PulseCounters counters;          ///< oriented algorithms
  std::uint64_t rho_port[2] = {0, 0};  ///< Algorithm 3
  std::uint64_t sigma_port[2] = {0, 0};
  sim::Port cw_port = sim::Port::p1;   ///< Algorithm 3 orientation output
  bool terminated = false;  ///< returned via the algorithm's own exit (Alg 2)
  bool stopped = false;     ///< harness stop (quiescence) ended the run
  /// Times this node crash-recovered and re-ran its algorithm from scratch.
  /// A node that crashed and never recovered reports a default outcome with
  /// `stopped` set: its local state died with it.
  std::uint64_t restarts = 0;
  /// Pulses sent and blocking waits entered, attributed to the algorithm
  /// phase the node was in at the time (obs/phase.hpp). Plain coroutine
  /// locals — always-on, deterministic, and free of synchronization; the
  /// harnesses merge them post-join into per-phase registry series.
  std::array<std::uint64_t, obs::kPhaseCount> phase_sends{};
  std::array<std::uint64_t, obs::kPhaseCount> phase_waits{};
};

/// Folds the outcomes' per-phase send tallies into `registry` as
/// `<sends_family>{phase=...}` counter series (and, when `waits_family` is
/// non-null, the per-phase wait tallies too). Post-join only — the
/// registry's single-writer contract.
inline void publish_phase_pulses(obs::Registry& registry,
                                 const std::string& sends_family,
                                 const std::vector<BlockingOutcome>& outcomes,
                                 const char* waits_family = nullptr) {
  std::array<std::uint64_t, obs::kPhaseCount> sends{};
  std::array<std::uint64_t, obs::kPhaseCount> waits{};
  for (const auto& out : outcomes) {
    for (std::size_t i = 0; i < obs::kPhaseCount; ++i) {
      sends[i] += out.phase_sends[i];
      waits[i] += out.phase_waits[i];
    }
  }
  for (std::size_t i = 0; i < obs::kPhaseCount; ++i) {
    const char* name = obs::phase_name(i);
    registry.counter(obs::labeled(sends_family, "phase", name)).inc(sends[i]);
    if (waits_family != nullptr) {
      registry.counter(obs::labeled(waits_family, "phase", name))
          .inc(waits[i]);
    }
  }
}

/// The substrate-agnostic result of one blocking-style run: every backend
/// that drives the transcriptions to completion (ThreadRing, the coroutine
/// executor, the socket fabric) reports this same shape, which is what
/// makes the cross-substrate conformance suite a field-by-field comparison.
/// Backends extend it with their substrate-specific telemetry
/// (ThreadRunResult adds fault counters, CoroRunResult scheduler stats,
/// net::SocketRunResult wire counters).
struct TransportRunResult {
  std::vector<BlockingOutcome> outcomes;
  std::uint64_t pulses = 0;  ///< total pulses sent on the fabric
  bool completed = false;    ///< quiescence or natural termination
  std::size_t leader_count = 0;
  std::optional<sim::NodeId> leader;
  /// Non-empty iff the run failed to settle (`completed == false`): the
  /// substrate's post-mortem, so a stalled run aborts with evidence.
  std::string stall_dump;
};

/// Folds `outcomes` into the leader tally fields (co::tally_leaders).
inline void tally_leaders(TransportRunResult& r) {
  co::tally_leaders(r, r.outcomes.size(),
                    [&r](std::size_t v) { return r.outcomes[v].role; });
}

/// Coroutine handle for one node's election run. Lazy-started: the creator
/// decides when (and on which thread) the body first runs. The outcome is
/// stored in the promise and read after completion via outcome().
class ElectionTask {
 public:
  struct promise_type {
    BlockingOutcome outcome;
    std::exception_ptr error;

    ElectionTask get_return_object() {
      return ElectionTask(
          std::coroutine_handle<promise_type>::from_promise(*this));
    }
    std::suspend_always initial_suspend() noexcept { return {}; }
    std::suspend_always final_suspend() noexcept { return {}; }
    void return_value(BlockingOutcome out) { outcome = out; }
    // Contract violations throw (util/contracts.hpp); park the exception in
    // the promise so the driver rethrows it where the caller can see it.
    void unhandled_exception() { error = std::current_exception(); }
  };
  using Handle = std::coroutine_handle<promise_type>;

  ElectionTask() = default;
  explicit ElectionTask(Handle h) : handle_(h) {}
  ElectionTask(ElectionTask&& other) noexcept
      : handle_(std::exchange(other.handle_, {})) {}
  ElectionTask& operator=(ElectionTask&& other) noexcept {
    if (this != &other) {
      destroy();
      handle_ = std::exchange(other.handle_, {});
    }
    return *this;
  }
  ElectionTask(const ElectionTask&) = delete;
  ElectionTask& operator=(const ElectionTask&) = delete;
  ~ElectionTask() { destroy(); }

  Handle handle() const { return handle_; }
  bool done() const { return handle_ && handle_.done(); }
  /// Rethrows an exception that escaped the algorithm body, if any.
  void rethrow_if_error() const {
    if (handle_ && handle_.promise().error) {
      std::rethrow_exception(handle_.promise().error);
    }
  }
  /// The node's result; only meaningful once done().
  const BlockingOutcome& outcome() const {
    COLEX_EXPECTS(done());
    rethrow_if_error();
    return handle_.promise().outcome;
  }

 private:
  void destroy() {
    if (handle_) handle_.destroy();
    handle_ = {};
  }
  Handle handle_;
};

// NodeIo models the transport seam natively (wait blocks on the node's
// condition variable; stop/crash make it return false), so the ThreadRing
// PulsePort is just the generic blocking adapter instantiated over it. The
// socket backend (src/net) plugs its endpoint handle into the exact same
// template — that is the whole point of the seam.
static_assert(Transport<NodeIo>);

/// ThreadRing-side PulsePort: TransportPort over a NodeIo, so the template
/// coroutine transcriptions run on it unchanged. The wait_any() awaitable
/// blocks inside await_ready() (on the node's condition variable, via
/// NodeIo::wait) and always reports ready, so the coroutine never actually
/// suspends — resuming it once runs the algorithm to completion exactly as
/// the plain blocking function did.
using BlockingPortAdapter = TransportPort<NodeIo>;

static_assert(PulsePort<BlockingPortAdapter>);

/// Runs a lazily-started ElectionTask whose port never suspends (e.g. over
/// BlockingPortAdapter) to completion on the calling thread and returns the
/// outcome.
inline BlockingOutcome drive_blocking(ElectionTask task) {
  task.handle().resume();
  COLEX_ENSURES(task.done());
  return task.outcome();
}

}  // namespace colex::rt
