// The transport seam extracted from the three original pulse-plumbing
// stacks (sim::Network's delivery queues, ThreadRing's condvar ports, the
// coroutine executor's SPSC channels), so a fourth substrate — real sockets
// (src/net) — can host the very same algorithm transcriptions without
// touching them.
//
// Two layers:
//
//  * `Transport` — what a substrate must provide per node: non-blocking
//    recv/send on the node's two ports, a *blocking* wait() for the next
//    pulse (false means the harness stopped the run: global quiescence was
//    detected, the watchdog fired, or the endpoint failed), a stopped()
//    probe, and an idempotent shutdown() hook for teardown. ThreadRing's
//    NodeIo models it natively; src/net's socket endpoint models it by
//    pumping its file descriptors inside wait().
//
//  * `PulsePort` — what an algorithm transcription compiles against
//    (runtime/blocking_algs.hpp): recv/send plus an *awaitable* wait_any().
//    TransportPort<T> turns any Transport into a PulsePort by performing
//    the blocking wait inside await_ready() and never suspending — the
//    coroutine runs to completion in one resume on whatever thread drives
//    it, byte-for-byte the plain blocking behavior. The coroutine executor's
//    CoroIo is the other PulsePort flavor: its wait_any() genuinely
//    suspends, which is what lets a million nodes share a few workers.
//
// wait()/wait_any() share one contract: a false result means "stopped —
// record your outcome and return"; true does NOT promise a pulse (wakeups
// may be spurious: a condvar wake on ThreadRing, a stale producer CAS on
// the executor, a control-plane message on sockets), so transcriptions
// re-poll recv() and wait again.
//
// Interest sets: a wait blocks until a pulse lands on a port of the node's
// *interest set* — the ports whose recv() came back empty since the node's
// previous wait, or both ports if none did (InterestSet below). A pulse on
// any other port stays queued and neither ends the wait nor wakes the
// node. This is exact for every transcription in blocking_algs.hpp, which
// meet three conditions: each loop iteration polls every port the node's
// current state can use; a wait follows only an iteration that made no
// progress; and which ports are polled is a function of local state that
// only progress changes. So between a wait and the next progress the node
// polls the same ports, a port it skipped cannot change what it does
// next, and a pulse there is found the next time its state polls that
// port (Algorithm 2 reads CCW pulses only once rho_cw >= id, and its
// initiated wait reads CCW only). The set is taken from failed recv()
// calls, never from which queues are empty when the wait starts: a pulse
// landing on a polled port between the poll and the wait must keep that
// port in the set, or the wait would sleep on a pulse the node needs.
#pragma once

#include <concepts>
#include <coroutine>
#include <cstdint>
#include <utility>

#include "obs/phase.hpp"
#include "sim/types.hpp"

namespace colex::rt {

/// A node's interest set (see the file header): the ports whose recv()
/// came back empty since its previous wait. Each substrate keeps one per
/// node, records every empty recv() and takes the set when a wait starts.
class InterestSet {
 public:
  static constexpr unsigned kBoth = 3;
  static constexpr unsigned bit(sim::Port p) { return 1u << sim::index(p); }

  /// Records that recv(p) came back empty.
  void missed(sim::Port p) {
    bits_ = static_cast<std::uint8_t>(bits_ | bit(p));
  }
  /// The port mask the wait now starting blocks on — both ports if no
  /// recv() came back empty — and starts the next interval empty.
  unsigned take() {
    const unsigned mask = bits_ != 0 ? bits_ : kBoth;
    bits_ = 0;
    return mask;
  }

 private:
  std::uint8_t bits_ = 0;
};

/// True iff `queued` (pulses per port) holds one on a port in `mask`.
inline bool arrived(unsigned mask, const std::uint64_t (&queued)[2]) {
  return ((mask & 1u) != 0 && queued[0] != 0) ||
         ((mask & 2u) != 0 && queued[1] != 0);
}

/// Per-node endpoint contract of an execution substrate. recv/send never
/// block; wait() blocks until a pulse may be available on a port of the
/// node's interest set or the harness stopped the run (false). shutdown()
/// releases the endpoint's resources and must be idempotent — harness
/// teardown paths may race a node's own exit, so calling it twice (or
/// after a failed formation) is legal.
template <class T>
concept Transport = requires(T t, sim::Port p) {
  { t.recv(p) } -> std::convertible_to<bool>;
  t.send(p);
  { t.wait() } -> std::convertible_to<bool>;
  { t.stopped() } -> std::convertible_to<bool>;
  t.shutdown();
};

/// The port interface an algorithm transcription compiles against:
/// non-blocking receive, send, and an *awaitable* wait for the next pulse
/// on a port of the node's interest set (which the harness can interrupt
/// once global quiescence is certain).
/// wait_any()'s awaitable must resume with `bool`: false when the harness
/// stopped the run, true otherwise. True does NOT promise a pulse —
/// wakeups may be spurious, so transcriptions re-poll recv() and wait
/// again.
template <class Io>
concept PulsePort = requires(Io io, sim::Port p) {
  { io.recv(p) } -> std::convertible_to<bool>;
  io.send(p);
  io.wait_any();  // awaitable; resumes with bool
};

/// Adapts any Transport into a blocking-flavor PulsePort: the wait_any()
/// awaitable performs the blocking Transport::wait() inside await_ready()
/// and always reports ready, so the coroutine never actually suspends —
/// resuming it once runs the algorithm to completion exactly as a plain
/// blocking function would, on the thread that resumed it.
///
/// T is held by value: substrate handles (NodeIo, src/net's EndpointIo)
/// are small copyable views into fabric-owned state, mirroring CoroIo.
template <Transport T>
class TransportPort {
 public:
  explicit TransportPort(T t) : t_(std::move(t)) {}

  bool recv(sim::Port p) { return t_.recv(p); }
  void send(sim::Port p) { t_.send(p); }
  /// Publishes the node's current algorithm phase when the underlying
  /// transport supports it. Transcriptions detect this extension via
  /// `requires { io.set_phase(p); }` — transports without it still satisfy
  /// Transport, and the constrained member simply drops out.
  void set_phase(obs::Phase p)
    requires requires(T& t) { t.set_phase(p); }
  {
    t_.set_phase(p);
  }

  struct WaitAnyAwaiter {
    T& t;
    bool result = false;
    bool await_ready() {
      result = t.wait();  // the blocking wait happens here
      return true;        // never suspend
    }
    void await_suspend(std::coroutine_handle<>) {}
    bool await_resume() const { return result; }
  };
  WaitAnyAwaiter wait_any() { return WaitAnyAwaiter{t_}; }

  /// The wrapped transport (harness-side access to counters/teardown).
  T& transport() { return t_; }

 private:
  T t_;
};

}  // namespace colex::rt
