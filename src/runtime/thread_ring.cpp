#include "runtime/thread_ring.hpp"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <thread>

namespace colex::rt {

bool NodeIo::dead() const { return ring_.crash_epoch(self_) != epoch_; }

bool NodeIo::stopped() const { return ring_.stopped() || dead(); }

bool NodeIo::recv(sim::Port p) {
  if (dead()) return false;
  return ring_.recv(self_, p);
}
std::size_t NodeIo::pending(sim::Port p) const {
  return ring_.pending(self_, p);
}
void NodeIo::send(sim::Port p) {
  // A crashed incarnation cannot transmit; the pulse vanishes with the node.
  if (dead()) return;
  ring_.send(self_, p);
}
bool NodeIo::wait_any() {
  if (dead()) return false;
  return ring_.wait_any(self_);
}
void NodeIo::set_phase(obs::Phase p) {
  if (dead()) return;
  ring_.set_phase(self_, p);
}

ThreadRing::ThreadRing(std::size_t n, std::vector<bool> port_flips)
    : nodes_(n) {
  COLEX_EXPECTS(n >= 1);
  COLEX_EXPECTS(port_flips.empty() || port_flips.size() == n);
  for (sim::NodeId i = 0; i < n; ++i) {
    const sim::NodeId j = (i + 1) % n;
    const sim::Port from = sim::successor_port(port_flips, i);
    const sim::Port to = sim::opposite(sim::successor_port(port_flips, j));
    nodes_[i].peer[sim::index(from)] = j;
    nodes_[i].peer_port[sim::index(from)] = to;
    nodes_[j].peer[sim::index(to)] = i;
    nodes_[j].peer_port[sim::index(to)] = from;
  }
}

bool ThreadRing::recv(sim::NodeId v, sim::Port p) {
  auto& node = nodes_[v];
  std::lock_guard<std::mutex> lock(node.mutex);
  if (node.crashed.load()) return false;
  auto& q = node.pending[sim::index(p)];
  if (q == 0) {
    node.interest.missed(p);
    return false;
  }
  --q;
  consumed_.fetch_add(1);
  node.consumed.fetch_add(1);
  return true;
}

void ThreadRing::send(sim::NodeId v, sim::Port p) {
  auto& self = nodes_[v];
  // A crashed node transmits nothing, even if the caller's io handle was
  // minted in the current epoch (crash landed before its first operation).
  if (self.crashed.load()) return;
  const sim::NodeId to = self.peer[sim::index(p)];
  const sim::Port to_port = self.peer_port[sim::index(p)];
  auto& dest = nodes_[to];
  {
    std::lock_guard<std::mutex> lock(dest.mutex);
    // sent_ is incremented inside the destination lock so that any observer
    // seeing sent_ == consumed_ is guaranteed no pulse is pending anywhere.
    sent_.fetch_add(1);
    self.sent.fetch_add(1);
    if (dest.crashed.load()) {
      // Delivery to a crashed node is swallowed. It still counts as
      // consumed so the conservation argument behind quiescence detection
      // stays sound (otherwise a permanently crashed node would read as a
      // forever-in-flight pulse and the run could never complete).
      consumed_.fetch_add(1);
      dest.consumed.fetch_add(1);
      crash_lost_.fetch_add(1);
      return;
    }
    ++dest.pending[sim::index(to_port)];
  }
  dest.cv.notify_all();
}

std::size_t ThreadRing::pending(sim::NodeId v, sim::Port p) const {
  const auto& node = nodes_[v];
  std::lock_guard<std::mutex> lock(node.mutex);
  return static_cast<std::size_t>(node.pending[sim::index(p)]);
}

bool ThreadRing::wait_any(sim::NodeId v) {
  auto& node = nodes_[v];
  std::unique_lock<std::mutex> lock(node.mutex);
  if (node.crashed.load()) return false;
  // Pulses on ports outside the interest set stay queued and neither end
  // the wait nor satisfy its predicate.
  const unsigned mask = node.interest.take();
  if (arrived(mask, node.pending)) return true;
  if (stop_.load()) return false;
  // Wake on any epoch movement, not just `crashed`: a back-to-back
  // crash()+recover() can clear the flag before this thread re-evaluates
  // the predicate, and waiting on `crashed` alone would re-sleep through
  // the whole crash — the incarnation would never notice it died.
  const std::uint64_t e0 = node.crash_epoch.load();
  const bool timed = metrics_ != nullptr;
  const auto wait_start =
      timed ? std::chrono::steady_clock::now()
            : std::chrono::steady_clock::time_point{};
  idle_.fetch_add(1);
  // This idle transition may be the one that completes global quiescence
  // (all accounted + sent==consumed): tell the monitor instead of letting
  // it find out on its next polling tick.
  maybe_notify_monitor();
  node.cv.wait(lock, [&node, this, e0, mask] {
    return arrived(mask, node.pending) || stop_.load() ||
           node.crash_epoch.load() != e0;
  });
  idle_.fetch_sub(1);
  if (timed) {
    const auto blocked = std::chrono::duration_cast<std::chrono::nanoseconds>(
                             std::chrono::steady_clock::now() - wait_start)
                             .count();
    const auto ns = static_cast<std::uint64_t>(blocked);
    node.wait_count.fetch_add(1);
    node.wait_ns.fetch_add(ns);
    const std::size_t phase = node.phase.load(std::memory_order_relaxed);
    node.phase_wait_count[phase].fetch_add(1, std::memory_order_relaxed);
    node.phase_wait_ns[phase].fetch_add(ns, std::memory_order_relaxed);
    // Monotonic max; only this node's worker writes, so a plain CAS loop
    // converges immediately.
    std::uint64_t cur = node.wait_max_ns.load();
    while (cur < ns && !node.wait_max_ns.compare_exchange_weak(cur, ns)) {
    }
  }
  return arrived(mask, node.pending);
}

void ThreadRing::crash(sim::NodeId v) {
  auto& node = nodes_[v];
  std::uint64_t lost = 0;
  {
    std::lock_guard<std::mutex> lock(node.mutex);
    COLEX_EXPECTS(!node.crashed.load());
    node.crashed.store(true);
    node.crash_epoch.fetch_add(1);
    lost = node.pending[0] + node.pending[1];
    node.pending[0] = 0;
    node.pending[1] = 0;
    // The lost pulses count as consumed: they are gone from the fabric.
    consumed_.fetch_add(lost);
    node.consumed.fetch_add(lost);
  }
  crash_lost_.fetch_add(lost);
  crash_count_.fetch_add(1);
  if (flight_fabric_ != nullptr) flight_fabric_->record("crash", v, lost);
  node.cv.notify_all();
  // Swallowing the pending pulses may have closed the sent==consumed gap.
  maybe_notify_monitor();
}

void ThreadRing::recover(sim::NodeId v) {
  auto& node = nodes_[v];
  {
    std::lock_guard<std::mutex> lock(node.mutex);
    COLEX_EXPECTS(node.crashed.load());
    node.crashed.store(false);
    // The fresh incarnation restarts its algorithm from scratch — reset the
    // published phase with it.
    node.phase.store(0, std::memory_order_relaxed);
  }
  recovery_count_.fetch_add(1);
  if (flight_fabric_ != nullptr) flight_fabric_->record("recover", v);
  node.cv.notify_all();
}

bool ThreadRing::await_recovery(sim::NodeId v) {
  auto& node = nodes_[v];
  std::unique_lock<std::mutex> lock(node.mutex);
  // Parking counts as catching up with the crash: a permanently crashed
  // node must not block quiescence detection forever.
  ack_epoch(v, node.crash_epoch.load());
  awaiting_recovery_.fetch_add(1);
  maybe_notify_monitor();
  node.cv.wait(lock, [&node, this] {
    return !node.crashed.load() || stop_.load();
  });
  awaiting_recovery_.fetch_sub(1);
  return !stop_.load() && !node.crashed.load();
}

void ThreadRing::inject_pulse(sim::NodeId to, sim::Port p) {
  auto& dest = nodes_[to];
  {
    std::lock_guard<std::mutex> lock(dest.mutex);
    COLEX_EXPECTS(!dest.crashed.load());
    sent_.fetch_add(1);
    ++dest.pending[sim::index(p)];
  }
  injected_.fetch_add(1);
  if (flight_fabric_ != nullptr) {
    flight_fabric_->record("inject", to,
                           static_cast<std::uint64_t>(sim::index(p)));
  }
  dest.cv.notify_all();
}

void ThreadRing::ack_epoch(sim::NodeId v, std::uint64_t epoch) {
  // Monotonic max: a stale io() handle minted concurrently with a crash
  // must not roll the acknowledgement backwards.
  auto& acked = nodes_[v].acked_epoch;
  std::uint64_t cur = acked.load();
  while (cur < epoch && !acked.compare_exchange_weak(cur, epoch)) {
  }
  // Catching up with an incarnation can be the last gate quiescence
  // detection was waiting on (all_epochs_acked).
  maybe_notify_monitor();
}

bool ThreadRing::all_epochs_acked() const {
  for (const auto& node : nodes_) {
    if (node.acked_epoch.load() < node.crash_epoch.load()) return false;
  }
  return true;
}

void ThreadRing::broadcast_stop() {
  stop_.store(true);
  for (auto& node : nodes_) {
    std::lock_guard<std::mutex> lock(node.mutex);
    node.cv.notify_all();
  }
}

void ThreadRing::record_progress_sample(double elapsed_ms) {
  const std::uint64_t consumed = consumed_.load();
  std::ostringstream os;
  os << "t=" << static_cast<std::uint64_t>(elapsed_ms)
     << "ms sent=" << sent_.load() << " consumed=" << consumed
     << " idle=" << idle_.load()
     << " awaiting-recovery=" << awaiting_recovery_.load()
     << " finished=" << finished_.load();
  // The consumed count is the progress indicator: it moves on every pulse
  // absorbed anywhere in the fabric, so a flat tail means a genuine stall.
  progress_.record(consumed, os.str());
  if (flight_monitor_ != nullptr) {
    flight_monitor_->record("progress", consumed, idle_.load());
  }
}

void ThreadRing::publish_metrics() const {
  if (metrics_ == nullptr) return;
  obs::Registry& reg = *metrics_;
  reg.counter("rt.sent").inc(sent_.load());
  reg.counter("rt.consumed").inc(consumed_.load());
  reg.counter("rt.crashes").inc(crash_count_.load());
  reg.counter("rt.recoveries").inc(recovery_count_.load());
  reg.counter("rt.crash_lost").inc(crash_lost_.load());
  reg.counter("rt.injected").inc(injected_.load());
  // Blocking-wait durations in milliseconds: bucket edges chosen for the
  // condvar scale (sub-100µs wakeups up to watchdog-length stalls). One
  // record per node of its mean wait — exact per-wait samples would need
  // per-wait registry writes, which the single-writer contract forbids; the
  // per-node counters below carry the exact totals.
  auto& waits = reg.histogram(
      "rt.mean_wait_ms", {0.1, 0.5, 1.0, 5.0, 10.0, 50.0, 100.0, 1000.0});
  for (sim::NodeId v = 0; v < nodes_.size(); ++v) {
    const auto& node = nodes_[v];
    const std::string id = std::to_string(v);
    reg.counter("rt.node." + id + ".sent").inc(node.sent.load());
    reg.counter("rt.node." + id + ".consumed").inc(node.consumed.load());
    reg.counter("rt.node." + id + ".waits").inc(node.wait_count.load());
    reg.counter("rt.node." + id + ".wait_ns").inc(node.wait_ns.load());
    reg.gauge("rt.node." + id + ".wait_max_ms")
        .track_max(static_cast<double>(node.wait_max_ns.load()) / 1e6);
    const std::uint64_t count = node.wait_count.load();
    if (count > 0) {
      waits.record(static_cast<double>(node.wait_ns.load()) / 1e6 /
                   static_cast<double>(count));
    }
  }
  // Phase telemetry: where every node is right now (one gauge per phase)
  // and the per-node mean blocking wait attributed to the phase in force
  // when the wait began (one histogram per phase, same bounds as above).
  for (std::size_t i = 0; i < obs::kPhaseCount; ++i) {
    const char* name = obs::phase_name(i);
    std::uint64_t in_phase = 0;
    auto& phase_waits =
        reg.histogram(obs::labeled("rt.wait_ms", "phase", name),
                      {0.1, 0.5, 1.0, 5.0, 10.0, 50.0, 100.0, 1000.0});
    std::uint64_t wait_count = 0;
    std::uint64_t wait_ns = 0;
    for (const auto& node : nodes_) {
      if (node.phase.load(std::memory_order_relaxed) == i) ++in_phase;
      const std::uint64_t c =
          node.phase_wait_count[i].load(std::memory_order_relaxed);
      const std::uint64_t ns =
          node.phase_wait_ns[i].load(std::memory_order_relaxed);
      wait_count += c;
      wait_ns += ns;
      if (c > 0) {
        phase_waits.record(static_cast<double>(ns) / 1e6 /
                           static_cast<double>(c));
      }
    }
    reg.gauge(obs::labeled("rt.phase_nodes", "phase", name))
        .set(static_cast<double>(in_phase));
    reg.counter(obs::labeled("rt.waits", "phase", name)).inc(wait_count);
    reg.counter(obs::labeled("rt.wait_ns", "phase", name)).inc(wait_ns);
  }
}

bool ThreadRing::candidate_quiescent() const {
  // Every worker is either blocked on an empty port, parked waiting for
  // its crashed node to be recovered, or done; every pulse sent has been
  // consumed. all_epochs_acked guards the crash-recovery window: right
  // after a crash (or crash+recover) the worker may still be counted idle
  // — parked on its condvar, woken but not yet scheduled — while its
  // restart, and the fresh pulse that comes with it, is inevitable. Until
  // the worker acknowledges the new incarnation (io() or
  // await_recovery()), the fabric only *looks* quiet.
  const std::size_t accounted =
      idle_.load() + awaiting_recovery_.load() + finished_.load();
  return accounted == nodes_.size() &&
         sent_.load() == consumed_.load() && all_epochs_acked();
}

void ThreadRing::maybe_notify_monitor() {
  if (finished_.load() != nodes_.size() && !candidate_quiescent()) return;
  // Lock-then-notify: the monitor evaluates its predicate under
  // monitor_mutex_ before waiting, so taking the (empty) critical section
  // here guarantees the monitor is either pre-check (and will see the new
  // counters) or already waiting (and receives the notify) — a wakeup can
  // never fall into the gap between the two.
  { std::lock_guard<std::mutex> lock(monitor_mutex_); }
  monitor_cv_.notify_one();
}

bool ThreadRing::monitor(std::uint64_t timeout_ms) {
  const auto started = std::chrono::steady_clock::now();
  const auto deadline = started + std::chrono::milliseconds(timeout_ms);
  // Progress history cadence: cover the whole timeout with kProgressSamples
  // samples, but never sample slower than every 50ms on short runs.
  const auto sample_every = std::chrono::milliseconds(
      std::max<std::uint64_t>(timeout_ms / kProgressSamples, 50));
  auto next_sample = started;
  const std::size_t n = nodes_.size();
  for (;;) {
    const auto now = std::chrono::steady_clock::now();
    if (now >= next_sample) {
      record_progress_sample(
          std::chrono::duration<double, std::milli>(now - started).count());
      next_sample = now + sample_every;
    }
    if (finished_.load() == n) {  // natural termination
      if (flight_monitor_ != nullptr) {
        flight_monitor_->record("all-finished", sent_.load());
      }
      return true;
    }
    if (candidate_quiescent()) {
      // Double-scan: re-observe after a pause to ride out races between a
      // send and the receiver waking up.
      std::this_thread::sleep_for(std::chrono::microseconds(300));
      if (candidate_quiescent()) {
        if (flight_monitor_ != nullptr) {
          flight_monitor_->record("quiescent", sent_.load());
        }
        broadcast_stop();
        return true;
      }
    }
    if (std::chrono::steady_clock::now() > deadline) {
      if (flight_monitor_ != nullptr) {
        flight_monitor_->record("timeout", sent_.load(), consumed_.load());
      }
      broadcast_stop();
      return false;
    }
    // Event-driven idle detection: sleep until a worker signals a
    // quiescence candidate (maybe_notify_monitor) instead of polling on a
    // fixed sleep — the old 200µs poll put the scheduling latency of this
    // thread on the critical path of every small-n run. The wait is still
    // bounded by the sampling cadence so the progress history and the
    // deadline keep their timing.
    std::unique_lock<std::mutex> lock(monitor_mutex_);
    if (finished_.load() != n && !candidate_quiescent()) {
      monitor_cv_.wait_until(lock, std::min(next_sample, deadline));
    }
  }
}

std::string ThreadRing::dump() const {
  std::ostringstream os;
  os << "thread-ring state: n=" << nodes_.size() << " sent=" << sent_.load()
     << " consumed=" << consumed_.load() << " idle=" << idle_.load()
     << " awaiting-recovery=" << awaiting_recovery_.load()
     << " finished=" << finished_.load() << " crashes=" << crash_count_.load()
     << " recoveries=" << recovery_count_.load()
     << " crash-lost=" << crash_lost_.load()
     << " injected=" << injected_.load() << "\n";
  for (sim::NodeId v = 0; v < nodes_.size(); ++v) {
    const auto& node = nodes_[v];
    std::uint64_t p0 = 0;
    std::uint64_t p1 = 0;
    std::uint64_t sent = 0;
    std::uint64_t consumed = 0;
    std::uint64_t epoch = 0;
    std::uint64_t acked = 0;
    bool crashed = false;
    // Epoch fence: a watchdog fire can race a crash()/recover() swapping the
    // node's incarnation. Take the epoch before the counter snapshot and
    // re-check it afterwards — a snapshot whose fence moved straddles two
    // incarnations (e.g. pending already cleared, CRASHED not yet visible)
    // and is retried. crash() and recover() flip state under node.mutex, so
    // a snapshot with matching fences is coherent with one incarnation.
    for (;;) {
      const std::uint64_t fence = node.crash_epoch.load();
      {
        std::lock_guard<std::mutex> lock(node.mutex);
        p0 = node.pending[0];
        p1 = node.pending[1];
        sent = node.sent.load();
        consumed = node.consumed.load();
        crashed = node.crashed.load();
        epoch = node.crash_epoch.load();
        acked = node.acked_epoch.load();
      }
      if (epoch == fence) break;
    }
    os << "  node " << v << ": phase="
       << obs::phase_name(node.phase.load(std::memory_order_relaxed))
       << " pending[p0]=" << p0 << " pending[p1]=" << p1 << " sent=" << sent
       << " consumed=" << consumed << (crashed ? " CRASHED" : "")
       << " epoch=" << epoch << " acked=" << acked << "\n";
  }
  // Phase distribution at the moment of the dump: the single most useful
  // stall signal ("everyone is parked in initiated_wait" reads instantly).
  {
    std::uint64_t in_phase[obs::kPhaseCount] = {};
    for (const auto& node : nodes_) {
      ++in_phase[node.phase.load(std::memory_order_relaxed)];
    }
    os << "  phases:";
    for (std::size_t i = 0; i < obs::kPhaseCount; ++i) {
      if (in_phase[i] != 0) {
        os << " " << obs::phase_name(i) << "=" << in_phase[i];
      }
    }
    os << "\n";
  }
  {
    const std::vector<std::string> history = progress_.history();
    if (!history.empty()) {
      os << "  progress history (last " << history.size() << " samples):\n";
      for (const auto& sample : history) os << "    " << sample << "\n";
    }
  }
  if (flight_ != nullptr) os << "  " << flight_->render_tail(32);
  if (metrics_ != nullptr) {
    publish_metrics();
    os << "  metrics: " << metrics_->to_json() << "\n";
  }
  return os.str();
}

}  // namespace colex::rt
