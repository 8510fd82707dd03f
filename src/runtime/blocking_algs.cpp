#include "runtime/blocking_algs.hpp"

#include <algorithm>
#include <thread>

#include "util/contracts.hpp"

namespace colex::rt {

void publish_pulse_bound(obs::Registry& metrics, const std::string& prefix,
                         ThreadAlg alg, const std::vector<std::uint64_t>& ids,
                         std::uint64_t node_sends) {
  const std::uint64_t id_max = *std::max_element(ids.begin(), ids.end());
  const std::uint64_t bound = co::exact_pulses(alg, ids.size(), id_max);
  metrics.gauge(prefix + ".pulse_bound").set(static_cast<double>(bound));
  metrics.gauge(prefix + ".pulse_margin")
      .set(static_cast<double>(bound) - static_cast<double>(node_sends));
}

ThreadRunResult run_on_threads(const std::vector<std::uint64_t>& ids,
                               const std::vector<bool>& port_flips,
                               ThreadAlg alg, std::uint64_t timeout_ms,
                               ChaosScript chaos, obs::Registry* metrics) {
  COLEX_EXPECTS(!ids.empty());
  const std::size_t n = ids.size();
  ThreadRing ring(n, port_flips);
  ring.set_metrics(metrics);  // before any worker starts

  ThreadRunResult result;
  result.outcomes.resize(n);

  std::vector<std::thread> workers;
  workers.reserve(n);
  for (sim::NodeId v = 0; v < n; ++v) {
    workers.emplace_back([&ring, &result, &ids, alg, v] {
      BlockingOutcome out;
      std::uint64_t restarts = 0;
      for (;;) {
        // Read the epoch before binding the io handle: if a crash slips in
        // between, the handle is dead and the epoch comparison below still
        // routes us into the recovery path.
        const std::uint64_t epoch = ring.crash_epoch(v);
        out = drive_blocking(
            spawn_alg(alg, BlockingPortAdapter(ring.io(v)), ids[v]));
        if (ring.crash_epoch(v) == epoch) break;  // normal stop/termination
        // The node crash-stopped mid-run: whatever the dead incarnation
        // computed is gone with it.
        out = BlockingOutcome{};
        out.id = ids[v];
        out.stopped = true;
        if (!ring.await_recovery(v)) break;  // run ended while still down
        ++restarts;  // recovered: re-run the algorithm from scratch
      }
      out.restarts = restarts;
      result.outcomes[v] = out;
      ring.worker_finished();
    });
  }

  std::thread chaos_thread;
  if (chaos) chaos_thread = std::thread([&ring, &chaos] { chaos(ring); });

  result.completed = ring.monitor(timeout_ms);
  if (chaos_thread.joinable()) chaos_thread.join();
  for (auto& w : workers) w.join();

  result.pulses = ring.total_sent();
  result.crashes = ring.crashes();
  result.recoveries = ring.recoveries();
  if (!result.completed) {
    result.stall_dump = ring.dump();  // publishes metrics as a side effect
  } else {
    ring.publish_metrics();
  }
  tally_leaders(result);
  if (metrics != nullptr) {
    publish_phase_pulses(*metrics, "rt.pulses", result.outcomes);
    // Injected pulses are excluded: the bound speaks about node sends.
    publish_pulse_bound(*metrics, "rt", alg, ids,
                        result.pulses - ring.injected());
  }
  return result;
}

}  // namespace colex::rt
