#include "coro/run.hpp"

#include "util/contracts.hpp"

namespace colex::coro {

CoroRunResult run_on_coro(const std::vector<std::uint64_t>& ids,
                          const std::vector<bool>& port_flips,
                          rt::ThreadAlg alg, const CoroRunOptions& options) {
  COLEX_EXPECTS(!ids.empty());
  const std::size_t n = ids.size();
  Executor ex(n, port_flips,
              ExecutorOptions{options.workers, options.timeout_ms,
                              options.metrics});

  // Spawn the same template transcriptions ThreadRing runs, over CoroIo.
  // The tasks own the coroutine frames; the executor only borrows handles.
  std::vector<rt::ElectionTask> tasks;
  tasks.reserve(n);
  for (std::uint32_t v = 0; v < n; ++v) {
    tasks.push_back(
        rt::spawn_alg(alg, ex.io(v), ids[static_cast<std::size_t>(v)]));
    ex.bind(v, tasks.back().handle());
  }

  CoroRunResult result;
  result.completed = ex.run();
  result.pulses = ex.total_sent();
  result.stats = ex.stats();
  if (!result.completed) result.stall_dump = ex.stall_dump();

  result.outcomes.reserve(n);
  for (const auto& task : tasks) {
    result.outcomes.push_back(task.outcome());  // rethrows algorithm errors
  }
  rt::tally_leaders(result);
  if (options.metrics != nullptr) {
    // Per-phase pulse/wait series plus the pulse-bound margin, mirroring
    // run_on_threads (the coroutine fabric is clean: no injected pulses to
    // exclude).
    rt::publish_phase_pulses(*options.metrics, "coro.pulses", result.outcomes,
                             "coro.waits");
    rt::publish_pulse_bound(*options.metrics, "coro", alg, ids, result.pulses);
  }
  return result;
}

}  // namespace colex::coro
