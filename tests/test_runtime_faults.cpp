// Fault injection on the real-thread runtime (thread_ring.hpp fault hooks):
// crash-stop, crash-recover-with-erased-state, spurious pulse injection,
// and the stall watchdog. Unlike the simulator-side fault harness
// (sim/faults.hpp, test_faults.cpp), a ChaosScript races the algorithm
// threads for real, so these tests assert properties that hold under EVERY
// interleaving — chiefly "the run always returns, and if it could not
// settle, the watchdog aborts it with a usable post-mortem" — rather than
// one reproducible outcome.
//
// The one timing-independent impossibility these tests lean on: a spurious
// pulse injected into Algorithm 1's CW cycle can never be absorbed once all
// n absorptions are spent (each node absorbs at most one pulse, the one
// making rho_cw == ID), so n+1 pulses guarantee a livelock that only the
// watchdog can end.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "runtime/blocking_algs.hpp"
#include "runtime/progress.hpp"
#include "sim/faults.hpp"
#include "util/contracts.hpp"

namespace colex::rt {
namespace {

const std::vector<std::uint64_t> kIds{6, 11, 3, 9};  // max 11 at node 1

void brief_sleep(int ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

TEST(ThreadRingFaults, CrashSwallowsDeliveriesAndClearsPending) {
  ThreadRing ring(3);
  auto io0 = ring.io(0);
  io0.send(sim::Port::p1);  // queued at node 1, port p0
  EXPECT_EQ(ring.total_sent(), 1u);
  EXPECT_EQ(ring.total_consumed(), 0u);

  ring.crash(1);
  EXPECT_TRUE(ring.node_crashed(1));
  EXPECT_EQ(ring.crashes(), 1u);
  // The queued pulse died with the node...
  EXPECT_EQ(ring.crash_lost(), 1u);
  EXPECT_EQ(ring.total_consumed(), 1u);  // ...but conservation still holds.
  // A delivery while down is swallowed, again without breaking conservation.
  io0.send(sim::Port::p1);
  EXPECT_EQ(ring.crash_lost(), 2u);
  EXPECT_EQ(ring.total_sent(), 2u);
  EXPECT_EQ(ring.total_consumed(), 2u);
}

TEST(ThreadRingFaults, StaleIoHandleIsDeadAfterRecovery) {
  ThreadRing ring(3);
  auto old_io = ring.io(1);  // incarnation of epoch 0
  ring.crash(1);
  ring.recover(1);
  EXPECT_FALSE(ring.node_crashed(1));
  EXPECT_EQ(ring.crash_epoch(1), 1u);

  // The pre-crash handle must not be able to touch the recovered node:
  // sends are suppressed, receives and waits fail immediately.
  old_io.send(sim::Port::p1);
  EXPECT_EQ(ring.total_sent(), 0u);
  ring.io(0).send(sim::Port::p1);  // a real pulse for node 1
  EXPECT_FALSE(old_io.recv(sim::Port::p0));
  EXPECT_FALSE(old_io.wait_any());

  // A post-recovery handle sees the pulse.
  auto new_io = ring.io(1);
  EXPECT_TRUE(new_io.recv(sim::Port::p0));
}

TEST(ThreadRingFaults, DumpReportsPerNodeState) {
  ThreadRing ring(2);
  ring.io(0).send(sim::Port::p1);
  ring.inject_pulse(0, sim::Port::p0);
  ring.crash(1);
  const std::string dump = ring.dump();
  EXPECT_NE(dump.find("node 0"), std::string::npos);
  EXPECT_NE(dump.find("node 1"), std::string::npos);
  EXPECT_NE(dump.find("CRASHED"), std::string::npos);
  EXPECT_NE(dump.find("injected=1"), std::string::npos);
  EXPECT_NE(dump.find("pending[p0]=1"), std::string::npos);
}

// An injected (spurious) CW pulse makes Algorithm 1's election livelock:
// n+1 pulses chase n absorptions, so the surplus pulse circulates forever.
// The watchdog must abort the run within the configured budget and hand
// back a per-node post-mortem instead of hanging. The ring is driven by
// hand so the pulse is provably in the fabric before any worker runs —
// deterministic under every interleaving and any machine load.
TEST(ThreadRingFaults, InjectedPulseTripsStallWatchdogWithDump) {
  const std::size_t n = kIds.size();
  ThreadRing ring(n);
  ring.inject_pulse(0, sim::Port::p0);  // surplus pulse, pre-start

  std::vector<BlockingOutcome> outs(n);
  std::vector<std::thread> workers;
  for (sim::NodeId v = 0; v < n; ++v) {
    workers.emplace_back([&, v] {
      outs[v] = drive_blocking(spawn_alg(
          ThreadAlg::alg1, BlockingPortAdapter(ring.io(v)), kIds[v]));
      ring.worker_finished();
    });
  }

  EXPECT_FALSE(ring.monitor(/*timeout_ms=*/400));  // watchdog must trip
  for (auto& w : workers) w.join();  // ...and stop must unblock everyone

  const std::string dump = ring.dump();
  EXPECT_NE(dump.find("injected=1"), std::string::npos);
  EXPECT_NE(dump.find("node 0"), std::string::npos);
  EXPECT_NE(dump.find("sent="), std::string::npos);
  // The surplus shows up as exactly one unconsumed pulse.
  EXPECT_EQ(ring.total_sent(), ring.total_consumed() + 1);
}

// The same injection through run_on_threads' ChaosScript. The script races
// the workers (by design), so on a heavily loaded machine the election can
// settle before the injection lands; in every interleaving the run must
// return promptly, and whenever the injection did land pre-quiescence the
// watchdog must report a stall dump.
TEST(ThreadRingFaults, ChaosInjectionNeverHangsAndDumpsOnStall) {
  const auto t0 = std::chrono::steady_clock::now();
  const auto result = run_on_threads(
      kIds, {}, ThreadAlg::alg1, /*timeout_ms=*/500,
      [](ThreadRing& ring) { ring.inject_pulse(0, sim::Port::p0); });
  const auto elapsed = std::chrono::steady_clock::now() - t0;

  if (!result.completed) {
    EXPECT_FALSE(result.stall_dump.empty());
    EXPECT_NE(result.stall_dump.find("injected=1"), std::string::npos);
  }
  // Aborted promptly either way — the watchdog replaced an infinite hang
  // with a bounded wait (generous margin for loaded CI machines).
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            10'000);
}

// Fault-free sanity: the chaos plumbing itself must not perturb a clean
// run (the no-op script is the thread-side analogue of the simulator's
// trivial FaultPlan, which is trace-identical by construction).
TEST(ThreadRingFaults, NoOpChaosScriptLeavesElectionExact) {
  const auto result =
      run_on_threads(kIds, {}, ThreadAlg::alg1, 30'000, [](ThreadRing&) {});
  ASSERT_TRUE(result.completed);
  EXPECT_EQ(result.leader_count, 1u);
  ASSERT_TRUE(result.leader.has_value());
  EXPECT_EQ(*result.leader, 1u);
  EXPECT_EQ(result.crashes, 0u);
  EXPECT_EQ(result.stall_dump, "");
  EXPECT_EQ(result.pulses, kIds.size() * 11u);  // Corollary 13
}

// Crash-stop with no recovery. Whenever the crash lands — before, during
// or after the election settles — the run must complete via quiescence
// detection (swallowed deliveries keep sent == consumed, and the parked
// worker is accounted for), never hang, and report the crash.
TEST(ThreadRingFaults, CrashStopAlwaysCompletesViaQuiescence) {
  const auto result = run_on_threads(kIds, {}, ThreadAlg::alg1, 30'000,
                                     [](ThreadRing& ring) {
                                       brief_sleep(1);
                                       ring.crash(2);
                                     });
  ASSERT_TRUE(result.completed);
  EXPECT_EQ(result.crashes, 1u);
  EXPECT_EQ(result.recoveries, 0u);
  EXPECT_TRUE(result.stall_dump.empty());
  // The crashed node either never produced an outcome (worker parked, then
  // stopped: state erased) or had already stopped with the pre-crash state;
  // in both cases the field is a valid BlockingOutcome.
  EXPECT_EQ(result.outcomes[2].restarts, 0u);
}

// Crash + recover: the worker re-runs the algorithm from scratch. Under a
// stabilizing algorithm this either re-converges (the recovered node's
// fresh initial pulse is eventually absorbed — possibly by the recovered
// node itself, since its rho was erased) or induces a genuine livelock
// (surplus pulse, no absorber left), in which case the watchdog must end
// the run with a post-mortem. Both endings are legitimate; hanging is not.
TEST(ThreadRingFaults, CrashRecoverEitherReconvergesOrTripsWatchdog) {
  const auto result = run_on_threads(kIds, {}, ThreadAlg::alg1,
                                     /*timeout_ms=*/800,
                                     [](ThreadRing& ring) {
                                       brief_sleep(1);
                                       ring.crash(2);
                                       brief_sleep(10);
                                       ring.recover(2);
                                     });
  EXPECT_EQ(result.crashes, 1u);
  EXPECT_EQ(result.recoveries, 1u);
  if (result.completed) {
    EXPECT_TRUE(result.stall_dump.empty());
  } else {
    EXPECT_FALSE(result.stall_dump.empty());
    EXPECT_NE(result.stall_dump.find("crashes=1"), std::string::npos);
  }
}

// The recovered-worker restart path, exercised deterministically by
// driving the ring by hand (no monitor racing the script): let the
// election settle, crash + recover node 2 while the fabric is provably
// quiescent, and only then start the monitor. The recovered node re-runs
// Algorithm 1 from erased state: its fresh initial pulse circulates (every
// settled node has rho > ID and relays) until the recovered node itself
// absorbs it at rho == ID — so the ring re-quiesces with node 2 wrongly
// Leader and the old leader demoted, the threaded twin of the simulator's
// crash-recovery finding in test_faults.cpp.
TEST(ThreadRingFaults, RecoveredWorkerRerunsFromErasedState) {
  const std::size_t n = kIds.size();
  ThreadRing ring(n);
  std::vector<BlockingOutcome> outs(n);
  std::vector<std::uint64_t> restarts(n, 0);
  std::vector<std::thread> workers;
  for (sim::NodeId v = 0; v < n; ++v) {
    workers.emplace_back([&, v] {
      for (;;) {
        const std::uint64_t epoch = ring.crash_epoch(v);
        NodeIo io = ring.io(v);
        outs[v] = drive_blocking(
            spawn_alg(ThreadAlg::alg1, BlockingPortAdapter(io), kIds[v]));
        if (ring.crash_epoch(v) == epoch) break;
        if (!ring.await_recovery(v)) {
          outs[v] = BlockingOutcome{};
          outs[v].id = kIds[v];
          outs[v].stopped = true;
          break;
        }
        ++restarts[v];
      }
      ring.worker_finished();
    });
  }

  // Corollary 13: the fault-free election settles after exactly n * IDmax
  // consumptions. No monitor is running, so nothing can stop the run early.
  const std::uint64_t settled = n * 11u;
  while (ring.total_consumed() < settled) brief_sleep(1);
  ring.crash(2);
  ring.recover(2);

  ASSERT_TRUE(ring.monitor(30'000)) << ring.dump();
  for (auto& w : workers) w.join();

  EXPECT_EQ(ring.crashes(), 1u);
  EXPECT_EQ(ring.recoveries(), 1u);
  EXPECT_EQ(restarts[2], 1u);
  // The fresh incarnation's counters: it absorbed its own pulse at
  // rho == ID and believes itself Leader; the legitimate leader (node 1,
  // ID 11) was demoted by the extra lap of relayed pulses.
  EXPECT_EQ(outs[2].counters.rho_cw, kIds[2]);
  EXPECT_EQ(outs[2].role, co::Role::leader);
  EXPECT_EQ(outs[1].role, co::Role::non_leader);
}

// --- Telemetry (obs::Registry attached to the fabric) ---------------------

TEST(ThreadRingMetrics, PublishesFabricAndPerNodeCounters) {
  obs::Registry metrics;
  const auto result = run_on_threads(kIds, {}, ThreadAlg::alg2,
                                     /*timeout_ms=*/30'000, {}, &metrics);
  ASSERT_TRUE(result.completed);
  EXPECT_EQ(metrics.counter("rt.sent").value(), result.pulses);
  EXPECT_EQ(metrics.counter("rt.consumed").value(), result.pulses);
  EXPECT_EQ(metrics.counter("rt.crashes").value(), 0u);
  // Per-node sends partition the fabric total.
  std::uint64_t per_node = 0;
  for (sim::NodeId v = 0; v < kIds.size(); ++v) {
    per_node +=
        metrics.counter("rt.node." + std::to_string(v) + ".sent").value();
  }
  EXPECT_EQ(per_node, result.pulses);
  // The wait histogram records one mean-wait sample per node that ever
  // blocked (a node kept saturated by its neighbors may never block, so
  // this is an upper bound, not an equality).
  EXPECT_LE(metrics.histogram("rt.mean_wait_ms", {}).count(), kIds.size());
}

TEST(ThreadRingMetrics, DisabledByDefaultRunPublishesNothing) {
  obs::Registry metrics;
  const auto result = run_on_threads(kIds, {}, ThreadAlg::alg2);
  ASSERT_TRUE(result.completed);
  EXPECT_TRUE(metrics.empty());
}

TEST(ThreadRingMetrics, StallDumpEmbedsProgressHistoryAndSnapshot) {
  // Same guaranteed livelock as the watchdog tests above: a surplus pulse
  // Algorithm 1 cannot absorb. The post-mortem must now carry the last-N
  // progress samples and the full metrics snapshot.
  obs::Registry metrics;
  const auto result = run_on_threads(
      kIds, {}, ThreadAlg::alg1, /*timeout_ms=*/400,
      [](ThreadRing& ring) { ring.inject_pulse(0, sim::Port::p0); },
      &metrics);
  if (!result.completed) {
    EXPECT_NE(result.stall_dump.find("progress history"), std::string::npos);
    EXPECT_NE(result.stall_dump.find("t="), std::string::npos);
    EXPECT_NE(result.stall_dump.find("metrics: {"), std::string::npos);
    EXPECT_NE(result.stall_dump.find("rt.sent"), std::string::npos);
    EXPECT_EQ(metrics.counter("rt.injected").value(), 1u);
  }
}

// --- Double-fault interleavings --------------------------------------------
//
// Single faults are covered above; these scripts overlap two faults in time
// and classify each ending through the simulator's shared FaultOutcome
// taxonomy (sim::classify_outcome), so the threaded runtime and the
// discrete-event harness speak the same language about what a fault did.
// The scripts race the workers for real, so the assertions are the
// timing-independent ones: the run always ends (completed or post-mortem),
// the fault ledger balances, and the classification is internally
// consistent — never an unclassifiable ending.

sim::FaultOutcome classify_thread_result(const ThreadRunResult& result,
                                         std::string* diagnosis = nullptr) {
  // Bridge the threaded result into the taxonomy's inputs: a watchdog abort
  // is the thread-side analogue of exhausting the event budget, and the
  // intended output is node 1 (ID 11) as the unique leader.
  sim::RunReport report;
  report.quiescent = result.completed;
  report.hit_event_limit = !result.completed;
  const bool output_correct = result.completed && result.leader_count == 1 &&
                              result.leader.has_value() &&
                              *result.leader == 1u;
  return sim::classify_outcome(report, /*safety_diag=*/"", output_correct,
                               diagnosis);
}

// A second node crashes while the first is mid-recovery. Erased state on
// two nodes can re-converge, settle on a wrong leader, or livelock on a
// surplus pulse; all three classify cleanly, and the crash/recovery ledger
// must record both cycles whatever the interleaving.
TEST(ThreadRingDoubleFaults, CrashDuringAnotherNodesRecovery) {
  const auto result = run_on_threads(kIds, {}, ThreadAlg::alg1,
                                     /*timeout_ms=*/800,
                                     [](ThreadRing& ring) {
                                       brief_sleep(1);
                                       ring.crash(2);
                                       ring.recover(2);
                                       ring.crash(0);  // lands mid-recovery
                                       brief_sleep(5);
                                       ring.recover(0);
                                     });
  EXPECT_EQ(result.crashes, 2u);
  EXPECT_EQ(result.recoveries, 2u);
  std::string diagnosis;
  const sim::FaultOutcome outcome = classify_thread_result(result, &diagnosis);
  EXPECT_NE(outcome, sim::FaultOutcome::safety_violated) << diagnosis;
  if (outcome == sim::FaultOutcome::diverged) {
    EXPECT_FALSE(result.completed);
    EXPECT_FALSE(result.stall_dump.empty());
    EXPECT_NE(result.stall_dump.find("crashes=2"), std::string::npos);
  } else {
    EXPECT_TRUE(result.completed);
    EXPECT_TRUE(result.stall_dump.empty());
  }
}

// The same node crashes and recovers twice back to back. Each recovery
// erases state and re-runs from scratch; the second cycle must behave like
// the first (no stale incarnation leaks through the epoch fence), and the
// ledger counts both.
TEST(ThreadRingDoubleFaults, BackToBackCrashRecoverSameNode) {
  const auto result = run_on_threads(kIds, {}, ThreadAlg::alg1,
                                     /*timeout_ms=*/800,
                                     [](ThreadRing& ring) {
                                       brief_sleep(1);
                                       ring.crash(2);
                                       ring.recover(2);
                                       brief_sleep(2);
                                       ring.crash(2);
                                       ring.recover(2);
                                     });
  EXPECT_EQ(result.crashes, 2u);
  EXPECT_EQ(result.recoveries, 2u);
  std::string diagnosis;
  const sim::FaultOutcome outcome = classify_thread_result(result, &diagnosis);
  EXPECT_NE(outcome, sim::FaultOutcome::safety_violated) << diagnosis;
  if (outcome != sim::FaultOutcome::diverged) {
    // Settled: the twice-recovered worker restarted at most twice, and
    // every node produced a decided outcome.
    EXPECT_LE(result.outcomes[2].restarts, 2u);
  } else {
    EXPECT_NE(result.stall_dump.find("recoveries=2"), std::string::npos);
  }
}

// A storm of spurious pulses concentrated on one channel. With n + 1
// injections the livelock is guaranteed, not probabilistic: each node
// absorbs at most one pulse ever, so at least one surplus pulse circulates
// forever and only the watchdog can end the run — the ending must classify
// as diverged, with the post-mortem recording the full storm.
TEST(ThreadRingDoubleFaults, SpuriousStormOnOneChannelDiverges) {
  const std::size_t storm = kIds.size() + 1;
  const auto result = run_on_threads(
      kIds, {}, ThreadAlg::alg1, /*timeout_ms=*/600,
      [storm](ThreadRing& ring) {
        for (std::size_t i = 0; i < storm; ++i) {
          ring.inject_pulse(0, sim::Port::p0);
        }
      });
  std::string diagnosis;
  const sim::FaultOutcome outcome = classify_thread_result(result, &diagnosis);
  EXPECT_EQ(outcome, sim::FaultOutcome::diverged) << diagnosis;
  EXPECT_FALSE(result.completed);
  EXPECT_NE(result.stall_dump.find("injected=5"), std::string::npos);
}

// --- ProgressTracker (the watchdog's history, now reusable) ---------------

TEST(ProgressTracker, KeepsLastDepthSamplesInOrder) {
  ProgressTracker tracker(3);
  EXPECT_EQ(tracker.depth(), 3u);
  EXPECT_EQ(tracker.size(), 0u);
  for (std::uint64_t i = 1; i <= 5; ++i) {
    tracker.record(i, "sample " + std::to_string(i));
  }
  EXPECT_EQ(tracker.size(), 3u);
  const auto history = tracker.history();
  ASSERT_EQ(history.size(), 3u);
  EXPECT_EQ(history[0], "sample 3");  // oldest retained first
  EXPECT_EQ(history[2], "sample 5");
}

TEST(ProgressTracker, StalledTailDetectsFlatWindowOnly) {
  ProgressTracker tracker(4);
  tracker.record(7, "a");
  EXPECT_FALSE(tracker.stalled_tail(2));  // not enough samples yet
  tracker.record(7, "b");
  EXPECT_TRUE(tracker.stalled_tail(2));  // two identical values
  tracker.record(8, "c");
  EXPECT_FALSE(tracker.stalled_tail(2));  // progress resumed
  EXPECT_FALSE(tracker.stalled_tail(3));  // window spans the progress step
  tracker.record(8, "d");
  EXPECT_TRUE(tracker.stalled_tail(2));
  EXPECT_FALSE(tracker.stalled_tail(4));
}

TEST(ProgressTracker, RejectsDegenerateDepthAndWindow) {
  EXPECT_THROW(ProgressTracker(0), util::ContractViolation);
  ProgressTracker tracker(2);
  tracker.record(1, "x");
  tracker.record(1, "y");
  EXPECT_THROW(tracker.stalled_tail(0), util::ContractViolation);
  EXPECT_THROW(tracker.stalled_tail(3), util::ContractViolation);
}

}  // namespace
}  // namespace colex::rt
