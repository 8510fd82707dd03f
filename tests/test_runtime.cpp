// Tests for the real-thread runtime: the blocking pseudocode transcriptions
// must reproduce the discrete simulator's results exactly — same leader,
// same roles, same total pulse counts — under genuine OS-level asynchrony.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "co/election.hpp"
#include "helpers.hpp"
#include "interest_probe.hpp"
#include "runtime/blocking_algs.hpp"

namespace colex::rt {
namespace {

TEST(ThreadRing, WiringMatchesSimulator) {
  // A pulse sent from node 0's Port1 must arrive at node 1's Port0.
  ThreadRing ring(3);
  auto io0 = ring.io(0);
  auto io1 = ring.io(1);
  io0.send(sim::Port::p1);
  EXPECT_TRUE(io1.recv(sim::Port::p0));
  EXPECT_FALSE(io1.recv(sim::Port::p0));
  EXPECT_FALSE(io1.recv(sim::Port::p1));
  EXPECT_EQ(ring.total_sent(), 1u);
  EXPECT_EQ(ring.total_consumed(), 1u);
}

TEST(ThreadRing, SelfLoopSingleNode) {
  ThreadRing ring(1);
  auto io = ring.io(0);
  io.send(sim::Port::p1);
  EXPECT_TRUE(io.recv(sim::Port::p0));
  io.send(sim::Port::p0);
  EXPECT_TRUE(io.recv(sim::Port::p1));
}

TEST(ThreadRing, WaitSleepsThroughPulsesOutsideTheInterestSet) {
  // Node 0 polls only CW and waits; node 1 (this thread) sends it 100 CCW
  // pulses, gives a wrongly woken wait time to show, then one CW pulse.
  // The CCW pulses must neither end node 0's wait nor be consumed, so at
  // most one wait returns: the one the CW pulse ends (none if node 0's
  // first poll came after the CW pulse).
  ThreadRing ring(2);
  std::uint64_t waits = 0;
  BlockingOutcome out;
  std::thread node0([&ring, &waits, &out] {
    out = drive_blocking(test::poll_cw_only(BlockingPortAdapter(ring.io(0)),
                                            co::kCwPort, &waits));
  });
  NodeIo io1 = ring.io(1);
  while (!io1.recv(sim::Port::p0)) io1.wait_any();  // node 0's announce
  for (int i = 0; i < 100; ++i) io1.send(co::kCcwPort);  // to node 0's p1
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  io1.send(co::kCwPort);  // to node 0's p0
  node0.join();
  EXPECT_TRUE(out.terminated);
  EXPECT_LE(waits, 1u);
  EXPECT_EQ(ring.io(0).pending(sim::Port::p1), 100u);
}

TEST(ThreadRing, FlippedWiring) {
  ThreadRing ring(3, {false, true, false});
  auto io0 = ring.io(0);
  auto io1 = ring.io(1);
  io0.send(sim::Port::p1);
  EXPECT_TRUE(io1.recv(sim::Port::p1));  // node 1's labels are swapped
}

TEST(Alg2Threads, MatchesTheorem1Exactly) {
  const std::vector<std::uint64_t> ids{6, 11, 3, 9, 1, 7};
  const auto result = run_on_threads(ids, {}, ThreadAlg::alg2);
  ASSERT_TRUE(result.completed);
  EXPECT_EQ(result.pulses, co::theorem1_pulses(ids.size(), 11));
  EXPECT_EQ(result.leader_count, 1u);
  ASSERT_TRUE(result.leader.has_value());
  EXPECT_EQ(*result.leader, 1u);
  for (sim::NodeId v = 0; v < ids.size(); ++v) {
    const auto& out = result.outcomes[v];
    EXPECT_TRUE(out.terminated) << v;
    EXPECT_FALSE(out.stopped) << v;  // Algorithm 2 terminates on its own
    EXPECT_EQ(out.counters.rho_cw, 11u) << v;
    EXPECT_EQ(out.counters.rho_ccw, 12u) << v;
  }
}

TEST(Alg2Threads, RepeatedRunsAreAllExact) {
  // Thread scheduling differs run to run; the outcome must not.
  const std::vector<std::uint64_t> ids{4, 9, 2, 6, 1};
  for (int rep = 0; rep < 10; ++rep) {
    const auto result = run_on_threads(ids, {}, ThreadAlg::alg2);
    ASSERT_TRUE(result.completed) << rep;
    EXPECT_EQ(result.pulses, co::theorem1_pulses(5, 9)) << rep;
    EXPECT_EQ(result.leader_count, 1u) << rep;
    EXPECT_EQ(*result.leader, 1u) << rep;
  }
}

TEST(Alg2Threads, SingleNode) {
  const auto result = run_on_threads({5}, {}, ThreadAlg::alg2);
  ASSERT_TRUE(result.completed);
  EXPECT_EQ(result.pulses, 11u);
  EXPECT_EQ(result.leader_count, 1u);
}

TEST(Alg1Threads, StabilizesAndHarnessDetectsQuiescence) {
  const std::vector<std::uint64_t> ids{5, 9, 2, 7, 1};
  const auto result = run_on_threads(ids, {}, ThreadAlg::alg1);
  ASSERT_TRUE(result.completed);
  EXPECT_EQ(result.pulses, 5u * 9u);  // Corollary 13
  EXPECT_EQ(result.leader_count, 1u);
  EXPECT_EQ(*result.leader, 1u);
  for (const auto& out : result.outcomes) {
    EXPECT_TRUE(out.stopped);  // ended by the quiescence monitor
    EXPECT_FALSE(out.terminated);
    EXPECT_EQ(out.counters.rho_cw, 9u);
    EXPECT_EQ(out.counters.sigma_cw, 9u);
  }
}

TEST(Alg3Threads, ElectsAndOrientsOnScrambledRing) {
  const std::vector<std::uint64_t> ids{6, 11, 3, 9};
  const std::vector<bool> flips{true, false, true, true};
  const auto result =
      run_on_threads(ids, flips, ThreadAlg::alg3_improved);
  ASSERT_TRUE(result.completed);
  EXPECT_EQ(result.pulses, co::theorem1_pulses(4, 11));
  EXPECT_EQ(result.leader_count, 1u);
  EXPECT_EQ(*result.leader, 1u);
  // Declared CW ports must be consistent: all equal to the physical CW port
  // or all equal to the physical CCW port.
  bool all_cw = true, all_ccw = true;
  for (sim::NodeId v = 0; v < ids.size(); ++v) {
    if (result.outcomes[v].cw_port == co::physical_cw_port(flips, v)) {
      all_ccw = false;
    } else {
      all_cw = false;
    }
  }
  EXPECT_TRUE(all_cw || all_ccw);
}

TEST(Alg3Threads, DoubledSchemeCount) {
  const std::vector<std::uint64_t> ids{3, 5, 2};
  const auto result = run_on_threads(ids, {}, ThreadAlg::alg3_doubled);
  ASSERT_TRUE(result.completed);
  EXPECT_EQ(result.pulses, co::prop15_pulses(3, 5));
  EXPECT_EQ(result.leader_count, 1u);
}

TEST(Threads, AgreesWithSimulatorAcrossConfigurations) {
  // Cross-validation: the two execution models must produce identical
  // outputs and pulse totals for identical inputs.
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const auto ids = test::sparse_ids(2 + seed % 5, 30, seed);
    sim::RandomScheduler sched(seed);
    const auto simulated = co::elect_oriented_terminating(ids, sched);
    const auto threaded = run_on_threads(ids, {}, ThreadAlg::alg2);
    ASSERT_TRUE(simulated.valid_election());
    ASSERT_TRUE(threaded.completed);
    EXPECT_EQ(threaded.pulses, simulated.pulses) << "seed " << seed;
    ASSERT_TRUE(threaded.leader.has_value());
    EXPECT_EQ(*threaded.leader, *simulated.leader) << "seed " << seed;
    for (sim::NodeId v = 0; v < ids.size(); ++v) {
      EXPECT_EQ(threaded.outcomes[v].role, simulated.nodes[v].role);
      EXPECT_EQ(threaded.outcomes[v].counters.rho_cw,
                simulated.nodes[v].rho_cw);
      EXPECT_EQ(threaded.outcomes[v].counters.rho_ccw,
                simulated.nodes[v].rho_ccw);
    }
  }
}

TEST(Threads, LargerRing) {
  const auto ids = test::shuffled(test::dense_ids(16), 3);
  const auto result = run_on_threads(ids, {}, ThreadAlg::alg2);
  ASSERT_TRUE(result.completed);
  EXPECT_EQ(result.pulses, co::theorem1_pulses(16, 16));
  EXPECT_EQ(result.leader_count, 1u);
}


TEST(Alg3Threads, DoubledSchemeAllScramblesSmallRing) {
  const std::vector<std::uint64_t> ids{3, 7, 2};
  for (const auto& flips : test::all_flip_masks(3)) {
    const auto result = run_on_threads(ids, flips, ThreadAlg::alg3_doubled);
    ASSERT_TRUE(result.completed);
    EXPECT_EQ(result.pulses, co::prop15_pulses(3, 7));
    EXPECT_EQ(result.leader_count, 1u);
    EXPECT_EQ(*result.leader, 1u);
  }
}

TEST(Alg3Threads, ImprovedSchemeRepeatedScrambledRuns) {
  const std::vector<std::uint64_t> ids{6, 11, 3, 9, 1};
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const auto flips = test::random_flips(ids.size(), seed);
    const auto result =
        run_on_threads(ids, flips, ThreadAlg::alg3_improved);
    ASSERT_TRUE(result.completed) << seed;
    EXPECT_EQ(result.pulses, co::theorem1_pulses(5, 11)) << seed;
    EXPECT_EQ(result.leader_count, 1u) << seed;
  }
}

TEST(Alg1Threads, SingleNodeSelfLoop) {
  const auto result = run_on_threads({6}, {}, ThreadAlg::alg1);
  ASSERT_TRUE(result.completed);
  EXPECT_EQ(result.pulses, 6u);
  EXPECT_EQ(result.leader_count, 1u);
  EXPECT_TRUE(result.outcomes[0].stopped);
}

TEST(Threads, NonUniqueIdsStabilizeOnThreadsToo) {
  // Lemma 16 on real threads: duplicated maxima all end Leader.
  const std::vector<std::uint64_t> ids{4, 2, 4, 1};
  const auto result = run_on_threads(ids, {}, ThreadAlg::alg1);
  ASSERT_TRUE(result.completed);
  EXPECT_EQ(result.pulses, 4u * 4u);
  EXPECT_EQ(result.leader_count, 2u);
  EXPECT_EQ(result.outcomes[0].role, co::Role::leader);
  EXPECT_EQ(result.outcomes[2].role, co::Role::leader);
}

}  // namespace
}  // namespace colex::rt
