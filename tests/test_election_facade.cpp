// Tests for the public façade (co/election.hpp): result predicates, the
// exact-formula helpers, ground-truth port geometry, and precondition
// enforcement.
#include <gtest/gtest.h>

#include "co/election.hpp"
#include "helpers.hpp"

namespace colex::co {
namespace {

TEST(Facade, FormulaHelpers) {
  EXPECT_EQ(theorem1_pulses(1, 1), 3u);
  EXPECT_EQ(theorem1_pulses(8, 20), 8u * 41u);
  EXPECT_EQ(prop15_pulses(1, 1), 3u);
  EXPECT_EQ(prop15_pulses(8, 20), 8u * 79u);
  // The improved scheme always wins for IDmax > 1.
  for (std::uint64_t idm = 2; idm < 40; ++idm) {
    EXPECT_LT(theorem1_pulses(5, idm), prop15_pulses(5, idm));
  }
  EXPECT_EQ(theorem1_pulses(1, 1), prop15_pulses(1, 1));
}

// The catalogue (co/algorithms.hpp): the names round-trip and nothing else
// parses, and each algorithm's exact count is its claim's formula.
TEST(Catalogue, NamesRoundTripAndCountsMatchTheirTheorems) {
  for (std::size_t i = 0; i < std::size(kAlgorithms); ++i) {
    const Algorithm alg = kAlgorithms[i];
    EXPECT_EQ(static_cast<std::size_t>(alg), i);
    EXPECT_EQ(from_string(to_string(alg)), alg) << to_string(alg);
    EXPECT_EQ(exact_pulses(alg, 5, 0), 0u) << to_string(alg);
  }
  for (const char* name : {"", "alg3_doubled", "alg3", "ALG2", "alg9"}) {
    EXPECT_EQ(from_string(name), std::nullopt) << name;
  }
  for (const std::uint64_t n : {1u, 3u, 8u}) {
    for (const std::uint64_t m : {1u, 2u, 20u}) {
      EXPECT_EQ(exact_pulses(Algorithm::alg1, n, m), n * m);  // Cor. 13
      EXPECT_EQ(exact_pulses(Algorithm::alg2, n, m), n * (2 * m + 1));
      EXPECT_EQ(exact_pulses(Algorithm::alg3_doubled, n, m), n * (4 * m - 1));
      // Prop. 15 is Theorem 1 over the doubled scheme's virtual IDmax.
      EXPECT_EQ(exact_pulses(Algorithm::alg3_doubled, n, m),
                theorem1_pulses(n, 2 * m - 1));
      EXPECT_EQ(exact_pulses(Algorithm::alg3_improved, n, m),
                n * (2 * m + 1));  // Theorem 2
      EXPECT_EQ(exact_pulses(Algorithm::alg4, n, m), n * (2 * m + 1));
    }
  }
  // alg4 runs Algorithm 3 improved on the IDs it sampled.
  const AlgorithmFacts& a3 = facts(Algorithm::alg3_improved);
  const AlgorithmFacts& a4 = facts(Algorithm::alg4);
  EXPECT_EQ(a4.oriented, a3.oriented);
  EXPECT_EQ(a4.terminates, a3.terminates);
  EXPECT_EQ(a4.scheme, a3.scheme);
  EXPECT_TRUE(a4.samples_ids);
}

// Every catalogue entry builds simulator nodes that elect the max-ID node
// with exactly the catalogue's count.
TEST(Catalogue, EveryAlgorithmHasAnAutomatonThatHitsItsCount) {
  const std::vector<std::uint64_t> ids = {3, 7, 5};
  for (const Algorithm alg : kAlgorithms) {
    const std::vector<bool> flips = {true, false, true};
    auto net = sim::PulseNetwork::ring(
        ids.size(), facts(alg).oriented ? std::vector<bool>{} : flips);
    for (sim::NodeId v = 0; v < ids.size(); ++v) {
      net.set_automaton(v, make_automaton(alg, ids[v]));
    }
    sim::GlobalFifoScheduler sched;
    const sim::RunReport report = net.run(sched);
    EXPECT_TRUE(report.quiescent) << to_string(alg);
    EXPECT_EQ(report.all_terminated, facts(alg).terminates) << to_string(alg);
    EXPECT_EQ(report.sent, exact_pulses(alg, 3, 7)) << to_string(alg);
    ElectionResult tally;
    tally_leaders(tally, ids.size(),
                  [&net](std::size_t v) { return role_at(net, v); });
    EXPECT_EQ(tally.leader_count, 1u) << to_string(alg);
    EXPECT_EQ(tally.leader, 1u) << to_string(alg);
    EXPECT_EQ(net.automaton_as<ElectionAutomaton>(1).id(), 7u);
  }
}

TEST(Facade, EachEntryPointReportsItsAlgorithmsExactCount) {
  const std::vector<std::uint64_t> ids = {4, 9, 1};
  sim::GlobalFifoScheduler sched;
  const auto stabilizing = elect_oriented_stabilizing(ids, sched);
  EXPECT_EQ(stabilizing.pulse_bound, 3u * 9u);  // Corollary 13
  EXPECT_EQ(stabilizing.pulses, stabilizing.pulse_bound);
  const auto terminating = elect_oriented_terminating(ids, sched);
  EXPECT_EQ(terminating.pulse_bound, theorem1_pulses(3, 9));
  EXPECT_EQ(terminating.pulses, terminating.pulse_bound);
  Alg3NonOriented::Options options;
  for (const IdScheme scheme : {IdScheme::improved, IdScheme::doubled}) {
    options.scheme = scheme;
    const auto oriented = elect_and_orient(ids, {false, true, true}, options,
                                           sched);
    EXPECT_EQ(oriented.pulse_bound, scheme == IdScheme::improved
                                        ? theorem1_pulses(3, 9)
                                        : prop15_pulses(3, 9));
    EXPECT_EQ(oriented.pulses, oriented.pulse_bound) << to_string(scheme);
  }
}

TEST(Facade, ValidElectionPredicate) {
  ElectionResult result;
  result.nodes.resize(3);
  result.nodes[0].role = Role::non_leader;
  result.nodes[1].role = Role::leader;
  result.nodes[2].role = Role::non_leader;
  result.leader = 1;
  result.leader_count = 1;
  EXPECT_TRUE(result.valid_election());

  result.leader_count = 2;
  EXPECT_FALSE(result.valid_election());

  result.leader_count = 1;
  result.nodes[2].role = Role::undecided;
  EXPECT_FALSE(result.valid_election());
}

TEST(Facade, PhysicalCwPortGeometry) {
  EXPECT_EQ(physical_cw_port({}, 0), sim::Port::p1);
  EXPECT_EQ(physical_cw_port({}, 5), sim::Port::p1);
  EXPECT_EQ(physical_cw_port({false, true}, 0), sim::Port::p1);
  EXPECT_EQ(physical_cw_port({false, true}, 1), sim::Port::p0);
}

TEST(Facade, RejectsEmptyIdVector) {
  sim::GlobalFifoScheduler sched;
  EXPECT_THROW(elect_oriented_terminating({}, sched),
               util::ContractViolation);
  EXPECT_THROW(elect_oriented_stabilizing({}, sched),
               util::ContractViolation);
  Alg3NonOriented::Options options;
  EXPECT_THROW(elect_and_orient({}, {}, options, sched),
               util::ContractViolation);
}

TEST(Facade, RejectsMismatchedFlipVector) {
  sim::GlobalFifoScheduler sched;
  Alg3NonOriented::Options options;
  EXPECT_THROW(elect_and_orient({1, 2, 3}, {true}, options, sched),
               util::ContractViolation);
}

TEST(Facade, NodeOutcomeSnapshotsMatchAlgorithmCounters) {
  const std::vector<std::uint64_t> ids{5, 9, 2};
  sim::GlobalFifoScheduler sched;
  const auto result = elect_oriented_terminating(ids, sched);
  ASSERT_EQ(result.nodes.size(), 3u);
  for (std::size_t v = 0; v < 3; ++v) {
    EXPECT_EQ(result.nodes[v].id, ids[v]);
    EXPECT_EQ(result.nodes[v].sigma_cw, result.nodes[v].rho_cw);
    EXPECT_EQ(result.nodes[v].sigma_ccw, result.nodes[v].rho_ccw);
  }
  EXPECT_EQ(result.pulses,
            3 * 9 + 3 * 10u);  // n*IDmax CW + n*(IDmax+1) CCW
}

TEST(Facade, StabilizingAndTerminatingAgree) {
  // Same ring, both algorithms: identical leader, and alg2's CW-phase
  // counters coincide with alg1's totals.
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const auto ids = test::sparse_ids(4 + seed % 4, 60, seed);
    sim::RandomScheduler s1(seed), s2(seed + 100);
    const auto stab = elect_oriented_stabilizing(ids, s1);
    const auto term = elect_oriented_terminating(ids, s2);
    ASSERT_TRUE(stab.valid_election());
    ASSERT_TRUE(term.valid_election());
    EXPECT_EQ(*stab.leader, *term.leader);
    for (std::size_t v = 0; v < ids.size(); ++v) {
      EXPECT_EQ(stab.nodes[v].rho_cw, term.nodes[v].rho_cw);
    }
  }
}

TEST(Facade, OrientationAgreesBetweenAlg3AndGroundTruth) {
  // On an ORIENTED ring (no flips), every node's declared CW port must be
  // the physical Port1.
  const std::vector<std::uint64_t> ids{5, 9, 2, 7};
  Alg3NonOriented::Options options;
  sim::GlobalFifoScheduler sched;
  const auto result = elect_and_orient(ids, {}, options, sched);
  ASSERT_TRUE(result.orientation_consistent);
  for (std::size_t v = 0; v < ids.size(); ++v) {
    EXPECT_EQ(result.cw_ports[v], sim::Port::p1);
  }
}

TEST(Facade, ReportExposedForDiagnostics) {
  const std::vector<std::uint64_t> ids{3, 6};
  sim::GlobalFifoScheduler sched;
  const auto result = elect_oriented_terminating(ids, sched);
  EXPECT_EQ(result.report.sent, result.pulses);
  EXPECT_GT(result.report.deliveries, 0u);
  EXPECT_FALSE(result.report.hit_event_limit);
  EXPECT_FALSE(result.report.stalled);
}

TEST(Facade, EventLimitSurfacesInResult) {
  const std::vector<std::uint64_t> ids{1000, 2, 1};
  sim::GlobalFifoScheduler sched;
  sim::RunOptions opts;
  opts.max_events = 50;  // far below the ~6000 needed
  const auto result = elect_oriented_terminating(ids, sched, opts);
  EXPECT_TRUE(result.report.hit_event_limit);
  EXPECT_FALSE(result.quiescent);
  EXPECT_FALSE(result.all_terminated);
}

}  // namespace
}  // namespace colex::co
