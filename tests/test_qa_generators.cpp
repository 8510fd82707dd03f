#include <gtest/gtest.h>

#include <set>

#include "digest.hpp"
#include "qa/generators.hpp"
#include "qa/properties.hpp"

namespace colex::qa {
namespace {

using co::Algorithm;

GeneratorOptions defaults() { return {}; }

TEST(Generators, SameSeedSameCase) {
  const GeneratorOptions opts = defaults();
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    const FuzzCase a = generate_case(seed, opts);
    const FuzzCase b = generate_case(seed, opts);
    EXPECT_TRUE(a == b) << "seed " << seed << " is not deterministic";
  }
}

TEST(Generators, SameSeedSameFaultPlan) {
  GeneratorOptions opts;
  opts.fault_fraction = 1.0;
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    const FuzzCase a = generate_case(seed, opts);
    const FuzzCase b = generate_case(seed, opts);
    EXPECT_TRUE(a == b) << "faulty seed " << seed << " is not deterministic";
    EXPECT_FALSE(a.clean());
  }
}

TEST(Generators, DifferentSeedsDiverge) {
  const GeneratorOptions opts = defaults();
  bool any_diff = false;
  const FuzzCase first = generate_case(1, opts);
  for (std::uint64_t seed = 2; seed <= 20 && !any_diff; ++seed) {
    if (!(generate_case(seed, opts) == first)) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(Generators, CasesAreWellFormed) {
  GeneratorOptions opts;
  opts.fault_fraction = 0.3;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    const FuzzCase c = generate_case(seed, opts);
    ASSERT_GE(c.n(), opts.min_n) << "seed " << seed;
    ASSERT_LE(c.n(), opts.max_n) << "seed " << seed;
    for (const std::uint64_t id : c.ids) {
      ASSERT_GE(id, 1u) << "seed " << seed;
      ASSERT_LE(id, opts.max_id) << "seed " << seed;
    }
    // Port flips only appear for the non-oriented algorithms, and then the
    // vector spans the whole ring.
    if (!c.port_flips.empty()) {
      EXPECT_TRUE(c.alg == Algorithm::alg3_doubled ||
                  c.alg == Algorithm::alg3_improved ||
                  c.alg == Algorithm::alg4);
      EXPECT_EQ(c.port_flips.size(), c.n());
    }
    // Scripted faults must satisfy the injector's sortedness contract.
    for (std::size_t i = 1; i < c.faults.script.size(); ++i) {
      EXPECT_LE(c.faults.script[i - 1].at_event, c.faults.script[i].at_event);
    }
    EXPECT_GT(co::exact_pulses(c.alg, c.n(), c.id_max()), 0u);
  }
}

TEST(Generators, BoundaryCoverage) {
  // The boundary bias must actually surface the degenerate rings the paper's
  // proofs quantify over: the n=1 self-loop, the n=2 multi-edge ring, and
  // duplicate IDs (legal for the stabilizing Algorithm 1).
  const GeneratorOptions opts = defaults();
  bool saw_n1 = false, saw_n2 = false, saw_dup_ids = false;
  bool saw_all_equal = false, saw_id_at_cap = false, saw_flip = false;
  for (std::uint64_t seed = 1; seed <= 500; ++seed) {
    const FuzzCase c = generate_case(seed, opts);
    if (c.n() == 1) saw_n1 = true;
    if (c.n() == 2) saw_n2 = true;
    if (c.id_max() == opts.max_id) saw_id_at_cap = true;
    const std::set<std::uint64_t> uniq(c.ids.begin(), c.ids.end());
    if (c.alg == Algorithm::alg1 && uniq.size() < c.n()) {
      saw_dup_ids = true;
      if (uniq.size() == 1 && c.n() > 1) saw_all_equal = true;
    }
    for (const bool f : c.port_flips) {
      if (f) saw_flip = true;
    }
  }
  EXPECT_TRUE(saw_n1);
  EXPECT_TRUE(saw_n2);
  EXPECT_TRUE(saw_dup_ids);
  EXPECT_TRUE(saw_all_equal);
  EXPECT_TRUE(saw_id_at_cap);
  EXPECT_TRUE(saw_flip);
}

TEST(Generators, AlgorithmFilterIsRespected) {
  GeneratorOptions opts;
  opts.algorithms = {Algorithm::alg1, Algorithm::alg3_improved};
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    const FuzzCase c = generate_case(seed, opts);
    EXPECT_TRUE(c.alg == Algorithm::alg1 ||
                c.alg == Algorithm::alg3_improved);
  }
}

TEST(Generators, AllAlgorithmsCovered) {
  const GeneratorOptions opts = defaults();
  std::set<Algorithm> seen;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    seen.insert(generate_case(seed, opts).alg);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Generators, UniqueIdsOutsideAlg1) {
  const GeneratorOptions opts = defaults();
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    const FuzzCase c = generate_case(seed, opts);
    if (c.alg == Algorithm::alg1 || c.alg == Algorithm::alg4) continue;
    const std::set<std::uint64_t> uniq(c.ids.begin(), c.ids.end());
    EXPECT_EQ(uniq.size(), c.n()) << "seed " << seed << " duplicated IDs for "
                                  << to_string(c.alg);
  }
}


// Pins every field of the first 256 generated cases, fault plans included.
// The fault horizon is derived from the case's pulse count, so a changed
// count formula would silently move every scripted fault.
TEST(Generators, GoldenDigestOfTheFirst256Cases) {
  GeneratorOptions opts;
  opts.fault_fraction = 0.5;
  test::Digest d;
  for (std::uint64_t seed = 0; seed < 256; ++seed) {
    const FuzzCase c = generate_case(seed, opts);
    d.u64(c.seed);
    d.str(to_string(c.alg));
    d.u64s(c.ids);
    d.bools(c.port_flips);
    d.u64(c.schedule_seed);
    d.u64(c.tape.size());
    d.plan(c.faults);
    d.u64(c.corrupt.active ? 1 : 0);
    d.u64(c.corrupt.node);
    for (const std::uint64_t k : c.corrupt.counters) d.u64(k);
    d.u64(c.max_events);
  }
  EXPECT_EQ(d.value(), 0x797829413448f792ULL);
}

TEST(Generators, SchedulerIsDeterministicPerCase) {
  const GeneratorOptions opts = defaults();
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    const FuzzCase c = generate_case(seed, opts);
    auto a = make_case_scheduler(c);
    auto b = make_case_scheduler(c);
    ASSERT_NE(a, nullptr);
    EXPECT_EQ(a->name(), b->name());
    // Same scheduler => same executed tape. execute_case records the
    // choices, so two runs of the same case must agree choice-for-choice.
    const RunOutcome ra = execute_case(c);
    const RunOutcome rb = execute_case(c);
    EXPECT_EQ(ra.tape, rb.tape) << "seed " << seed;
    EXPECT_EQ(ra.counters.sent, rb.counters.sent) << "seed " << seed;
  }
}

}  // namespace
}  // namespace colex::qa
