// Soak-harness suite (src/svc): the churn engine's determinism and
// validity, the supervisor's service-level contract (unique max-ID leader
// within the Theorem 1 pulse bound on every completed election, with the
// guaranteed-clean final rung making the retry loop self-healing), and a
// bounded end-to-end soak whose report, merged metrics, and snapshot file
// must all tell the same story.
#include <gtest/gtest.h>

#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "digest.hpp"
#include "obs/export.hpp"
#include "svc/churn.hpp"
#include "svc/soak.hpp"
#include "svc/supervisor.hpp"
#include "util/contracts.hpp"

namespace colex {
namespace {

using svc::ChurnEngine;
using svc::ChurnPreset;
using svc::ChurnProfile;
using svc::RingSpec;
using co::Algorithm;

// --- ChurnEngine -----------------------------------------------------------

TEST(ChurnEngine, SpecIsAPureFunctionOfItsCoordinates) {
  const ChurnEngine a(42, 7, ChurnProfile::preset(ChurnPreset::storm));
  const ChurnEngine b(42, 7, ChurnProfile::preset(ChurnPreset::storm));
  for (std::uint64_t election = 0; election < 20; ++election) {
    for (unsigned attempt = 0; attempt < 3; ++attempt) {
      const RingSpec x = a.spec(election, attempt, 2);
      const RingSpec y = b.spec(election, attempt, 2);
      EXPECT_EQ(x.ids, y.ids);
      EXPECT_EQ(x.alg, y.alg);
      EXPECT_EQ(x.schedule_seed, y.schedule_seed);
      EXPECT_EQ(x.max_events, y.max_events);
      EXPECT_EQ(x.faults.script.size(), y.faults.script.size());
      EXPECT_EQ(x.faults.seed, y.faults.seed);
    }
  }
}

// Pins every field of 256 specs of the soak-churn workload's preset. The
// event budget and the fault horizon are derived from the ring's pulse
// count, so a changed count formula would silently reshape the workload.
TEST(ChurnEngine, GoldenDigestOfTheFirst256Specs) {
  const ChurnProfile profile = ChurnProfile::preset(ChurnPreset::steady);
  test::Digest d;
  for (std::size_t slot = 0; slot < 16; ++slot) {
    const ChurnEngine engine(7, slot, profile);
    for (std::uint64_t election = 0; election < 4; ++election) {
      for (unsigned attempt = 0; attempt < 4; ++attempt) {
        const RingSpec s = engine.spec(election, attempt, 2);
        d.str(to_string(s.alg));
        d.u64s(s.ids);
        d.u64(s.schedule_seed);
        d.plan(s.faults);
        d.u64(s.max_events);
      }
    }
  }
  EXPECT_EQ(d.value(), 0xa8637343fa3180ffULL);
}

TEST(ChurnEngine, DistinctSlotsAndElectionsDecorrelate) {
  const ChurnProfile profile = ChurnProfile::preset(ChurnPreset::steady);
  const ChurnEngine slot0(1, 0, profile);
  const ChurnEngine slot1(1, 1, profile);
  std::size_t identical = 0;
  const std::size_t trials = 50;
  for (std::uint64_t e = 0; e < trials; ++e) {
    if (slot0.spec(e, 0, 2).schedule_seed == slot1.spec(e, 0, 2).schedule_seed) {
      ++identical;
    }
    if (slot0.spec(e, 0, 2).schedule_seed ==
        slot0.spec(e + 1, 0, 2).schedule_seed) {
      ++identical;
    }
  }
  EXPECT_EQ(identical, 0u);
}

TEST(ChurnEngine, SpecsAreValidAndCleanAfterTheCleanRung) {
  for (const ChurnPreset preset :
       {ChurnPreset::calm, ChurnPreset::steady, ChurnPreset::storm}) {
    const ChurnEngine engine(9, 3, ChurnProfile::preset(preset));
    std::size_t faulty_specs = 0;
    for (std::uint64_t e = 0; e < 60; ++e) {
      for (unsigned attempt = 0; attempt < 4; ++attempt) {
        const RingSpec spec = engine.spec(e, attempt, /*clean_after=*/2);
        EXPECT_EQ(spec.faults.validate(), "");
        EXPECT_GE(spec.ids.size(), engine.profile().min_n);
        EXPECT_LE(spec.ids.size(), engine.profile().max_n);
        EXPECT_GT(spec.max_events, 0u);
        if (attempt >= 2) {
          // The backoff ladder's final rung: provably fault-free.
          EXPECT_TRUE(spec.faults.trivial());
        } else if (!spec.faults.trivial()) {
          ++faulty_specs;
        }
      }
    }
    // The storm preset must actually storm; even calm churns sometimes.
    EXPECT_GT(faulty_specs, 0u) << svc::to_string(preset);
  }
}

TEST(ChurnEngine, EventBudgetDoublesPerAttempt) {
  const ChurnEngine engine(5, 0, ChurnProfile::preset(ChurnPreset::calm));
  // Budgets across retry attempts for a fixed election grow monotonically
  // (ring size varies per attempt, so compare against the clean-run scale).
  for (std::uint64_t e = 0; e < 10; ++e) {
    const RingSpec first = engine.spec(e, 0, 2);
    EXPECT_GE(first.max_events,
              4 * co::theorem1_pulses(first.ids.size(), first.id_max()));
    const RingSpec retry = engine.spec(e, 3, 2);
    EXPECT_GE(retry.max_events,
              8 * co::theorem1_pulses(retry.ids.size(), retry.id_max()));
  }
}

// --- run_attempt: the paper's exact budgets, re-proved per attempt --------

RingSpec clean_spec(Algorithm alg, std::vector<std::uint64_t> ids) {
  RingSpec spec;
  spec.alg = alg;
  spec.ids = std::move(ids);
  spec.schedule_seed = 11;
  spec.max_events = 100'000;
  return spec;
}

TEST(RunAttempt, CleanAlg2UsesExactlyTheTheorem1Budget) {
  const auto spec = clean_spec(Algorithm::alg2, {3, 7, 2, 5});
  const svc::AttemptResult a = svc::run_attempt(spec);
  EXPECT_EQ(a.outcome, sim::FaultOutcome::recovered_correct) << a.diagnosis;
  // Theorem 1: exactly n(2 * IDmax + 1) pulses, which is also the bound.
  EXPECT_EQ(a.pulses, 4u * (2u * 7u + 1u));
  EXPECT_EQ(a.pulse_bound, a.pulses);
  EXPECT_TRUE(a.within_bound);
  EXPECT_TRUE(a.unique_leader);
  EXPECT_TRUE(a.leader_is_max);
}

TEST(RunAttempt, CleanAlg1UsesCorollary13Pulses) {
  const auto spec = clean_spec(Algorithm::alg1, {4, 9, 1});
  const svc::AttemptResult a = svc::run_attempt(spec);
  EXPECT_EQ(a.outcome, sim::FaultOutcome::recovered_correct) << a.diagnosis;
  EXPECT_EQ(a.pulses, 3u * 9u);  // Corollary 13: n * IDmax
  EXPECT_EQ(a.pulse_bound, a.pulses);
  EXPECT_TRUE(a.within_bound);
  EXPECT_TRUE(a.unique_leader);
  EXPECT_TRUE(a.leader_is_max);
}

TEST(RunAttempt, CoroBackendMatchesSimOnCleanRings) {
  // The same clean specs, re-run on the coroutine executor: identical
  // classification and the identical exact pulse budgets. Pulse counts are
  // schedule-independent on both substrates, so these must agree bit-for-bit
  // with the sim expectations above.
  const auto alg2 = clean_spec(Algorithm::alg2, {3, 7, 2, 5});
  const svc::AttemptResult a2 =
      svc::run_attempt(alg2, svc::SoakBackend::coro);
  EXPECT_EQ(a2.outcome, sim::FaultOutcome::recovered_correct) << a2.diagnosis;
  EXPECT_TRUE(a2.on_coro);
  EXPECT_EQ(a2.pulses, 4u * (2u * 7u + 1u));
  EXPECT_TRUE(a2.unique_leader);
  EXPECT_TRUE(a2.leader_is_max);

  const auto alg1 = clean_spec(Algorithm::alg1, {4, 9, 1});
  const svc::AttemptResult a1 =
      svc::run_attempt(alg1, svc::SoakBackend::coro);
  EXPECT_EQ(a1.outcome, sim::FaultOutcome::recovered_correct) << a1.diagnosis;
  EXPECT_TRUE(a1.on_coro);
  EXPECT_EQ(a1.pulses, 3u * 9u);
  EXPECT_EQ(a1.pulse_bound, a1.pulses);
  EXPECT_TRUE(a1.unique_leader);
  EXPECT_TRUE(a1.leader_is_max);
}

TEST(RunAttempt, SocketBackendMatchesSimOnCleanRings) {
  // The same clean specs once more, now over real loopback TCP (src/net):
  // identical classification and the identical exact pulse budgets, with
  // the quiescence coordinator proving sent == consumed on the wire.
  const auto alg2 = clean_spec(Algorithm::alg2, {3, 7, 2, 5});
  const svc::AttemptResult a2 =
      svc::run_attempt(alg2, svc::SoakBackend::socket);
  EXPECT_EQ(a2.outcome, sim::FaultOutcome::recovered_correct) << a2.diagnosis;
  EXPECT_TRUE(a2.on_socket);
  EXPECT_EQ(a2.pulses, 4u * (2u * 7u + 1u));
  EXPECT_EQ(a2.report.deliveries, a2.pulses);  // wire conservation
  EXPECT_TRUE(a2.unique_leader);
  EXPECT_TRUE(a2.leader_is_max);

  const auto alg1 = clean_spec(Algorithm::alg1, {4, 9, 1});
  const svc::AttemptResult a1 =
      svc::run_attempt(alg1, svc::SoakBackend::socket);
  EXPECT_EQ(a1.outcome, sim::FaultOutcome::recovered_correct) << a1.diagnosis;
  EXPECT_TRUE(a1.on_socket);
  EXPECT_EQ(a1.pulses, 3u * 9u);
  EXPECT_EQ(a1.report.deliveries, a1.pulses);
  EXPECT_TRUE(a1.unique_leader);
  EXPECT_TRUE(a1.leader_is_max);
}

TEST(RunAttempt, CoroBackendLeavesFaultyAttemptsOnSim) {
  // Fault injection lives on the simulator: a non-trivial plan must run
  // there even when the policy selects the coro backend.
  RingSpec spec = clean_spec(Algorithm::alg2, {3, 7, 2, 5});
  spec.faults.preseed_channels.push_back({0, 1});
  ASSERT_FALSE(spec.faults.trivial());
  const svc::AttemptResult a =
      svc::run_attempt(spec, svc::SoakBackend::coro);
  EXPECT_FALSE(a.on_coro);
}

// --- run_supervised: the self-healing guarantee ---------------------------

TEST(RunSupervised, StormChurnAlwaysCompletesWithinPolicy) {
  // clean_after_attempts < max_attempts guarantees a fault-free final rung,
  // so every election must end recovered_correct — never abandoned, never
  // safety-violated — even under the heaviest churn preset.
  const ChurnEngine engine(123, 0, ChurnProfile::preset(ChurnPreset::storm));
  svc::SupervisorPolicy policy;
  std::uint64_t retried = 0;
  for (std::uint64_t election = 0; election < 120; ++election) {
    const svc::ElectionReport report =
        svc::run_supervised(engine, election, policy);
    ASSERT_TRUE(report.completed)
        << "election " << election << ": " << report.diagnosis;
    EXPECT_FALSE(report.abandoned);
    EXPECT_LE(report.attempts, policy.max_attempts);
    EXPECT_LE(report.pulses, report.pulse_bound);
    if (report.attempts > 1) ++retried;
  }
  // The storm preset must have forced at least some retries, or the test
  // proves nothing about the retry path.
  EXPECT_GT(retried, 0u);
}

TEST(RunSupervised, RejectsPolicyWithoutACleanRung) {
  const ChurnEngine engine(1, 0, ChurnProfile::preset(ChurnPreset::calm));
  svc::SupervisorPolicy policy;
  policy.max_attempts = 2;
  policy.clean_after_attempts = 2;  // clean rung unreachable
  EXPECT_THROW(svc::run_supervised(engine, 0, policy),
               util::ContractViolation);
}

// --- run_soak: end-to-end, bounded by election count ----------------------

TEST(RunSoak, ASoakThatElectedNobodyFailsTheGate) {
  svc::SoakReport empty;
  EXPECT_FALSE(empty.ok());
  svc::SoakOptions options;
  options.duration_seconds = 0.0;
  options.rings = 4;
  options.shards = 1;
  const svc::SoakReport report = svc::run_soak(options);
  EXPECT_EQ(report.completed, 0u) << report.to_json();
  EXPECT_FALSE(report.ok());
  EXPECT_NE(report.to_json().find("\"ok\":false"), std::string::npos);
}

TEST(RunSoak, BoundedSoakCompletesEveryElectionAndReportsConsistently) {
  const std::string snapshot = "test_svc_soak_snapshot.jsonl";
  svc::SoakOptions options;
  options.duration_seconds = 0.0;  // stop as soon as min_elections is met
  options.rings = 64;
  options.shards = 4;
  options.seed = 77;
  options.min_elections = 150;
  options.snapshot_path = snapshot;
  const svc::SoakReport report = svc::run_soak(options);

  EXPECT_TRUE(report.ok()) << report.to_json();
  EXPECT_GE(report.started, 150u);
  EXPECT_EQ(report.started, report.completed);
  EXPECT_EQ(report.safety_violated, 0u);
  EXPECT_EQ(report.diverged, 0u);
  EXPECT_EQ(report.abandoned, 0u);
  EXPECT_GE(report.attempts, report.started);
  EXPECT_EQ(report.rings, 64u);
  EXPECT_EQ(report.shards_used, 4u);
  ASSERT_EQ(report.shards.size(), 4u);
  std::uint64_t shard_sum = 0;
  for (const auto& shard : report.shards) shard_sum += shard.elections;
  EXPECT_EQ(shard_sum, report.started);
  EXPECT_EQ(report.latency_ms.count, report.started);

  // The merged registry and the report must agree.
  for (const auto& [name, counter] : report.metrics.counters()) {
    if (name == "svc.elections.started") {
      EXPECT_EQ(counter->value(), report.started);
    } else if (name == "svc.elections.completed") {
      EXPECT_EQ(counter->value(), report.completed);
    } else if (name == "svc.attempts") {
      EXPECT_EQ(counter->value(), report.attempts);
    }
  }

  // The one-line JSON carries the keys ci.sh gates on.
  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"schema\":\"colex-soak-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"safety_violated\":0"), std::string::npos);
  EXPECT_NE(json.find("\"diverged\":0"), std::string::npos);
  EXPECT_NE(json.find("\"abandoned\":0"), std::string::npos);
  EXPECT_NE(json.find("\"ok\":true"), std::string::npos);

  // The snapshot file is a loadable colex-trace-v1 metrics carrier (the
  // final rewrite embeds the fully merged registry).
  ASSERT_GE(report.snapshots_written, 1u);
  const obs::LoadedTrace trace = obs::load_jsonl_file(snapshot);
  EXPECT_EQ(trace.meta.algorithm, "soak");
  EXPECT_EQ(trace.meta.n, 0u);  // no single ring shape: audit is skipped
  EXPECT_NE(trace.metrics_json.find("svc.elections.started"),
            std::string::npos);
  std::remove(snapshot.c_str());
}

TEST(RunSoak, CoroBackendHoldsTheServiceGate) {
  // A bounded soak with clean attempts on the coroutine executor: the
  // service-level gate must hold exactly as on sim, and the attempt tally
  // must show the coro path actually ran.
  svc::SoakOptions options;
  options.duration_seconds = 0.0;
  options.rings = 16;
  options.shards = 2;
  options.seed = 91;
  options.min_elections = 40;
  options.policy.backend = svc::SoakBackend::coro;
  const svc::SoakReport report = svc::run_soak(options);

  EXPECT_TRUE(report.ok()) << report.to_json();
  EXPECT_EQ(report.backend, "coro");
  EXPECT_GT(report.coro_attempts, 0u);
  EXPECT_LE(report.coro_attempts, report.attempts);
  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"backend\":\"coro\""), std::string::npos);
  EXPECT_NE(json.find("\"ok\":true"), std::string::npos);
}

TEST(RunSoak, SocketBackendHoldsTheServiceGate) {
  // A bounded soak with clean attempts on real loopback TCP rings: same
  // gate, and the tally must show the socket path actually ran.
  svc::SoakOptions options;
  options.duration_seconds = 0.0;
  options.rings = 8;
  options.shards = 2;
  options.seed = 92;
  options.min_elections = 16;
  options.policy.backend = svc::SoakBackend::socket;
  const svc::SoakReport report = svc::run_soak(options);

  EXPECT_TRUE(report.ok()) << report.to_json();
  EXPECT_EQ(report.backend, "socket");
  EXPECT_GT(report.socket_attempts, 0u);
  EXPECT_LE(report.socket_attempts, report.attempts);
  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"backend\":\"socket\""), std::string::npos);
  EXPECT_NE(json.find("\"ok\":true"), std::string::npos);
}

TEST(RunSoak, MaxElectionsStopsTheRunEarly) {
  svc::SoakOptions options;
  options.duration_seconds = 30.0;  // would run far longer than the cap
  options.rings = 8;
  options.shards = 2;
  options.seed = 5;
  options.max_elections = 40;
  const svc::SoakReport report = svc::run_soak(options);
  EXPECT_TRUE(report.ok()) << report.to_json();
  EXPECT_GE(report.started, 40u);
  // Each shard overshoots by at most its in-flight election.
  EXPECT_LE(report.started, 40u + report.shards_used);
  EXPECT_LT(report.wall_seconds, 25.0);
}

TEST(RunSoak, HugeDurationSaturatesInsteadOfEndingAtOnce) {
  // duration_cast of 1e300 s overflows; the deadline must saturate (run
  // until max_elections), not land in the past and stop at 0 elections.
  svc::SoakOptions options;
  options.duration_seconds = 1e300;
  options.rings = 4;
  options.shards = 1;
  options.seed = 9;
  options.max_elections = 20;
  const svc::SoakReport report = svc::run_soak(options);
  EXPECT_TRUE(report.ok()) << report.to_json();
  EXPECT_EQ(report.completed, 20u) << report.to_json();
}

TEST(RunSoak, RejectsANonFiniteDuration) {
  svc::SoakOptions options;
  options.max_elections = 1;
  for (const double d : {std::numeric_limits<double>::infinity(),
                         std::numeric_limits<double>::quiet_NaN(), -1.0}) {
    options.duration_seconds = d;
    EXPECT_THROW(svc::run_soak(options), util::ContractViolation) << d;
  }
}

}  // namespace
}  // namespace colex
