// Churn engine for the election-as-a-service soak harness (see soak.hpp).
//
// A soak run multiplexes thousands of independent ring elections. Each ring
// SLOT lives an endless retire→respawn cycle: sample a fresh ring (size,
// IDs, algorithm), run one election on it under a seeded fault plan, retire
// the ring, respawn a fresh one. The ChurnEngine is the per-slot adversary:
// it schedules crash/recover cycles, fault storms (a burst of
// drop/duplicate/spurious one-shots landing on a single channel), sustained
// probabilistic channel noise, and corrupted initial channel state
// (preseeded pulses) — exactly the fault classes sim/faults.hpp defines.
//
// Everything is a pure function of (soak seed, slot, election index,
// attempt): a soak finding is reproducible from the soak seed alone, and
// two slots (or two attempts) never share a fault stream.
//
// Retry attempts implement the supervisor's exponential backoff at the plan
// level: attempt k respawns a fresh ring with fault intensities decayed by
// 2^-k and the event-budget deadline doubled k times, and from
// `clean_after` attempts onward the plan is provably trivial(). That last
// rung is what makes "abandon → rebuild → re-elect" self-healing: a clean
// sim election always quiesces within its budget, so a supervised election
// whose policy reaches the clean rung cannot end abandoned.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "co/algorithms.hpp"
#include "sim/faults.hpp"

namespace colex::svc {

/// Named churn intensities for the CLI and CI.
enum class ChurnPreset { calm, steady, storm };

const char* to_string(ChurnPreset preset);
bool preset_from_string(const std::string& s, ChurnPreset& out);

/// Intensity knobs for the per-slot churn engine.
struct ChurnProfile {
  /// Fraction of first-attempt elections that run under a non-trivial plan.
  double fault_fraction = 0.5;
  /// Probability a faulty plan schedules crash/recover cycles, and at most
  /// how many (each cycle crashes one node and recovers it later).
  double crash_cycle_prob = 0.5;
  std::size_t max_crash_cycles = 2;
  /// Probability of a fault storm: a burst of drop/duplicate/spurious
  /// one-shots on a single channel at closely spaced event indices.
  double storm_prob = 0.4;
  std::size_t max_storm_len = 6;
  /// Probability of sustained low-rate probabilistic noise on all channels.
  double noise_prob = 0.25;
  /// Probability of corrupted initial channel state (preseeded pulses).
  double preseed_prob = 0.15;
  /// Ring-respawn size band (inclusive) and ID cap.
  std::size_t min_n = 2;
  std::size_t max_n = 8;
  std::uint64_t max_id = 12;

  static ChurnProfile preset(ChurnPreset preset);
};

/// One election work order produced by the churn engine.
struct RingSpec {
  /// Only the oriented algorithms are multiplexed: Algorithm 1 exercises
  /// the stabilizing path (quiescence without termination), Algorithm 2 the
  /// terminating one.
  co::Algorithm alg = co::Algorithm::alg2;
  std::vector<std::uint64_t> ids;   ///< unique; IDmax drives the pulse count
  std::uint64_t schedule_seed = 1;  ///< seeds the adversarial scheduler
  sim::FaultPlan faults;            ///< validate()-clean by construction
  std::uint64_t max_events = 0;     ///< per-attempt deadline (event budget)

  std::uint64_t id_max() const;
};

class ChurnEngine {
 public:
  ChurnEngine(std::uint64_t soak_seed, std::size_t slot, ChurnProfile profile);

  /// Work order for attempt `attempt` of the slot's `election`-th election.
  /// Attempt 0 is the first try; retries respawn a FRESH ring (new size and
  /// IDs) with decayed fault intensity and a doubled event budget, and any
  /// attempt >= `clean_after` carries a trivial() plan. Pure function of
  /// its arguments — calling it twice yields identical specs.
  RingSpec spec(std::uint64_t election, unsigned attempt,
                unsigned clean_after) const;

  const ChurnProfile& profile() const { return profile_; }
  std::size_t slot() const { return slot_; }

 private:
  std::uint64_t seed_;
  std::size_t slot_;
  ChurnProfile profile_;
};

}  // namespace colex::svc
