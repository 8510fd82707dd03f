// Seeded case generators for the property-based fuzzing harness.
//
// A FuzzCase is plain data: everything needed to re-execute one adversarial
// run bit-for-bit — ring shape (n, IDs incl. duplicates and extremes, port
// orientation), the algorithm under test, the schedule (either a seed for a
// generated biased-walk/mixture scheduler or an explicit recorded tape of
// channel choices), and a sim::FaultPlan within the documented fault
// boundaries (DESIGN.md §12) plus an optional declarative state corruption.
// generate_case(seed) is a pure function of (seed, options): the same seed
// always yields the same case, which is what makes fuzz campaigns, shrinking
// and committed repro files reproducible.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "co/algorithms.hpp"
#include "sim/faults.hpp"
#include "sim/scheduler.hpp"
#include "sim/types.hpp"

namespace colex::qa {

/// Declarative analogue of sim::FaultInjector's StateCorruptor: overwrite
/// one node's counters before the run starts. Serializable, unlike the
/// std::function form. Counter slots map to (rho_cw, sigma_cw, rho_ccw,
/// sigma_ccw) for the oriented algorithms and (rho[0], sigma[0], rho[1],
/// sigma[1]) for Algorithm 3.
struct CorruptSpec {
  bool active = false;
  sim::NodeId node = 0;
  std::uint64_t counters[4] = {0, 0, 0, 0};

  friend bool operator==(const CorruptSpec& a, const CorruptSpec& b) {
    return a.active == b.active && a.node == b.node &&
           a.counters[0] == b.counters[0] && a.counters[1] == b.counters[1] &&
           a.counters[2] == b.counters[2] && a.counters[3] == b.counters[3];
  }
};

/// One reproducible fuzzing input. `tape` empty means "drive with the
/// scheduler derived from schedule_seed"; non-empty means "replay these
/// channel choices verbatim" (ReplayScheduler semantics: a choice that is
/// not pending falls back to global-FIFO deterministically).
struct FuzzCase {
  std::uint64_t seed = 0;  ///< generator seed that produced this case
  /// alg4 samples its IDs with Algorithm 4, clamped to the generator's ID
  /// cap so runs stay bounded.
  co::Algorithm alg = co::Algorithm::alg2;
  std::vector<std::uint64_t> ids;
  std::vector<bool> port_flips;  ///< empty = oriented
  std::uint64_t schedule_seed = 1;
  std::vector<std::size_t> tape;
  sim::FaultPlan faults;
  CorruptSpec corrupt;
  std::uint64_t max_events = 50'000;  ///< livelock guard

  std::size_t n() const { return ids.size(); }
  std::uint64_t id_max() const;
  /// True iff the fault plan and corruption spec can provably never act.
  bool clean() const { return faults.trivial() && !corrupt.active; }

  friend bool operator==(const FuzzCase& a, const FuzzCase& b);
};

struct GeneratorOptions {
  std::size_t min_n = 1;
  std::size_t max_n = 6;
  std::uint64_t max_id = 12;
  /// Algorithms drawn from; empty = all five.
  std::vector<co::Algorithm> algorithms;
  /// Fraction of cases that carry a non-trivial fault plan (0 = clean-only).
  double fault_fraction = 0.0;
  std::uint64_t max_events = 50'000;
};

/// Pure function of (seed, options): deterministic, collision-heavy around
/// the boundaries (n=1 self-loops, n=2 multi-edge rings, duplicate IDs for
/// Algorithm 1, all 2^n-ish port scrambles for Algorithm 3).
FuzzCase generate_case(std::uint64_t seed, const GeneratorOptions& options);

/// The schedule adversary a case runs under when its tape is empty: a
/// biased WalkScheduler or a MixScheduler swarm over walks and the standard
/// suite, chosen and seeded by case.schedule_seed. Deterministic.
std::unique_ptr<sim::Scheduler> make_case_scheduler(const FuzzCase& c);

}  // namespace colex::qa
