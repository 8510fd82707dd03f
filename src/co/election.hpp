// High-level entry points for the paper's algorithms: build the ring, run it
// against a chosen adversarial scheduler, and extract structured results.
// This is the primary public API of the library.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "co/alg3.hpp"
#include "co/algorithms.hpp"
#include "co/roles.hpp"
#include "co/sampling.hpp"
#include "sim/network.hpp"
#include "sim/scheduler.hpp"

namespace colex::co {

/// Per-node snapshot after a run.
struct NodeOutcome {
  std::uint64_t id = 0;
  Role role = Role::undecided;
  std::uint64_t rho_cw = 0, sigma_cw = 0;    ///< oriented algorithms
  std::uint64_t rho_ccw = 0, sigma_ccw = 0;  ///< oriented algorithms
  std::uint64_t rho_p0 = 0, rho_p1 = 0;      ///< non-oriented algorithm
};

struct ElectionResult {
  bool quiescent = false;
  bool all_terminated = false;
  std::uint64_t pulses = 0;  ///< total pulses sent, network ground truth
  /// The paper's exact pulse count for this run's algorithm and inputs
  /// (co::exact_pulses): the bound a faulty run is measured against. 0 when
  /// no count applies (IDmax == 0).
  std::uint64_t pulse_bound = 0;
  std::optional<sim::NodeId> leader;
  std::size_t leader_count = 0;
  std::vector<NodeOutcome> nodes;
  sim::RunReport report;

  /// True iff exactly one node is Leader and all others Non-Leader.
  bool valid_election() const;

  /// Slack against the paper's bound, `pulse_bound - pulses`: >= 0 means
  /// the run respected the bound, negative quantifies the violation.
  /// Meaningless (0) when no bound applies.
  std::int64_t pulse_margin() const {
    return pulse_bound == 0
               ? 0
               : static_cast<std::int64_t>(pulse_bound) -
                     static_cast<std::int64_t>(pulses);
  }

  /// True iff a bound applies and the run's pulse count respects it.
  bool within_pulse_bound() const {
    return pulse_bound != 0 && pulses <= pulse_bound;
  }
};

struct OrientationResult : ElectionResult {
  /// Each node's declared CW port (the port it believes leads clockwise).
  std::vector<sim::Port> cw_ports;
  /// True iff all declared CW ports point the same way around the ring.
  bool orientation_consistent = false;
  /// True iff the agreed CW direction is the direction of a pulse sent from
  /// the max-ID node's Port1, which is how Proposition 15 defines clockwise.
  bool orientation_matches_leader_port1 = false;
};

struct AnonymousResult {
  std::vector<SampledId> sampled;
  OrientationResult election;
  /// The Lemma 18 success event; failure of this event is the only way the
  /// election can end without a unique leader.
  bool sampled_unique_max = false;
};

/// A fresh simulator node running `alg` with ID `id` (Algorithm 3 without
/// Prop.-19 resampling for the non-oriented entries).
std::unique_ptr<ElectionAutomaton> make_automaton(Algorithm alg,
                                                  std::uint64_t id);

/// Theorem 4 lower bound: n * floor(log2(k / n)) pulses when k >= n IDs are
/// assignable.
std::uint64_t theorem4_lower_bound(std::uint64_t n, std::uint64_t k);

/// The physical clockwise port of node v in a ring built with `port_flips`
/// (ground truth the nodes themselves cannot see in the non-oriented case).
sim::Port physical_cw_port(const std::vector<bool>& port_flips,
                           sim::NodeId v);

/// Runs Algorithm 1 (stabilizing) on an oriented ring with the given IDs.
/// Duplicate IDs are allowed (Lemma 16); each max-ID holder ends Leader.
/// Message complexity is exactly cor13_pulses(n, IDmax).
ElectionResult elect_oriented_stabilizing(const std::vector<std::uint64_t>& ids,
                                          sim::Scheduler& scheduler,
                                          const sim::RunOptions& opts = {});

/// Runs Algorithm 2 (quiescently terminating) on an oriented ring with
/// unique IDs. Message complexity is exactly theorem1_pulses(n, IDmax).
ElectionResult elect_oriented_terminating(const std::vector<std::uint64_t>& ids,
                                          sim::Scheduler& scheduler,
                                          const sim::RunOptions& opts = {});

/// Runs Algorithm 3 on a (possibly) non-oriented ring: `port_flips[v]`
/// scrambles node v's ports; empty means oriented. Elects a leader and
/// orients the ring; quiescently stabilizes without terminating.
OrientationResult elect_and_orient(const std::vector<std::uint64_t>& ids,
                                   const std::vector<bool>& port_flips,
                                   const Alg3NonOriented::Options& options,
                                   sim::Scheduler& scheduler,
                                   const sim::RunOptions& opts = {});

/// Theorem 3 end-to-end: every node samples an ID with Algorithm 4
/// (parameter c, per-node randomness derived from `seed`), then the ring
/// runs Algorithm 3 with the improved scheme. Succeeds with high
/// probability; `sampled_unique_max` reports the Lemma 18 event.
AnonymousResult anonymous_election(std::size_t n,
                                   const std::vector<bool>& port_flips,
                                   double c, std::uint64_t seed,
                                   sim::Scheduler& scheduler,
                                   const sim::RunOptions& opts = {});

}  // namespace colex::co
