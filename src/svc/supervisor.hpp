// Per-ring supervision for the soak harness: run one election attempt under
// its churn plan, classify the ending via sim::FaultOutcome, and drive the
// abandon → rebuild → re-elect retry loop until the election completes or
// the attempt budget runs out.
//
// The service-level contract enforced here, per election:
//
//  * Unique-leader safety — a completed election has exactly one Leader,
//    and it is the max-ID node. A CLEAN attempt (trivial fault plan) that
//    settles any other way is a genuine algorithm bug and classifies as
//    safety_violated, which is fatal: no retry can unsee it.
//  * Pulse counts — a CLEAN attempt must hit its algorithm's exact count
//    (co::exact_pulses: Corollary 13's n·IDmax for Algorithm 1, Theorem 1's
//    n(2·IDmax+1) for Algorithm 2); a miss is a safety violation. A faulty
//    attempt is held only to Theorem 1's ceiling, which it may legitimately
//    exceed (a single duplicate breaks Algorithm 2's exact count), so a
//    ceiling-exceeding settle is demoted to `stalled` and retried. A
//    completed election therefore always passed its count check.
//
// Retries respawn through ChurnEngine::spec(election, attempt, ...): fresh
// ring, exponentially decayed churn, doubled event budget, and a provably
// clean plan from `clean_after_attempts` on — so any policy whose attempt
// budget reaches the clean rung guarantees termination of the loop with
// either recovered_correct or (on a real bug) safety_violated.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "obs/phase.hpp"
#include "sim/faults.hpp"
#include "svc/churn.hpp"

namespace colex::svc {

/// Execution substrate for soak attempts. Fault injection lives on the
/// simulator, so the non-sim backends take over exactly the attempts whose
/// churn plan is provably trivial(): with `coro` selected, clean attempts
/// (including every rung from clean_after_attempts on) run as real
/// coroutines on the work-stealing executor; with `socket` they run as
/// real TCP rings on loopback (one thread per node plus a quiescence
/// coordinator, src/net). Faulty attempts always go through
/// sim::FaultyNetwork. The service-level contract is unchanged — both
/// paths check the same unique-max-leader and pulse-count predicates
/// against conserved pulse counters.
enum class SoakBackend { sim, coro, socket };

const char* to_string(SoakBackend backend);
bool backend_from_string(const std::string& s, SoakBackend& out);

struct SupervisorPolicy {
  /// Total attempts per election: the first try plus up to
  /// max_attempts - 1 retries.
  unsigned max_attempts = 4;
  /// Attempts >= this index run with a trivial fault plan (the last rung of
  /// the backoff ladder). Must be < max_attempts for the self-healing
  /// guarantee to hold.
  unsigned clean_after_attempts = 2;
  /// Substrate for clean attempts (faulty attempts always run on sim).
  SoakBackend backend = SoakBackend::sim;
};

/// One classified attempt on one RingSpec.
struct AttemptResult {
  sim::FaultOutcome outcome = sim::FaultOutcome::recovered_correct;
  std::string diagnosis;
  std::uint64_t pulses = 0;
  /// Clean: the exact count. Faulty: Theorem 1's n(2·IDmax+1) ceiling.
  std::uint64_t pulse_bound = 0;
  bool within_bound = false;   ///< clean: ==, faulty: <= pulse_bound
  bool unique_leader = false;  ///< exactly one Leader role
  bool leader_is_max = false;  ///< and it holds the max ID
  bool on_coro = false;        ///< ran on the coroutine executor
  bool on_socket = false;      ///< ran on the real-socket backend
  /// Pulses attributed to the algorithm phase the sender was in
  /// (obs/phase.hpp); fabric pulses no node sent (injections/duplicates)
  /// land in the adversary bucket. On a clean attempt the array sums to
  /// `pulses` exactly; under loss-y churn it can exceed `pulses` by the
  /// dropped count (a dropped pulse was sent — and phase-attributed — but
  /// the fabric's conservation counter takes it back).
  std::array<std::uint64_t, obs::kPhaseCount> phase_pulses{};
  sim::FaultTallies tallies;
  sim::RunReport report;
};

/// Runs one attempt of `spec` to completion (or event-budget exhaustion).
/// On the sim backend (and for any non-trivial fault plan) the attempt runs
/// under a RandomScheduler seeded from the spec — a pure function of the
/// spec. On the coro and socket backends a clean attempt runs on the
/// coroutine executor / a real loopback TCP ring, where outcomes are
/// schedule-independent (exact pulse count, unique leader) but wall-clock
/// stalls are possible, so a watchdog timeout classifies as `stalled`
/// WITHOUT the clean-attempt escalation: a loaded machine is not an
/// algorithm bug, and the retry ladder absorbs it.
/// Clean-attempt escalation (stalled → safety_violated) and the pulse-bound
/// demotion described above are already applied to `outcome`.
AttemptResult run_attempt(const RingSpec& spec,
                          SoakBackend backend = SoakBackend::sim);

/// Final, supervised outcome of one election.
struct ElectionReport {
  sim::FaultOutcome final_outcome = sim::FaultOutcome::recovered_correct;
  std::string diagnosis;       ///< of the final attempt
  unsigned attempts = 0;       ///< attempts actually run (>= 1)
  bool completed = false;      ///< final outcome is recovered_correct
  bool abandoned = false;      ///< attempt budget exhausted without success
  std::uint64_t pulses = 0;            ///< of the final attempt
  std::uint64_t pulse_bound = 0;       ///< of the final attempt
  std::uint64_t faults_applied = 0;    ///< across all attempts
  std::uint64_t events_consumed = 0;   ///< deliveries across all attempts
  std::uint64_t coro_attempts = 0;     ///< attempts run on the coro backend
  std::uint64_t socket_attempts = 0;   ///< attempts run on the socket backend
  /// Per-phase pulse attribution of the final attempt (same convention as
  /// AttemptResult::phase_pulses: sums to `pulses`).
  std::array<std::uint64_t, obs::kPhaseCount> phase_pulses{};
};

/// Supervises election number `election` of the engine's slot: attempt →
/// classify → retry with churn backoff, stopping on success, on a safety
/// violation, or after policy.max_attempts attempts (abandoned).
ElectionReport run_supervised(const ChurnEngine& churn, std::uint64_t election,
                              const SupervisorPolicy& policy);

}  // namespace colex::svc
