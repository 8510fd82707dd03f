// Trace + metrics export: turn a recorded sim::TraceEvent stream into
// machine-readable artifacts —
//
//  * JSONL (colex-trace-v1): one self-describing JSON object per line; a
//    leading meta line carries the ring shape (n, port flips) and the pulse
//    count inputs (algorithm, true IDmax), an optional trailing metrics line
//    embeds a Registry snapshot. This is the format tools/colex_inspect.cpp
//    loads back, and load_jsonl() below round-trips it.
//
//  * Chrome trace_event JSON: one track (tid) per ring node under a single
//    process, with every pulse rendered as a complete span from its send to
//    its delivery (FIFO-matched per channel, exactly like the trace audit)
//    and faults/crash/recover as instant events. Opens directly in
//    chrome://tracing or Perfetto.
//
// Timestamps are the logical event-stream indices (interpreted as
// microseconds by the viewers): the adversarial simulator has no wall
// clock, and stream position is the only causally meaningful time base.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "co/algorithms.hpp"
#include "obs/metrics.hpp"
#include "sim/trace.hpp"

namespace colex::obs {

/// Run context attached to an exported trace; everything colex-inspect
/// needs to audit the stream and check the paper's pulse bounds. `n == 0`
/// means unknown shape (no audit, no bound check).
struct TraceMeta {
  std::string algorithm;            ///< e.g. "alg2"; free-form
  std::size_t n = 0;                ///< ring size
  std::uint64_t id_max = 0;         ///< max assigned ID (0 = unknown)
  std::vector<bool> port_flips;     ///< per-node port scrambling; empty = oriented

  /// co::exact_pulses for this algorithm and ring, or 0 (skip the check)
  /// when n, id_max or the algorithm is unknown, as in "soak" snapshots.
  std::uint64_t pulse_bound() const {
    const auto alg = co::from_string(algorithm);
    return (n == 0 || !alg) ? 0 : co::exact_pulses(*alg, n, id_max);
  }
};

// --- JSONL ----------------------------------------------------------------

void write_jsonl(std::ostream& os, const std::vector<sim::TraceEvent>& events,
                 const TraceMeta& meta, const Registry* metrics = nullptr);

std::string to_jsonl(const std::vector<sim::TraceEvent>& events,
                     const TraceMeta& meta, const Registry* metrics = nullptr);

struct LoadedTrace {
  TraceMeta meta;
  std::vector<sim::TraceEvent> events;
  std::string metrics_json;  ///< raw snapshot object, empty if absent
};

/// Parses a colex-trace-v1 JSONL stream back into events + meta. Throws
/// util::ContractViolation on malformed input.
LoadedTrace load_jsonl(std::istream& is);
LoadedTrace load_jsonl_file(const std::string& path);

// --- Chrome trace_event ---------------------------------------------------

void write_chrome_trace(std::ostream& os,
                        const std::vector<sim::TraceEvent>& events,
                        const TraceMeta& meta,
                        const Registry* metrics = nullptr);

std::string to_chrome_trace(const std::vector<sim::TraceEvent>& events,
                            const TraceMeta& meta,
                            const Registry* metrics = nullptr);

}  // namespace colex::obs
