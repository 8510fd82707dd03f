// Replayable counterexample files (colex-repro-v1): a FuzzCase plus the
// failure it reproduces, serialized as line-typed JSONL in the same minimal
// dialect as the colex-trace-v1 exporter — flat objects, one per line,
// parseable without a JSON library. A repro file is self-contained: loading
// it and running check_case with the recorded property options must
// reproduce the recorded failed property deterministically (that round trip
// is exactly what `colex-fuzz replay` and the CI regression gate do).
//
// Layout:
//   {"type":"repro","format":"colex-repro-v1",...}   header: config + verdict
//   {"type":"tape","choices":[...]}                   pinned schedule
//   {"type":"fault-plan",...}                         plan seed + baseline probs
//   {"type":"override",...}                           per-channel profile (0+)
//   {"type":"scripted",...}                           scripted one-shot (0+)
//   {"type":"preseed",...}                            pre-seeded channel (0+)
//   {"type":"corrupt",...}                            initial-state corruption
//
// Probabilities are printed with max_digits10 significant digits, which
// round-trips IEEE doubles exactly through strtod.
#pragma once

#include <iosfwd>
#include <string>

#include "obs/export.hpp"
#include "qa/generators.hpp"
#include "qa/properties.hpp"

namespace colex::qa {

struct ReproFile {
  FuzzCase c;
  PropertyOptions props;  ///< the options the failure was found under
  std::string failed_property;
  std::string diagnostic;
};

void write_repro(std::ostream& os, const ReproFile& repro);
std::string to_repro(const ReproFile& repro);

/// Parses a colex-repro-v1 stream. Throws util::ContractViolation on
/// malformed input.
ReproFile load_repro(std::istream& is);
ReproFile load_repro_file(const std::string& path);
void save_repro_file(const std::string& path, const ReproFile& repro);

/// Trace metadata for exporting this case's event stream: the algorithm's
/// catalogue name and the true IDmax, from which colex-inspect picks the
/// exact count that applies.
obs::TraceMeta trace_meta_for(const FuzzCase& c);

}  // namespace colex::qa
