// colex-fuzz: property-based schedule/fault fuzzing front-end over src/qa.
//
//   colex-fuzz run [options]            seeded campaign: generate -> check ->
//                                       shrink; writes repro/trace artifacts
//   colex-fuzz replay <repro.jsonl>     re-execute a colex-repro-v1 file and
//                                       verify the recorded verdict recurs
//   colex-fuzz --replay <repro.jsonl>   alias for `replay`
//
// run options:
//   --seeds N           cases to run (default 100)
//   --seed-start S      first seed (default 1)
//   --algs a,b,...      restrict algorithms (alg1,alg2,alg3_doubled,
//                       alg3_improved,alg4); default all
//   --min-n N --max-n N ring-size range (defaults 1..6)
//   --max-id M          ID cap (default 12)
//   --fault-fraction F  fraction of cases with a fault plan (default 0)
//   --max-events N      per-case livelock guard (default 50000)
//   --planted           enable the planted off-by-one bound property
//   --no-shrink         keep the raw counterexample
//   --max-failures K    stop after K counterexamples (default 1; 0 = all)
//   --repro-out FILE    write the minimal counterexample as colex-repro-v1
//   --trace-out FILE    write the minimal counterexample's trace as
//                       colex-trace-v1 (loadable by colex-inspect)
//   --json              machine-readable campaign summary on stdout
//
// Exit status: run -> 0 no counterexample, 1 counterexample found, 2 usage.
// replay -> 0 recorded verdict reproduced exactly, 1 diverged, 2 usage/load
// error. "Reproduced" means check_case reports the same failed property the
// file recorded (or passes, for a repro of a passing case).
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "obs/export.hpp"
#include "qa/fuzzer.hpp"
#include "qa/repro.hpp"
#include "util/json.hpp"

namespace {

using namespace colex;
using util::parse_u64;

int usage() {
  std::cerr << "usage:\n"
               "  colex-fuzz run [--seeds N] [--seed-start S] [--algs a,b]\n"
               "             [--min-n N] [--max-n N] [--max-id M]\n"
               "             [--fault-fraction F] [--max-events N]\n"
               "             [--planted] [--no-shrink] [--max-failures K]\n"
               "             [--repro-out FILE] [--trace-out FILE] [--json]\n"
               "  colex-fuzz replay <repro.jsonl> [--trace-out FILE]\n";
  return 2;
}

bool parse_algs(const std::string& s, std::vector<qa::Algorithm>& out) {
  std::size_t begin = 0;
  while (begin <= s.size()) {
    std::size_t comma = s.find(',', begin);
    if (comma == std::string::npos) comma = s.size();
    qa::Algorithm a{};
    if (!qa::algorithm_from_string(s.substr(begin, comma - begin), a)) {
      return false;
    }
    out.push_back(a);
    begin = comma + 1;
  }
  return !out.empty();
}

bool write_trace_file(const std::string& path, const qa::FuzzCase& c,
                      const std::vector<sim::TraceEvent>& trace) {
  std::ofstream out(path);
  if (!out.good()) {
    std::cerr << "colex-fuzz: cannot write " << path << "\n";
    return false;
  }
  obs::write_jsonl(out, trace, qa::trace_meta_for(c));
  return out.good();
}

void print_case(std::ostream& os, const char* label, const qa::FuzzCase& c) {
  os << label << ": alg=" << qa::to_string(c.alg) << " n=" << c.n() << " ids=[";
  for (std::size_t v = 0; v < c.ids.size(); ++v) {
    if (v) os << ',';
    os << c.ids[v];
  }
  os << "] tape=" << c.tape.size() << " faults="
     << (c.clean() ? "none" : "plan") << "\n";
}

int cmd_run(const std::vector<std::string>& args) {
  qa::CampaignOptions options;
  options.cases = 100;
  std::string repro_out;
  std::string trace_out;
  bool json = false;

  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    const bool has_value = i + 1 < args.size();
    std::uint64_t u = 0;
    if (a == "--planted") {
      options.properties.planted_bound_bug = true;
    } else if (a == "--no-shrink") {
      options.shrink = false;
    } else if (a == "--json") {
      json = true;
    } else if (a == "--seeds" && has_value && parse_u64(args[++i], u)) {
      options.cases = static_cast<std::size_t>(u);
    } else if (a == "--seed-start" && has_value && parse_u64(args[++i], u)) {
      options.seed_start = u;
    } else if (a == "--min-n" && has_value && parse_u64(args[++i], u)) {
      options.generator.min_n = static_cast<std::size_t>(u);
    } else if (a == "--max-n" && has_value && parse_u64(args[++i], u)) {
      options.generator.max_n = static_cast<std::size_t>(u);
    } else if (a == "--max-id" && has_value && parse_u64(args[++i], u)) {
      options.generator.max_id = u;
    } else if (a == "--max-events" && has_value && parse_u64(args[++i], u)) {
      options.generator.max_events = u;
    } else if (a == "--max-failures" && has_value && parse_u64(args[++i], u)) {
      options.max_failures = static_cast<std::size_t>(u);
    } else if (a == "--algs" && has_value) {
      if (!parse_algs(args[++i], options.generator.algorithms)) {
        std::cerr << "colex-fuzz: bad --algs list\n";
        return 2;
      }
    } else if (a == "--fault-fraction" && has_value) {
      char* end = nullptr;
      options.generator.fault_fraction = std::strtod(args[++i].c_str(), &end);
      if (end == args[i].c_str() || options.generator.fault_fraction < 0.0 ||
          options.generator.fault_fraction > 1.0) {
        std::cerr << "colex-fuzz: bad --fault-fraction\n";
        return 2;
      }
    } else if (a == "--repro-out" && has_value) {
      repro_out = args[++i];
    } else if (a == "--trace-out" && has_value) {
      trace_out = args[++i];
    } else {
      return usage();
    }
  }
  if (options.generator.min_n == 0 ||
      options.generator.min_n > options.generator.max_n) {
    std::cerr << "colex-fuzz: bad ring-size range\n";
    return 2;
  }

  const qa::CampaignReport report = qa::run_campaign(options);

  if (json) {
    std::cout << "{\"cases\":" << report.cases_run
              << ",\"clean\":" << report.clean_cases
              << ",\"faulty\":" << report.faulty_cases
              << ",\"counterexamples\":" << report.counterexamples.size()
              << ",\"pulses_mean\":" << report.pulses.mean
              << ",\"pulses_p99\":" << report.pulses.p99
              << ",\"deliveries_mean\":" << report.deliveries.mean << "}\n";
  } else {
    std::cout << "campaign: " << report.cases_run << " cases ("
              << report.clean_cases << " clean, " << report.faulty_cases
              << " faulty), " << report.counterexamples.size()
              << " counterexample(s)\n"
              << "pulses: mean=" << report.pulses.mean
              << " p99=" << report.pulses.p99 << " max=" << report.pulses.max
              << "\n";
  }

  if (report.ok()) return 0;

  const qa::Counterexample& cx = report.counterexamples.front();
  std::cout << "counterexample: seed=" << cx.seed << " property="
            << cx.result.failed_property << "\n  " << cx.result.diagnostic
            << "\n";
  print_case(std::cout, "original", cx.original);
  print_case(std::cout, "minimal", cx.minimal);
  if (options.shrink) {
    std::cout << "shrink: " << cx.shrink_stats.attempts << " attempts, "
              << cx.shrink_stats.improvements << " improvements\n";
  }

  if (!repro_out.empty()) {
    qa::ReproFile repro;
    repro.c = cx.minimal;
    repro.props = options.properties;
    repro.failed_property = cx.result.failed_property;
    repro.diagnostic = cx.result.diagnostic;
    qa::save_repro_file(repro_out, repro);
    std::cout << "wrote repro " << repro_out << "\n";
  }
  if (!trace_out.empty()) {
    if (!write_trace_file(trace_out, cx.minimal, cx.result.outcome.trace)) {
      return 2;
    }
    std::cout << "wrote trace " << trace_out << "\n";
  }
  return 1;
}

int cmd_replay(const std::string& path, const std::string& trace_out) {
  qa::ReproFile repro;
  try {
    repro = qa::load_repro_file(path);
  } catch (const std::exception& e) {
    std::cerr << "colex-fuzz: failed to load " << path << ": " << e.what()
              << "\n";
    return 2;
  }

  print_case(std::cout, "replaying", repro.c);
  const qa::CaseResult result = qa::check_case(repro.c, repro.props);
  if (!trace_out.empty() &&
      !write_trace_file(trace_out, repro.c, result.outcome.trace)) {
    return 2;
  }

  if (result.failed_property == repro.failed_property) {
    std::cout << "replay: REPRODUCED ("
              << (repro.failed_property.empty()
                      ? std::string("all properties hold")
                      : "property '" + repro.failed_property +
                            "' fails as recorded")
              << ")\n";
    return 0;
  }
  std::cout << "replay: DIVERGED (recorded '" << repro.failed_property
            << "', observed '" << result.failed_property << "')\n";
  if (!result.diagnostic.empty()) {
    std::cout << "  " << result.diagnostic << "\n";
  }
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty()) return usage();

  if (args[0] == "run") {
    return cmd_run({args.begin() + 1, args.end()});
  }
  if (args[0] == "replay" || args[0] == "--replay") {
    if (args.size() < 2) return usage();
    std::string trace_out;
    if (args.size() == 4 && args[2] == "--trace-out") {
      trace_out = args[3];
    } else if (args.size() != 2) {
      return usage();
    }
    return cmd_replay(args[1], trace_out);
  }
  return usage();
}
