// colex-fuzz: property-based schedule/fault fuzzing front-end over src/qa.
//
//   colex-fuzz run [options]            seeded campaign: generate -> check ->
//                                       shrink; writes repro/trace artifacts
//   colex-fuzz replay <repro.jsonl>     re-execute a colex-repro-v1 file and
//                                       verify the recorded verdict recurs
//   colex-fuzz --replay <repro.jsonl>   alias for `replay`
//
// Exit status (DESIGN.md §15): run -> 0 no counterexample, 1 counterexample
// found, 2 usage. replay -> 0 recorded verdict reproduced exactly, 1
// diverged, 2 usage/load error. "Reproduced" means check_case reports the
// same failed property the file recorded (or passes, for a repro of a
// passing case).
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "obs/export.hpp"
#include "qa/fuzzer.hpp"
#include "qa/repro.hpp"
#include "util/cli.hpp"

namespace {

using namespace colex;
namespace cli = util::cli;

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
  os << label << ": alg=" << co::to_string(c.alg) << " n=" << c.n() << " ids=[";
  for (std::size_t v = 0; v < c.ids.size(); ++v) {
    if (v) os << ',';
    os << c.ids[v];
  }
  os << "] tape=" << c.tape.size() << " faults="
     << (c.clean() ? "none" : "plan") << "\n";
}

int cmd_run(const qa::CampaignOptions& options, const std::string& repro_out,
            const std::string& trace_out, bool json) {
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
  qa::CampaignOptions options;
  options.cases = 100;
  qa::GeneratorOptions& gen = options.generator;
  std::string repro_out;
  std::string trace_out;
  std::string repro_in;
  bool json = false;
  const cli::Flag trace_out_flag =
      cli::str("--trace-out", "FILE", trace_out,
               "write the counterexample's trace as colex-trace-v1");
  auto add_alg = [&gen](std::string_view name) {
    const auto alg = co::from_string(name);
    if (alg) gen.algorithms.push_back(*alg);
    return alg.has_value();
  };
  const std::vector<cli::Command> commands = {
      {.name = "run",
       .flags =
           {cli::u64("--seeds", "N", options.cases, "cases to run"),
            cli::u64("--seed-start", "S", options.seed_start, "first seed"),
            cli::Flag{"--algs", "a,b",
                        "alg1, alg2, alg3-doubled, alg3-improved, alg4 "
                        "(default all)",
                        [&](std::string_view list) {
                          gen.algorithms.clear();
                          return cli::split_list(list, add_alg);
                        }},
            cli::u64("--min-n", "N", gen.min_n, "smallest ring size", 1),
            cli::u64("--max-n", "N", gen.max_n, "largest ring size", 1),
            cli::u64("--max-id", "M", gen.max_id, "ID cap"),
            cli::f64("--fault-fraction", "F", gen.fault_fraction,
                     "share of cases with a fault plan", 0, 1),
            cli::u64("--max-events", "N", gen.max_events,
                     "per-case livelock guard"),
            cli::flag("--planted", options.properties.planted_bound_bug,
                      "enable the planted off-by-one bound property"),
            cli::Flag{"--no-shrink", "", "keep the raw counterexample",
                        [&options](std::string_view) {
                          options.shrink = false;
                          return true;
                        }},
            cli::u64("--max-failures", "K", options.max_failures,
                     "stop after K counterexamples; 0 = all"),
            cli::str("--repro-out", "FILE", repro_out,
                     "write the minimal counterexample as colex-repro-v1"),
            trace_out_flag,
            cli::flag("--json", json, "print a JSON campaign summary")},
       .check = [&gen] {
         return gen.min_n <= gen.max_n ? "" : "--min-n exceeds --max-n";
       },
       .body = [&] { return cmd_run(options, repro_out, trace_out, json); }},
      {.name = "replay",
       .alias = "--replay",
       .flags = {trace_out_flag},
       .positionals = {{"repro.jsonl", &repro_in}},
       .body = [&] { return cmd_replay(repro_in, trace_out); }},
  };
  return cli::run(commands, argc, argv);
}
