// colex-lint: model-conformance, obliviousness-taint and concurrency
// static analysis for the colex tree (DESIGN.md §8).
//
//   colex-lint [--json] [--jobs N] <path>...   scan files/directories
//   colex-lint --self-test <path>...           verify rules against planted
//                                              fixtures (tests/lint_fixtures)
//   colex-lint --list-rules                    print the rule catalog
//
// Suppressions (justify them — reviewers read these):
//   // colex-lint: allow(C001) <why this is a false positive>
//   // colex-lint: allow-file(D002) <why, for the whole file>
//
// Exit status (DESIGN.md §15): 0 clean, 1 findings (or self-test
// mismatch), 2 usage / I-O error.
#include <iostream>
#include <string>
#include <vector>

#include "lint/driver.hpp"
#include "util/cli.hpp"

namespace cli = colex::util::cli;

int main(int argc, char** argv) {
  bool json = false;
  bool self_test = false;
  bool list_rules = false;
  std::size_t jobs = 4;  // findings are identical for any worker count
  std::vector<std::string> paths;
  const cli::Command cmd{
      .flags = {cli::flag("--json", json, "machine-readable findings"),
                cli::u64("--jobs", "N", jobs, "parallel file scans", 1, 256),
                cli::flag("--self-test", self_test,
                          "check the rules against planted fixtures"),
                cli::flag("--list-rules", list_rules, "print the catalog")},
      .positionals = {{"path", nullptr, &paths}},
      .check = [&] { return paths.empty() && !list_rules ? "no paths" : ""; }};
  if (cli::parse_argv({cmd}, argc, argv) == nullptr) return cli::kUsageExit;

  if (list_rules) {
    for (const auto& rule : colex::lint::rule_catalog()) {
      std::cout << rule.id << "  " << rule.pass
                << std::string(
                       rule.pass.size() < 12 ? 12 - rule.pass.size() : 1, ' ')
                << rule.summary << "\n";
    }
    return 0;
  }

  if (self_test) {
    const auto result = colex::lint::run_self_test(paths);
    for (const std::string& p : result.problems) {
      std::cerr << "colex-lint self-test: " << p << "\n";
    }
    std::cout << "colex-lint self-test: " << result.expectations
              << " expectations, " << result.rules_exercised.size()
              << " rules exercised, "
              << (result.ok ? "all matched" : "MISMATCH") << "\n";
    return result.ok ? 0 : 1;
  }

  const auto outcome = colex::lint::scan_paths(paths, jobs);
  if (json) {
    colex::lint::print_json(std::cout, outcome);
  } else {
    colex::lint::print_human(std::cout, outcome);
  }
  return colex::lint::exit_code(outcome);
}
