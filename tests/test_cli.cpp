// The shared command-line parser (util/cli): typed flags with range checks
// into the target's own width, finite-only doubles, required flags,
// positionals, subcommands and the generated usage text — then exit-code
// probes that run the real tools on malformed invocations and pin the
// contract: exit 2, the error and the usage on stderr, and no work done
// before them.
//
// The probed binaries' paths are injected by CMake.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include <sys/wait.h>

#include "threaded_ring_cli.hpp"
#include "util/cli.hpp"

namespace colex::util::cli {
namespace {

std::vector<std::string> words(std::initializer_list<const char*> list) {
  return {list.begin(), list.end()};
}

/// Parses `args` against a one-flag command; returns the error ("" = ok).
std::string parse_one(Flag f, std::initializer_list<const char*> args) {
  return parse(Command{.flags = {std::move(f)}}, words(args));
}

TEST(CliInteger, AcceptsItsRangeAndNothingElse) {
  std::uint64_t v = 7;
  EXPECT_EQ(parse_one(u64("--n", "N", v, "n", 2, 10), {"--n", "10"}), "");
  EXPECT_EQ(v, 10u);
  for (const char* bad : {"1", "11", "-3", "+3", "3x", " 3", "", "0x5"}) {
    v = 7;
    EXPECT_NE(parse_one(u64("--n", "N", v, "n", 2, 10), {"--n", bad}), "")
        << bad;
    EXPECT_EQ(v, 7u) << bad;  // a rejected value never lands
  }
}

TEST(CliInteger, NeverNarrowsIntoTheTargetWidth) {
  std::uint16_t port = 0;
  EXPECT_EQ(parse_one(u64("--p", "P", port, "port"), {"--p", "65535"}), "");
  EXPECT_EQ(port, 65535u);
  EXPECT_NE(parse_one(u64("--p", "P", port, "port"), {"--p", "65536"}), "");
  EXPECT_EQ(port, 65535u);

  unsigned attempts = 4;
  EXPECT_NE(parse_one(u64("--a", "N", attempts, "a"), {"--a", "4294967300"}),
            "");
  EXPECT_EQ(attempts, 4u);

  std::uint64_t wide = 0;
  EXPECT_EQ(parse_one(u64("--w", "N", wide, "w"),
                      {"--w", "18446744073709551615"}),
            "");
  EXPECT_EQ(wide, std::numeric_limits<std::uint64_t>::max());
  EXPECT_NE(parse_one(u64("--w", "N", wide, "w"),
                      {"--w", "18446744073709551616"}),
            "");

  int serve = -1;  // signed target: the range still starts at 0
  EXPECT_EQ(parse_one(u64("--s", "P", serve, "s", 0, 65535), {"--s", "0"}),
            "");
  EXPECT_EQ(serve, 0);
  EXPECT_THROW(u64("--s", "P", serve, "s", 0, 1ULL << 40), ContractViolation);
}

TEST(CliDouble, RejectsNanInfinityAndTrailingGarbage) {
  double f = 0.25;
  EXPECT_EQ(parse_one(f64("--f", "F", f, "f", 0.0, 1.0), {"--f", "0.5"}), "");
  EXPECT_EQ(f, 0.5);
  EXPECT_EQ(parse_one(f64("--f", "F", f, "f", 0.0, 1.0), {"--f", "1e-3"}), "");
  EXPECT_EQ(f, 1e-3);
  for (const char* bad : {"nan", "NaN", "inf", "-inf", "infinity", "0.5x",
                          "", " 0.5", "1.5", "-0.1", "1e999", "0,5"}) {
    f = 0.25;
    EXPECT_NE(parse_one(f64("--f", "F", f, "f", 0.0, 1.0), {"--f", bad}), "")
        << bad;
    EXPECT_EQ(f, 0.25) << bad;
  }
  double seconds = 10.0;
  EXPECT_EQ(parse_one(f64("--d", "S", seconds, "d", 0.0), {"--d", "1e300"}),
            "");
  EXPECT_EQ(seconds, 1e300);
  const double positive = std::numeric_limits<double>::denorm_min();
  EXPECT_NE(parse_one(f64("--d", "S", seconds, "d", positive), {"--d", "0"}),
            "");
}

TEST(CliParse, SwitchesStringsAndCallbacks) {
  bool json = false;
  std::string out = "x";
  std::vector<std::uint64_t> ids;
  std::vector<std::string> names;
  const Command cmd{
      .flags = {flag("--json", json, "json"), str("--out", "F", out, "out"),
                u64_list("--ids", "LIST", ids, "ids"),
                Flag{"--names", "a,b", "names",
                       [&names](std::string_view list) {
                         names.clear();
                         return split_list(list, [&](std::string_view item) {
                           names.emplace_back(item);
                           return item == "x" || item == "y";
                         });
                       }}}};
  EXPECT_EQ(parse(cmd, words({"--ids", "6,11,3", "--json", "--out", "-"})),
            "");
  EXPECT_TRUE(json);
  EXPECT_EQ(out, "-");
  EXPECT_EQ(ids, (std::vector<std::uint64_t>{6, 11, 3}));
  for (const char* bad : {"3,x,2", "", "1,", ",1", "1,,2", "1 2"}) {
    EXPECT_NE(parse(cmd, words({"--ids", bad})), "") << bad;
  }
  EXPECT_EQ(ids, (std::vector<std::uint64_t>{6, 11, 3}));
  EXPECT_EQ(parse(cmd, words({"--names", "y,x,y"})), "");
  EXPECT_EQ(names, (std::vector<std::string>{"y", "x", "y"}));
  EXPECT_NE(parse(cmd, words({"--names", "x,z"})), "");
  EXPECT_NE(parse(cmd, words({"--names", "x,"})), "");
}

TEST(CliParse, ReportsEveryMalformedShape) {
  std::uint64_t n = 0;
  std::uint64_t port = 0;
  std::string file;
  const Command cmd{
      .flags = {u64("--n", "N", n, "n"),
                u64("--port", "P", port, "port", 1).require()},
      .positionals = {{"file", &file}}};
  EXPECT_EQ(parse(cmd, words({"f.jsonl", "--port", "9"})), "");
  EXPECT_EQ(file, "f.jsonl");
  EXPECT_NE(parse(cmd, words({"f", "--port", "9", "--bogus", "3"}))
                .find("unknown flag '--bogus'"),
            std::string::npos);
  EXPECT_NE(parse(cmd, words({"f", "--port"})).find("--port needs a value"),
            std::string::npos);
  EXPECT_NE(parse(cmd, words({"f", "--n", "3"})).find("missing --port"),
            std::string::npos);
  EXPECT_NE(parse(cmd, words({"--port", "9"})).find("missing <file>"),
            std::string::npos);
  EXPECT_NE(parse(cmd, words({"f", "g", "--port", "9"}))
                .find("unexpected argument 'g'"),
            std::string::npos);
}

TEST(CliParse, RestPositionalsAndChecks) {
  bool list = false;
  std::vector<std::string> paths;
  const Command cmd{
      .flags = {flag("--list", list, "list")},
      .positionals = {{"path", nullptr, &paths}},
      .check = [&] { return paths.empty() && !list ? "no paths" : ""; }};
  EXPECT_EQ(parse(cmd, words({"a", "--list", "b"})), "");
  EXPECT_EQ(paths, (std::vector<std::string>{"a", "b"}));
  paths.clear();
  list = false;
  EXPECT_EQ(parse(cmd, words({})), "no paths");
}

TEST(CliParse, OptionalTypedPositionals) {
  std::uint64_t n = 8;
  double c = 2.0;
  const Command cmd{.positionals = {optional(u64("n", "", n, "ring size", 1)),
                                    optional(f64("c", "", c, "constant", 0.5))}};
  EXPECT_EQ(parse(cmd, words({})), "");
  EXPECT_EQ(n, 8u);
  EXPECT_EQ(parse(cmd, words({"5"})), "");
  EXPECT_EQ(n, 5u);
  EXPECT_EQ(c, 2.0);
  EXPECT_EQ(parse(cmd, words({"6", "1.5"})), "");
  EXPECT_EQ(c, 1.5);
  for (const char* bad : {"5x", "0", "", "+5"}) {
    EXPECT_NE(parse(cmd, words({bad})).find("<n> got '"), std::string::npos)
        << bad;
  }
  EXPECT_NE(parse(cmd, words({"5", "nan"})).find("<c> got 'nan'"),
            std::string::npos);
  EXPECT_NE(parse(cmd, words({"5", "1", "2"}))
                .find("unexpected argument '2'"),
            std::string::npos);
  const std::string text = usage("prog", {cmd});
  EXPECT_NE(text.find("prog [<n> [<c>]]\n"), std::string::npos) << text;
  EXPECT_NE(text.find("ring size (default 8)"), std::string::npos) << text;
}

// threaded_ring starts one OS thread per node: its ring size is capped at
// parse time, checked here on the parser alone.
TEST(CliParse, ThreadedRingCapsItsThreadCount) {
  examples::ThreadedRingArgs args;
  const Command cmd = examples::threaded_ring_command(args);
  const std::string cap = std::to_string(examples::kMaxThreadedRingNodes);
  EXPECT_EQ(parse(cmd, words({cap.c_str(), "2"})), "");
  EXPECT_EQ(args.n, examples::kMaxThreadedRingNodes);
  EXPECT_EQ(args.repeats, 2);
  const std::string over = std::to_string(examples::kMaxThreadedRingNodes + 1);
  for (const std::string& bad : {over, std::string("100000"),
                                 std::string("0"), std::string("5x")}) {
    EXPECT_NE(parse(cmd, {bad}), "") << bad;
  }
  EXPECT_NE(parse(cmd, words({"4", "0"})), "");
}

TEST(CliArgv, SelectsSubcommandsAndAliases) {
  std::string file;
  std::uint64_t seeds = 100;
  const std::vector<Command> commands = {
      {.name = "run", .flags = {u64("--seeds", "N", seeds, "seeds")}},
      {.name = "replay",
       .alias = "--replay",
       .positionals = {{"repro.jsonl", &file}}},
  };
  auto select = [&commands](std::vector<std::string> argv_words) {
    std::vector<char*> argv;
    for (std::string& w : argv_words) argv.push_back(w.data());
    return parse_argv(commands, static_cast<int>(argv.size()), argv.data());
  };
  EXPECT_EQ(select({"/bin/prog", "run", "--seeds", "5"}), &commands[0]);
  EXPECT_EQ(seeds, 5u);
  EXPECT_EQ(select({"prog", "--replay", "r.jsonl"}), &commands[1]);
  EXPECT_EQ(file, "r.jsonl");
  EXPECT_EQ(select({"prog", "replay", "s.jsonl"}), &commands[1]);
  EXPECT_EQ(file, "s.jsonl");
  EXPECT_EQ(select({"prog"}), nullptr);
  EXPECT_EQ(select({"prog", "bogus"}), nullptr);
  EXPECT_EQ(select({"prog", "run", "--seeds", "-1"}), nullptr);
}

TEST(CliUsage, NamesEveryDeclaredFlagWithItsDefault) {
  std::uint64_t seeds = 100;
  double fraction = 0.0;
  std::string host = "127.0.0.1";
  bool json = false;
  std::uint16_t port = 0;
  std::string path;
  const std::vector<Command> commands = {
      {.name = "run",
       .flags = {u64("--seeds", "N", seeds, "cases to run"),
                 f64("--fault-fraction", "F", fraction, "faulty share", 0.0,
                     1.0),
                 str("--host", "H", host, "server host"),
                 flag("--json", json, "json summary")}},
      {.name = "get",
       .flags = {u64("--port", "P", port, "server port", 1).require()},
       .positionals = {{"path", &path}}},
  };
  const std::string text = usage("prog", commands);
  for (const Command& c : commands) {
    for (const Flag& f : c.flags) {
      EXPECT_NE(text.find(f.name), std::string::npos) << f.name;
      EXPECT_NE(text.find(f.help), std::string::npos) << f.help;
    }
  }
  EXPECT_NE(text.find("prog run [options]\n"), std::string::npos) << text;
  EXPECT_NE(text.find("prog get --port P <path>\n"), std::string::npos)
      << text;
  EXPECT_NE(text.find("(default 100)"), std::string::npos) << text;
  EXPECT_NE(text.find("(default 127.0.0.1)"), std::string::npos) << text;
  // A required flag has no default to show.
  EXPECT_EQ(text.find("server port (default"), std::string::npos) << text;
}

// --- exit-code probes against the real binaries ---------------------------

struct Probe {
  std::string output;
  int exit_code = -1;
};

/// Runs `bin args` with `redirect` applied, capturing what reaches the pipe.
Probe probe(const std::string& bin, const std::string& args,
            const char* redirect) {
  Probe r;
  // The timeout only bounds a regression that starts real work.
  const std::string cmd = "timeout 120 " + bin + " " + args + " " + redirect;
  FILE* p = ::popen(cmd.c_str(), "r");
  if (p == nullptr) return r;
  char buf[4096];
  std::size_t got = 0;
  while ((got = std::fread(buf, 1, sizeof buf, p)) > 0) {
    r.output.append(buf, got);
  }
  const int status = ::pclose(p);
  if (status >= 0 && WIFEXITED(status)) r.exit_code = WEXITSTATUS(status);
  return r;
}

void expect_usage_exit(const std::string& bin, const std::string& program,
                       const std::string& args) {
  const std::string what = program + " " + args;
  const Probe err = probe(bin, args, "2>&1 >/dev/null");
  EXPECT_EQ(err.exit_code, 2) << what << "\n" << err.output;
  EXPECT_EQ(err.output.rfind(program + ": ", 0), 0u) << what << err.output;
  EXPECT_NE(err.output.find("usage:\n"), std::string::npos) << what;
  // Nothing reaches stdout: the program stopped before doing any work.
  const Probe out = probe(bin, args, "2>/dev/null");
  EXPECT_EQ(out.exit_code, 2) << what;
  EXPECT_EQ(out.output, "") << what;
}

TEST(CliExitCodes, SoakRejectsNonFiniteAndNarrowedValues) {
  expect_usage_exit(COLEX_SOAK_BIN, "colex-soak", "--duration inf");
  expect_usage_exit(COLEX_SOAK_BIN, "colex-soak", "--max-attempts 4294967300");
  expect_usage_exit(COLEX_SOAK_BIN, "colex-soak", "--duration 1 --bogus");
}

TEST(CliExitCodes, FuzzRejectsMalformedFractions) {
  expect_usage_exit(COLEX_FUZZ_BIN, "colex-fuzz",
                    "run --fault-fraction nan");
  expect_usage_exit(COLEX_FUZZ_BIN, "colex-fuzz",
                    "run --fault-fraction 0.5x");
  expect_usage_exit(COLEX_FUZZ_BIN, "colex-fuzz", "--replay");
}

TEST(CliExitCodes, LintRejectsTrailingGarbageInJobs) {
  expect_usage_exit(COLEX_LINT_BIN, "colex-lint",
                    std::string("--jobs 4x ") + COLEX_SOURCE_DIR "/tools/lint");
}

TEST(CliExitCodes, ColexctlRejectsUnknownFlagsAndBadIds) {
  expect_usage_exit(COLEXCTL_BIN, "colexctl", "elect --n 4 --bogus 3");
  expect_usage_exit(COLEXCTL_BIN, "colexctl", "elect --ids 3,x,2");
}

TEST(CliExitCodes, BenchRejectsANonNumericWorkerCount) {
  expect_usage_exit(COLEX_BENCH_E16_BIN, "bench_e16_coro", "--workers abc");
}

TEST(CliExitCodes, RingRejectsAnOutOfRangeIndex) {
  expect_usage_exit(COLEX_RING_BIN, "colex-ring",
                    "node --index 3 --ring-size 3 --id 1 --coordinator-port 1");
}

TEST(CliExitCodes, RingTakesOnlyAlgorithmsThatAreGivenTheirIds) {
  expect_usage_exit(COLEX_RING_BIN, "colex-ring",
                    "run --ids 1,2,3 --alg alg4");
}

TEST(CliExitCodes, ExamplesRejectTrailingGarbage) {
  for (const char* example : {"quickstart", "nonoriented_ring",
                              "anonymous_ring", "compose_compute",
                              "threaded_ring", "trace_playback"}) {
    expect_usage_exit(std::string(COLEX_EXAMPLES_DIR "/") + example, example,
                      "5x");
  }
  expect_usage_exit(COLEX_EXAMPLES_DIR "/anonymous_ring", "anonymous_ring",
                    "6 1.5x");
}

}  // namespace
}  // namespace colex::util::cli
