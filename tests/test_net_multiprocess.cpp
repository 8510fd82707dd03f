// End-to-end multi-process elections: forks real `colex-ring` binaries (one
// OS process per ring node, plus a separate coordinator process in the
// split-command test) and checks the merged verdict against the paper —
// the pulse total must equal Theorem 1's exact n(2*IDmax + 1) count and the
// simulator oracle, and the max-ID process must win.
//
// The binary path is injected by CMake as COLEX_RING_BIN. Every subprocess
// gets an explicit --timeout-ms watchdog, so a wedged run fails loudly
// instead of hanging ctest.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include <sys/wait.h>

#include "co/election.hpp"
#include "qa/generators.hpp"
#include "qa/properties.hpp"

namespace colex {
namespace {

struct CmdResult {
  std::vector<std::string> lines;
  int exit_code = -1;
};

/// Runs `cmd` via popen, captures stdout lines, and decodes the exit
/// status (-1 if the child died abnormally).
CmdResult run_cmd(const std::string& cmd) {
  CmdResult r;
  FILE* p = ::popen(cmd.c_str(), "r");
  if (p == nullptr) return r;
  char buf[4096];
  std::string line;
  while (std::fgets(buf, sizeof(buf), p) != nullptr) {
    line = buf;
    while (!line.empty() && (line.back() == '\n' || line.back() == '\r')) {
      line.pop_back();
    }
    r.lines.push_back(line);
  }
  const int status = ::pclose(p);
  if (status >= 0 && WIFEXITED(status)) r.exit_code = WEXITSTATUS(status);
  return r;
}

/// Minimal JSON field scrape: the value after `"key":` (number or null).
std::string json_field(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return {};
  std::size_t i = at + needle.size();
  std::string out;
  while (i < line.size() && line[i] != ',' && line[i] != '}') {
    out.push_back(line[i]);
    ++i;
  }
  return out;
}

std::string ring_bin() { return std::string(COLEX_RING_BIN); }

TEST(MultiProcess, RunCommandMatchesTheorem1AndSimulator) {
  // The README's demo ring: six processes, IDs 6,11,3,9,1,7, Algorithm 2.
  qa::FuzzCase c;
  c.alg = co::Algorithm::alg2;
  c.ids = {6, 11, 3, 9, 1, 7};
  const qa::RunOutcome oracle = qa::execute_case(c);
  ASSERT_TRUE(oracle.report.quiescent);

  const CmdResult r = run_cmd(ring_bin() +
                              " run --ids 6,11,3,9,1,7 --alg alg2"
                              " --timeout-ms 30000 --json");
  ASSERT_EQ(r.exit_code, 0) << "colex-ring run failed";
  ASSERT_EQ(r.lines.size(), 1u);
  const std::string& j = r.lines[0];
  EXPECT_EQ(json_field(j, "completed"), "true");
  // Theorem 1: exactly n(2*IDmax + 1) pulses — and the simulator agrees.
  const std::uint64_t want = co::theorem1_pulses(6, 11);
  EXPECT_EQ(json_field(j, "pulses"), std::to_string(want));
  EXPECT_EQ(json_field(j, "pulses"), std::to_string(oracle.counters.sent));
  EXPECT_EQ(json_field(j, "consumed"), std::to_string(want));
  // The max-ID process (index 1, id 11) wins in every substrate.
  EXPECT_EQ(json_field(j, "leader_count"), "1");
  EXPECT_EQ(json_field(j, "leader"), "1");
  ASSERT_EQ(oracle.leader_count, 1u);
  EXPECT_EQ(*oracle.leader, 1u);
  EXPECT_EQ(json_field(j, "exit_codes"), "[0");  // first child exited clean
}

TEST(MultiProcess, NonOrientedRingWithFlipsMatchesExactCount) {
  qa::FuzzCase c;
  c.alg = co::Algorithm::alg3_improved;
  c.ids = {5, 2, 9, 4};
  c.port_flips = {false, true, false, true};
  const qa::RunOutcome oracle = qa::execute_case(c);
  ASSERT_TRUE(oracle.report.quiescent);

  const CmdResult r = run_cmd(ring_bin() +
                              " run --ids 5,2,9,4 --alg alg3-improved"
                              " --flips 0,1,0,1 --timeout-ms 30000 --json");
  ASSERT_EQ(r.exit_code, 0);
  ASSERT_EQ(r.lines.size(), 1u);
  const std::string& j = r.lines[0];
  EXPECT_EQ(json_field(j, "pulses"),
            std::to_string(co::exact_pulses(c.alg, c.n(), c.id_max())));
  EXPECT_EQ(json_field(j, "pulses"), std::to_string(oracle.counters.sent));
  EXPECT_EQ(json_field(j, "leader"), "2");  // id 9 is the max
}

TEST(MultiProcess, CoordinatorAndNodesAreSeparateBinaries) {
  // The split workflow: one coordinator process, one process per node,
  // all real colex-ring invocations glued only by the control-plane port.
  FILE* coord = ::popen(
      (ring_bin() + " coord --ring-size 3 --timeout-ms 30000 --json").c_str(),
      "r");
  ASSERT_NE(coord, nullptr);
  char buf[4096];
  ASSERT_NE(std::fgets(buf, sizeof(buf), coord), nullptr);
  const std::string announce = buf;
  const std::size_t at = announce.rfind(' ');
  ASSERT_NE(at, std::string::npos) << announce;
  const std::string port = announce.substr(at + 1,
                                           announce.size() - at - 2);
  ASSERT_FALSE(port.empty());

  std::vector<FILE*> nodes;
  for (int v = 0; v < 3; ++v) {
    const std::string cmd = ring_bin() + " node --index " +
                            std::to_string(v) + " --ring-size 3 --id " +
                            std::to_string(v + 4) +
                            " --alg alg2 --coordinator-port " + port +
                            " --timeout-ms 30000";
    FILE* n = ::popen(cmd.c_str(), "r");
    ASSERT_NE(n, nullptr);
    nodes.push_back(n);
  }

  // The coordinator's JSON verdict arrives once the election quiesces.
  ASSERT_NE(std::fgets(buf, sizeof(buf), coord), nullptr);
  const std::string j = buf;
  EXPECT_EQ(json_field(j, "completed"), "true");
  EXPECT_EQ(json_field(j, "pulses"),
            std::to_string(co::theorem1_pulses(3, 6)));
  EXPECT_EQ(json_field(j, "leader"), "2");  // id 6 wins

  for (FILE* n : nodes) {
    // Drain to EOF before pclose: closing the pipe while the child is
    // still printing its summary would SIGPIPE it.
    while (std::fgets(buf, sizeof(buf), n) != nullptr) {
    }
    const int status = ::pclose(n);
    ASSERT_TRUE(status >= 0 && WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0);
  }
  const int status = ::pclose(coord);
  ASSERT_TRUE(status >= 0 && WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

TEST(MultiProcess, UsageErrorsExitTwo) {
  EXPECT_EQ(run_cmd(ring_bin() + " 2>/dev/null").exit_code, 2);
  EXPECT_EQ(run_cmd(ring_bin() + " run 2>/dev/null").exit_code, 2);
  EXPECT_EQ(run_cmd(ring_bin() + " run --ids 1,2 --alg alg9 2>/dev/null")
                .exit_code,
            2);
  EXPECT_EQ(run_cmd(ring_bin() + " node --index 5 --ring-size 3 --id 1"
                                 " --coordinator-port 1 2>/dev/null")
                .exit_code,
            2);
}

}  // namespace
}  // namespace colex
