// colexbench: runs one named election workload for a fixed time and prints
// one JSON line — correct, attempted, failed, metrics (name → value, unit)
// and info (the build stamp and sample counts). run.py builds this binary
// and turns that line into the benchmark's result.
//
//   colexbench --workload sim-ring --seed 1 --seconds 10 --trace 0
//
// Exit codes: 0 every election checked out, 1 some did not, 2 usage.
#include <cstdlib>
#include <iostream>
#include <string>

#include "report.hpp"

#ifndef COLEXBENCH_BUILD_TYPE
#define COLEXBENCH_BUILD_TYPE "unknown"
#endif
#ifndef COLEXBENCH_CXX_FLAGS
#define COLEXBENCH_CXX_FLAGS ""
#endif

namespace {

int usage(const std::string& why) {
  std::cerr << "colexbench: " << why
            << "\nusage: colexbench --workload "
               "sim-ring|coro-ring|socket-ring|soak-churn --seed N "
               "--seconds S --trace 0|1\n";
  return 2;
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

std::string sanitizers() {
  std::string s;
#if defined(__SANITIZE_ADDRESS__)
  s += "address ";
#endif
#if defined(__SANITIZE_THREAD__)
  s += "thread ";
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer)
  s += "address ";
#endif
#if __has_feature(thread_sanitizer)
  s += "thread ";
#endif
#endif
  return s.empty() ? "none" : s.substr(0, s.size() - 1);
}

}  // namespace

int main(int argc, char** argv) {
  colexbench::Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') return usage("bad --seed " + value);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(args.seconds > 0.0)) {
        return usage("bad --seconds " + value);
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return usage("bad --trace " + value);
      args.trace = value == "1";
    } else {
      return usage("unknown flag " + flag);
    }
  }
  if (!have_workload) return usage("--workload is required");

  colexbench::Result r;
  r.info("workload", args.workload);
  r.info("seed", static_cast<double>(args.seed));
  r.info("compiler", compiler());
  r.info("build_type", COLEXBENCH_BUILD_TYPE);
  r.info("cxx_flags", COLEXBENCH_CXX_FLAGS);
  r.info("sanitizers", sanitizers());
  if (args.workload == "sim-ring") {
    colexbench::run_sim_ring(args, r);
  } else if (args.workload == "coro-ring") {
    colexbench::run_coro_ring(args, r);
  } else if (args.workload == "socket-ring") {
    colexbench::run_socket_ring(args, r);
  } else if (args.workload == "soak-churn") {
    colexbench::run_soak_churn(args, r);
  } else {
    return usage("unknown workload " + args.workload);
  }
  r.info("failed_share", r.attempted() == 0
                             ? 0.0
                             : static_cast<double>(r.failed()) /
                                   static_cast<double>(r.attempted()));
  std::cout << r.to_json() << std::endl;
  return r.correct() ? 0 : 1;
}
