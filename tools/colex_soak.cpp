// colex-soak: election-as-a-service soak driver over src/svc.
//
//   colex-soak [options]     (a malformed invocation prints every option)
//
// --serve announces the bound port on stderr as "serving metrics on
// 127.0.0.1:PORT" and serves Prometheus /metrics plus /healthz and
// /debug/flight for the run's duration; scrape it with colex-top or any
// Prometheus client. --backend picks the substrate for clean attempts;
// faulty attempts always run on the simulator.
//
// Exit status (DESIGN.md §15): 0 the service-level gate held (at least one
// election completed; zero safety-violated, zero diverged, zero abandoned;
// every started election completed within its pulse count with a unique
// max-ID leader); 1 the gate failed; 2 usage error.
#include <cstdint>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "svc/soak.hpp"
#include "util/cli.hpp"

namespace {

using namespace colex;
namespace cli = util::cli;

void print_human(const svc::SoakReport& r) {
  std::cout << "soak: " << r.rings << " rings on " << r.shards_used
            << " shards, " << r.wall_seconds << "s wall\n"
            << "  elections: " << r.started << " started, " << r.completed
            << " completed, " << r.retried << " retried, " << r.abandoned
            << " abandoned\n"
            << "  failures: " << r.safety_violated << " safety-violated, "
            << r.diverged << " diverged, " << r.stalled << " stalled\n"
            << "  attempts: " << r.attempts << " (" << r.coro_attempts
            << " on coro, " << r.socket_attempts << " on socket, "
            << r.faults_applied << " faults applied)\n"
            << "  throughput: " << r.elections_per_second << " elections/s\n"
            << "  latency ms: p50=" << r.latency_ms.p50
            << " p95=" << r.latency_ms.p95 << " p99=" << r.latency_ms.p99
            << " max=" << r.latency_ms.max << "\n";
  for (std::size_t s = 0; s < r.shards.size(); ++s) {
    const svc::ShardStats& st = r.shards[s];
    std::cout << "  shard " << s << ": " << st.elections << " elections, "
              << st.attempts << " attempts, utilization=" << st.utilization
              << (st.stalled ? " STALLED" : "") << "\n";
  }
  for (const std::string& v : r.violations) {
    std::cout << "  violation: " << v << "\n";
  }
  if (r.snapshots_written > 0) {
    std::cout << "  snapshots written: " << r.snapshots_written << "\n";
  }
  std::cout << (r.ok() ? "OK: service-level gate held"
                       : "FAIL: service-level gate violated")
            << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  svc::SoakOptions options;
  svc::SupervisorPolicy& policy = options.policy;
  svc::ChurnPreset churn = svc::ChurnPreset::steady;
  bool json = false;
  const double positive = std::numeric_limits<double>::denorm_min();
  const cli::Command cmd{.flags = {
      cli::f64("--duration", "S", options.duration_seconds, "seconds", 0),
      cli::u64("--rings", "N", options.rings, "concurrent ring slots", 1),
      cli::u64("--shards", "N", options.shards, "threads; 0 = all cores"),
      cli::u64("--seed", "S", options.seed, "soak seed"),
      cli::Flag{"--churn", "P", "calm | steady | storm (default steady)",
                  [&churn](std::string_view v) {
                    return svc::preset_from_string(std::string(v), churn);
                  }},
      cli::u64("--min-elections", "N", options.min_elections,
               "run past --duration until N finished"),
      cli::u64("--max-elections", "N", options.max_elections,
               "stop after N finished; 0 = at --duration"),
      cli::u64("--max-attempts", "N", policy.max_attempts,
               "attempt budget per election", 1),
      cli::u64("--clean-after", "N", policy.clean_after_attempts,
               "attempts >= N run fault-free"),
      cli::Flag{"--backend", "B", "sim | coro | socket (default sim)",
                  [&policy](std::string_view v) {
                    return svc::backend_from_string(std::string(v),
                                                    policy.backend);
                  }},
      cli::str("--snapshot", "FILE", options.snapshot_path,
               "keep FILE a colex-trace-v1 metrics snapshot"),
      cli::f64("--snapshot-every", "S", options.snapshot_every_seconds,
               "snapshot cadence, seconds", positive),
      cli::u64("--serve", "PORT", options.serve,
               "serve /metrics on 127.0.0.1:PORT; 0 = any", 0, 65535),
      cli::flag("--json", json, "print the one-line JSON summary"),
  }, .check = [&policy] {
    return policy.clean_after_attempts < policy.max_attempts
               ? ""
               : "--clean-after must be < --max-attempts (the self-healing "
                 "guarantee needs a clean final rung)";
  }};
  if (cli::parse_argv({cmd}, argc, argv) == nullptr) return cli::kUsageExit;
  options.churn = svc::ChurnProfile::preset(churn);

  if (options.serve >= 0) {
    // Announced on stderr (unbuffered relative to the report on stdout) so
    // scripts can discover an ephemeral port while the soak is running.
    options.on_serve = [](std::uint16_t port) {
      std::cerr << "serving metrics on 127.0.0.1:" << port << std::endl;
    };
  }

  const svc::SoakReport report = svc::run_soak(options);
  if (json) {
    std::cout << report.to_json() << "\n";
  } else {
    print_human(report);
  }
  return report.ok() ? 0 : 1;
}
