// colex-soak: election-as-a-service soak driver over src/svc.
//
//   colex-soak [options]
//
// options:
//   --duration S        wall-clock seconds to run (default 10)
//   --rings N           concurrent ring slots (default 1024)
//   --shards N          worker threads (default 0 = hardware concurrency)
//   --seed S            soak seed (default 1)
//   --churn P           churn profile: calm | steady | storm (default steady)
//   --min-elections N   keep running past --duration until N finished
//   --max-elections N   stop early after N finished (0 = duration-driven)
//   --max-attempts N    supervisor attempt budget per election (default 4)
//   --clean-after N     attempts >= N run fault-free (default 2)
//   --backend B         substrate for clean attempts: sim | coro | socket
//                       (default sim; socket runs them as real loopback
//                       TCP rings via src/net; coro runs them on the
//                       coroutine
//                       executor — faulty attempts always run on sim)
//   --snapshot FILE     periodically rewrite FILE as a colex-trace-v1
//                       metrics snapshot (view with `colex-inspect summary`)
//   --snapshot-every S  snapshot cadence in seconds (default 1)
//   --serve PORT        serve live Prometheus /metrics (plus /healthz and
//                       /debug/flight) on 127.0.0.1:PORT for the run's
//                       duration; 0 picks an ephemeral port. The bound
//                       port is announced on stderr as
//                       "serving metrics on 127.0.0.1:PORT". Scrape with
//                       colex-top or any Prometheus client.
//   --json              print the one-line machine-readable summary instead
//                       of the human report
//
// Exit status: 0 the service-level gate held (zero safety-violated, zero
// diverged, zero abandoned; every started election completed within the
// Theorem 1 pulse bound with a unique max-ID leader); 1 the gate failed;
// 2 usage error.
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "svc/soak.hpp"
#include "util/json.hpp"

namespace {

using namespace colex;
using util::parse_u64;

int usage() {
  std::cerr << "usage:\n"
               "  colex-soak [--duration S] [--rings N] [--shards N]\n"
               "             [--seed S] [--churn calm|steady|storm]\n"
               "             [--min-elections N] [--max-elections N]\n"
               "             [--max-attempts N] [--clean-after N]\n"
               "             [--backend sim|coro|socket]\n"
               "             [--snapshot FILE] [--snapshot-every S]\n"
               "             [--serve PORT] [--json]\n";
  return 2;
}

bool parse_f64(const std::string& s, double& out) {
  try {
    std::size_t used = 0;
    out = std::stod(s, &used);
    return used == s.size() && out >= 0.0;
  } catch (...) {
    return false;
  }
}

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
  bool json = false;

  const std::vector<std::string> args(argv + 1, argv + argc);
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    const bool has_value = i + 1 < args.size();
    std::uint64_t u = 0;
    double f = 0.0;
    if (a == "--json") {
      json = true;
    } else if (a == "--duration" && has_value && parse_f64(args[++i], f)) {
      options.duration_seconds = f;
    } else if (a == "--rings" && has_value && parse_u64(args[++i], u) &&
               u >= 1) {
      options.rings = static_cast<std::size_t>(u);
    } else if (a == "--shards" && has_value && parse_u64(args[++i], u)) {
      options.shards = static_cast<std::size_t>(u);
    } else if (a == "--seed" && has_value && parse_u64(args[++i], u)) {
      options.seed = u;
    } else if (a == "--churn" && has_value) {
      svc::ChurnPreset preset{};
      if (!svc::preset_from_string(args[++i], preset)) return usage();
      options.churn = svc::ChurnProfile::preset(preset);
    } else if (a == "--min-elections" && has_value && parse_u64(args[++i], u)) {
      options.min_elections = u;
    } else if (a == "--max-elections" && has_value && parse_u64(args[++i], u)) {
      options.max_elections = u;
    } else if (a == "--max-attempts" && has_value && parse_u64(args[++i], u) &&
               u >= 1) {
      options.policy.max_attempts = static_cast<unsigned>(u);
    } else if (a == "--clean-after" && has_value && parse_u64(args[++i], u)) {
      options.policy.clean_after_attempts = static_cast<unsigned>(u);
    } else if (a == "--backend" && has_value) {
      if (!svc::backend_from_string(args[++i], options.policy.backend)) {
        return usage();
      }
    } else if (a == "--snapshot" && has_value) {
      options.snapshot_path = args[++i];
    } else if (a == "--snapshot-every" && has_value &&
               parse_f64(args[++i], f) && f > 0.0) {
      options.snapshot_every_seconds = f;
    } else if (a == "--serve" && has_value && parse_u64(args[++i], u) &&
               u <= 65535) {
      options.serve = static_cast<int>(u);
    } else {
      return usage();
    }
  }
  if (options.policy.clean_after_attempts >= options.policy.max_attempts) {
    std::cerr << "colex-soak: --clean-after must be < --max-attempts "
                 "(the self-healing guarantee needs a clean final rung)\n";
    return 2;
  }

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
