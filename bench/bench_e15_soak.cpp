// E15 — Election-as-a-service soak: sustained throughput of the sharded
// multi-ring driver under churn. Thousands of independent ring slots each
// run an endless stream of supervised elections while a seeded churn engine
// crashes nodes, storms channels, and respawns every ring with a fresh size;
// the supervisor retries with exponential backoff and a guaranteed-clean
// final rung. The service-level claim measured here: across every churn
// profile, zero elections end safety-violated, diverged, or abandoned, and
// every completed election carried a unique max-ID leader within the
// Theorem 1 pulse bound — at a sustained elections/sec the harness reports
// alongside p99 latency.
//
// --smoke is the short CI run: 1 s per profile on 256 rings.
#include <cstdint>
#include <iostream>
#include <string>

#include "bench_common.hpp"
#include "svc/soak.hpp"
#include "util/table.hpp"

namespace {

using namespace colex;

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  bench::JsonReport report("E15", "soak harness throughput under churn");
  double duration = 20.0;
  std::size_t rings = 1024;
  std::uint64_t seed = 1;
  if (!report.parse_args(
          argc, argv, smoke,
          {util::cli::f64("--duration", "S", duration, "seconds per churn", 0),
           util::cli::u64("--rings", "N", rings, "concurrent ring slots", 1),
           util::cli::u64("--seed", "S", seed, "soak seed")})) {
    return 2;
  }
  if (smoke) {
    duration = 1.0;
    rings = 256;
  }

  bench::banner(
      "E15 — election-as-a-service soak: throughput under sustained churn",
      "a sharded multi-ring driver sustains thousands of concurrent "
      "supervised elections under crash/recover churn and fault storms with "
      "zero safety violations, every completion within the Theorem 1 bound");

  bench::WallTimer total;

  util::Table table({"churn", "rings", "shards", "elections", "retried",
                     "faults", "elections/s", "p50 ms", "p99 ms", "gate"});

  bool all_ok = true;
  double steady_eps = 0.0;
  double steady_p99 = 0.0;
  for (const svc::ChurnPreset preset :
       {svc::ChurnPreset::calm, svc::ChurnPreset::steady,
        svc::ChurnPreset::storm}) {
    svc::SoakOptions options;
    options.duration_seconds = duration;
    options.rings = rings;
    options.seed = seed;
    options.churn = svc::ChurnProfile::preset(preset);
    options.min_elections = smoke ? 100 : 1000;
    const svc::SoakReport r = svc::run_soak(options);
    all_ok = all_ok && r.ok();
    if (preset == svc::ChurnPreset::steady) {
      steady_eps = r.elections_per_second;
      steady_p99 = r.latency_ms.p99;
    }
    table.add_row({svc::to_string(preset), std::to_string(r.rings),
                   std::to_string(r.shards_used), std::to_string(r.completed),
                   std::to_string(r.retried),
                   std::to_string(r.faults_applied),
                   util::Table::fixed(r.elections_per_second, 0),
                   util::Table::fixed(r.latency_ms.p50, 3),
                   util::Table::fixed(r.latency_ms.p99, 3),
                   r.ok() ? "held" : "VIOLATED"});
    for (const std::string& v : r.violations) {
      std::cout << "violation [" << svc::to_string(preset) << "]: " << v
                << "\n";
    }
    bench::Json row = bench::Json::object();
    row.set("churn", std::string(svc::to_string(preset)))
        .set("rings", static_cast<std::uint64_t>(r.rings))
        .set("shards", static_cast<std::uint64_t>(r.shards_used))
        .set("wall_seconds", r.wall_seconds)
        .set("started", r.started)
        .set("completed", r.completed)
        .set("retried", r.retried)
        .set("abandoned", r.abandoned)
        .set("diverged", r.diverged)
        .set("safety_violated", r.safety_violated)
        .set("attempts", r.attempts)
        .set("faults_applied", r.faults_applied)
        .set("elections_per_second", r.elections_per_second)
        .set("latency_ms_p50", r.latency_ms.p50)
        .set("latency_ms_p95", r.latency_ms.p95)
        .set("latency_ms_p99", r.latency_ms.p99)
        .set("latency_ms_max", r.latency_ms.max)
        .set("gate_ok", r.ok());
    report.add_result(std::move(row));
  }
  table.print(std::cout);
  std::cout << "\nsteady-churn headline: "
            << util::Table::fixed(steady_eps, 0) << " elections/s, p99 "
            << util::Table::fixed(steady_p99, 3) << " ms\n";

  report.root().set("elections_per_second", steady_eps)
      .set("latency_ms_p99", steady_p99);
  report.finish(total.seconds());

  bench::verdict(all_ok,
                 "every churn profile sustained concurrent elections with "
                 "zero safety-violated, diverged, or abandoned outcomes; "
                 "every completion passed the Theorem 1 pulse-bound check");
  return all_ok ? 0 : 1;
}
