// E1 — Theorem 1: Algorithm 2 elects the max-ID node on oriented rings with
// quiescent termination and EXACTLY n(2*IDmax + 1) pulses, for every ring
// size, ID pattern, and adversarial schedule.
//
// Besides the sweep, one representative run (n=4, dense-shuffled IDs) is
// recorded with full tracing + metrics and exported as TRACE_E1.jsonl —
// the smoke artifact ci.sh feeds to `colex-inspect check`. --smoke caps
// the sweep at n<=8 (the CI smoke path).
#include <fstream>
#include <iostream>
#include <memory>

#include "bench_common.hpp"
#include "co/alg2.hpp"
#include "co/election.hpp"
#include "obs/export.hpp"
#include "obs/instrument.hpp"
#include "sim/scheduler.hpp"
#include "sim/trace.hpp"
#include "util/ids.hpp"
#include "util/table.hpp"

namespace {

// One fully observed run: trace recording AND metrics instrumentation both
// attached (hook chaining keeps them composable), exported as JSONL.
bool export_observed_run(colex::bench::JsonReport& report) {
  using namespace colex;
  constexpr std::size_t n = 4;
  const auto ids = util::shuffled(util::dense_ids(n), 11);
  std::uint64_t id_max = 0;
  for (const auto id : ids) id_max = std::max(id_max, id);

  auto net = sim::PulseNetwork::ring(n);
  for (sim::NodeId v = 0; v < n; ++v) {
    net.set_automaton(v, std::make_unique<co::Alg2Terminating>(ids[v]));
  }
  sim::RunOptions opts;
  sim::TraceRecorder trace;
  trace.attach(net, opts);
  obs::Registry metrics;
  obs::PulseNetworkInstrumentation instr(metrics, {.enabled = true});
  instr.attach(net, opts);
  sim::RandomScheduler scheduler(11);
  const auto run = net.run(scheduler, opts);
  instr.finish(net);

  obs::TraceMeta meta;
  meta.algorithm = "alg2";
  meta.n = n;
  meta.id_max = id_max;
  const std::string path = "TRACE_E1.jsonl";
  std::ofstream out(path);
  obs::write_jsonl(out, trace.events(), meta, &metrics);
  std::cout << "[trace] wrote " << path << " (" << trace.events().size()
            << " events; inspect with: colex-inspect check " << path
            << ")\n";
  report.embed_metrics(metrics.to_json());

  return run.quiescent && run.all_terminated &&
         run.sent == co::theorem1_pulses(n, id_max) &&
         trace.audit(sim::ring_wiring(n)).empty();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace colex;
  bool smoke = false;
  bench::JsonReport report("E1", "Theorem 1 exact message complexity");
  if (!report.parse_args(argc, argv, smoke)) return 2;
  bench::banner(
      "E1  Theorem 1: quiescently terminating leader election "
      "(bench_e1_theorem1)",
      "message complexity is exactly n(2*IDmax+1); the max-ID node wins; "
      "termination is quiescent under every adversary");
  bench::WallTimer total;

  struct Pattern {
    const char* name;
    std::vector<std::uint64_t> ids;
  };

  util::Table table({"n", "IDmax", "pattern", "schedulers", "pulses",
                     "n(2*IDmax+1)", "exact", "quiescent+terminated"});
  bool all_ok = true;

  for (const std::size_t n : {1u, 2u, 4u, 8u, 16u, 32u, 64u, 128u, 256u}) {
    if (smoke && n > 8) continue;
    std::vector<Pattern> patterns;
    patterns.push_back({"dense-shuffled",
                        util::shuffled(util::dense_ids(n), n * 7 + 1)});
    patterns.push_back({"sparse-16x", util::sparse_ids(n, 16 * n, n + 3)});
    // Descending along the ring: worst case for Chang-Roberts; Theorem 1's
    // cost must not care.
    std::vector<std::uint64_t> desc(n);
    for (std::size_t v = 0; v < n; ++v) desc[v] = n - v;
    patterns.push_back({"descending", std::move(desc)});

    for (auto& pattern : patterns) {
      std::uint64_t id_max = 0;
      for (const auto id : pattern.ids) id_max = std::max(id_max, id);
      const std::uint64_t formula = co::theorem1_pulses(n, id_max);

      // Large rings get fewer schedulers to keep runtime sane.
      const std::size_t randoms = n <= 64 ? 3 : 1;
      auto schedulers = sim::standard_schedulers(randoms);
      bool exact = true, clean = true;
      std::uint64_t measured = 0;
      for (auto& named : schedulers) {
        const auto result =
            co::elect_oriented_terminating(pattern.ids, *named.scheduler);
        measured = result.pulses;
        exact = exact && result.pulses == formula &&
                result.valid_election() &&
                pattern.ids[*result.leader] == id_max &&
                result.within_pulse_bound() && result.pulse_margin() >= 0;
        clean = clean && result.quiescent && result.all_terminated &&
                result.report.deliveries_to_terminated == 0;
      }
      all_ok = all_ok && exact && clean;
      table.add_row({util::Table::num(static_cast<std::uint64_t>(n)),
                     util::Table::num(id_max), pattern.name,
                     util::Table::num(
                         static_cast<std::uint64_t>(schedulers.size())),
                     util::Table::num(measured), util::Table::num(formula),
                     exact ? "yes" : "NO", clean ? "yes" : "NO"});
    }
  }
  table.print(std::cout);

  const bool observed_ok = export_observed_run(report);
  all_ok = all_ok && observed_ok;

  report.root().set("all_ok", all_ok).set("smoke", smoke);
  report.finish(total.seconds());

  bench::verdict(all_ok,
                 "pulse counts match n(2*IDmax+1) exactly in every "
                 "configuration and under every scheduler");
  return all_ok ? 0 : 1;
}
