// E14 — Fuzz-campaign throughput and planted-defect detection cost. The
// property harness (src/qa) is only useful if a meaningful campaign fits in
// a CI smoke budget, so this bench measures (a) cases/second for clean and
// faulty campaigns over the standard generator envelope, (b) the pulse
// distribution those campaigns actually exercise, and (c) the full
// find -> shrink -> minimal-repro cost for the planted off-by-one bound
// defect (the harness's built-in self-test, DESIGN.md §7).
//
// Relation to E12: exhaustive exploration proves properties over ALL
// schedules of tiny rings; fuzzing samples deep biased-walk schedules of
// larger rings and fault envelopes E12 cannot enumerate. The two meet at
// the cross-engine agreement oracle, which fuzz seeds drive directly in
// test_explore_engines.cpp.
#include <iostream>
#include <string>

#include "bench_common.hpp"
#include "qa/fuzzer.hpp"
#include "util/table.hpp"

namespace {

using namespace colex;

qa::CampaignReport timed_campaign(const qa::CampaignOptions& options,
                                  const char* label, util::Table& table,
                                  bench::JsonReport& report) {
  bench::WallTimer timer;
  const qa::CampaignReport r = qa::run_campaign(options);
  const double secs = timer.seconds();
  const double rate = secs > 0 ? static_cast<double>(r.cases_run) / secs : 0;
  table.add_row({label, std::to_string(r.cases_run),
                 std::to_string(r.clean_cases),
                 std::to_string(r.faulty_cases),
                 std::to_string(r.counterexamples.size()),
                 util::Table::fixed(rate, 0),
                 util::Table::fixed(r.pulses.p50, 0),
                 util::Table::fixed(r.pulses.p99, 0)});
  bench::Json row = bench::Json::object();
  row.set("campaign", std::string(label))
      .set("cases", static_cast<std::uint64_t>(r.cases_run))
      .set("counterexamples",
           static_cast<std::uint64_t>(r.counterexamples.size()))
      .set("cases_per_second", rate)
      .set("wall_seconds", secs)
      .set("pulses_p50", r.pulses.p50)
      .set("pulses_p99", r.pulses.p99)
      .set("pulses_max", r.pulses.max);
  report.add_result(std::move(row));
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  bench::JsonReport report("E14", "fuzz campaign throughput");
  if (!report.parse_args(argc, argv, smoke)) return 2;
  const std::size_t cases = smoke ? 60 : 400;

  bench::banner(
      "E14 — property-fuzz campaigns: throughput and planted-defect cost",
      "seeded generate->check->shrink sustains CI-smoke-scale campaigns; "
      "the planted bound defect is found on the first seed and shrinks to "
      "the one-node ring");

  bench::WallTimer total;

  util::Table table({"campaign", "cases", "clean", "faulty", "cx", "cases/s",
                     "pulses p50", "pulses p99"});

  qa::CampaignOptions clean;
  clean.cases = cases;
  const qa::CampaignReport clean_report =
      timed_campaign(clean, "clean (all algs)", table, report);

  qa::CampaignOptions faulty;
  faulty.cases = cases;
  faulty.generator.fault_fraction = 1.0;
  const qa::CampaignReport faulty_report =
      timed_campaign(faulty, "faulty (plan on every case)", table, report);

  qa::CampaignOptions planted;
  planted.cases = cases;
  planted.generator.algorithms = {co::Algorithm::alg2};
  planted.properties.planted_bound_bug = true;
  bench::WallTimer planted_timer;
  const qa::CampaignReport planted_report = qa::run_campaign(planted);
  const double planted_secs = planted_timer.seconds();
  table.add_row({"planted bug (alg2)",
                 std::to_string(planted_report.cases_run), "-", "-",
                 std::to_string(planted_report.counterexamples.size()), "-",
                 "-", "-"});
  table.print(std::cout);

  bool planted_ok = false;
  if (!planted_report.counterexamples.empty()) {
    const qa::Counterexample& cx = planted_report.counterexamples.front();
    planted_ok = cx.minimal.n() == 1 && cx.minimal.clean();
    std::cout << "\nplanted defect: found at seed " << cx.seed << ", shrunk "
              << cx.original.n() << "-node case to " << cx.minimal.n()
              << "-node in " << cx.shrink_stats.attempts << " attempts ("
              << cx.shrink_stats.improvements << " improvements, "
              << util::Table::fixed(planted_secs * 1e3, 1) << " ms total)\n";
    bench::Json row = bench::Json::object();
    row.set("campaign", std::string("planted"))
        .set("found_at_seed", cx.seed)
        .set("shrink_attempts",
             static_cast<std::uint64_t>(cx.shrink_stats.attempts))
        .set("minimal_n", static_cast<std::uint64_t>(cx.minimal.n()))
        .set("wall_seconds", planted_secs);
    report.add_result(std::move(row));
  }

  report.finish(total.seconds());

  bench::verdict(
      clean_report.ok() && faulty_report.ok() && planted_ok,
      "campaigns find no real counterexamples, and the planted defect is "
      "detected and minimized to the one-node ring");
  return clean_report.ok() && faulty_report.ok() && planted_ok ? 0 : 1;
}
