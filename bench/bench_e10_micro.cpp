// E10 — Simulator micro-benchmarks (google-benchmark): raw event
// throughput of the discrete-event substrate for the content-oblivious
// algorithms, the token bus, and the content-carrying baselines.
#include <benchmark/benchmark.h>

#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "baselines/baselines.hpp"
#include "bench_common.hpp"
#include "co/election.hpp"
#include "colib/apps.hpp"
#include "colib/composed.hpp"
#include "sim/scheduler.hpp"
#include "util/ids.hpp"

namespace {

using namespace colex;

void BM_Alg2Election(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto ids = util::shuffled(util::dense_ids(n), 7);
  std::uint64_t pulses = 0;
  for (auto _ : state) {
    sim::GlobalFifoScheduler sched;
    const auto result = co::elect_oriented_terminating(ids, sched);
    pulses = result.pulses;
    benchmark::DoNotOptimize(result.leader);
  }
  state.counters["pulses"] = static_cast<double>(pulses);
  state.counters["pulses/s"] = benchmark::Counter(
      static_cast<double>(pulses) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Alg2Election)->Arg(16)->Arg(64)->Arg(256)->Arg(1024);

void BM_Alg1Stabilization(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto ids = util::shuffled(util::dense_ids(n), 7);
  for (auto _ : state) {
    sim::GlobalFifoScheduler sched;
    const auto result = co::elect_oriented_stabilizing(ids, sched);
    benchmark::DoNotOptimize(result.pulses);
  }
}
BENCHMARK(BM_Alg1Stabilization)->Arg(16)->Arg(64)->Arg(256);

void BM_Alg3NonOriented(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto ids = util::shuffled(util::dense_ids(n), 7);
  const auto flips = util::random_flips(n, 3);
  for (auto _ : state) {
    sim::GlobalFifoScheduler sched;
    co::Alg3NonOriented::Options options;
    const auto result = co::elect_and_orient(ids, flips, options, sched);
    benchmark::DoNotOptimize(result.pulses);
  }
}
BENCHMARK(BM_Alg3NonOriented)->Arg(16)->Arg(64)->Arg(256);

void BM_RandomSchedulerElection(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto ids = util::shuffled(util::dense_ids(n), 7);
  std::uint64_t pulses = 0;
  for (auto _ : state) {
    sim::RandomScheduler sched(11);
    const auto result = co::elect_oriented_terminating(ids, sched);
    pulses = result.pulses;
    benchmark::DoNotOptimize(result.pulses);
  }
  state.counters["pulses"] = static_cast<double>(pulses);
  state.counters["pulses/s"] = benchmark::Counter(
      static_cast<double>(pulses) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}
// The random adversary keeps about n/4 channels in flight, so pulses/s
// across these sizes shows how the per-pulse cost scales with the choice
// set the runner maintains.
BENCHMARK(BM_RandomSchedulerElection)->Arg(64)->Arg(256)->Arg(512)->Arg(1024);

void BM_ComposedGatherAll(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto ids = util::shuffled(util::dense_ids(n), 7);
  for (auto _ : state) {
    sim::GlobalFifoScheduler sched;
    const auto result = colib::run_composed(
        ids,
        [](sim::NodeId v) {
          return std::make_unique<colib::GatherAllApp>(v + 1);
        },
        sched);
    benchmark::DoNotOptimize(result.total_pulses);
  }
}
BENCHMARK(BM_ComposedGatherAll)->Arg(8)->Arg(16)->Arg(32);

void BM_BaselineHirschbergSinclair(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto ids = util::shuffled(util::dense_ids(n), 7);
  for (auto _ : state) {
    sim::GlobalFifoScheduler sched;
    const auto result = baselines::hirschberg_sinclair(ids, sched);
    benchmark::DoNotOptimize(result.messages);
  }
}
BENCHMARK(BM_BaselineHirschbergSinclair)->Arg(64)->Arg(256)->Arg(1024);

void BM_BaselineChangRoberts(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto ids = util::shuffled(util::dense_ids(n), 7);
  for (auto _ : state) {
    sim::GlobalFifoScheduler sched;
    const auto result = baselines::chang_roberts(ids, sched);
    benchmark::DoNotOptimize(result.messages);
  }
}
BENCHMARK(BM_BaselineChangRoberts)->Arg(64)->Arg(256)->Arg(1024);

/// Sends every report both to the display reporter the command line asks
/// for and to google-benchmark's own JSONReporter, whose text is kept for
/// BENCH_E10.json.
class TeeReporter final : public benchmark::BenchmarkReporter {
 public:
  TeeReporter() { json_.SetOutputStream(&json_text_); }
  bool ReportContext(const Context& context) override {
    json_.ReportContext(context);
    return display_->ReportContext(context);
  }
  void ReportRuns(const std::vector<Run>& runs) override {
    display_->ReportRuns(runs);
    json_.ReportRuns(runs);
  }
  void Finalize() override {
    display_->Finalize();
    json_.Finalize();
  }
  std::string json_text() const { return json_text_.str(); }

 private:
  // Owned by the library (a process-wide instance honouring the
  // --benchmark_format and --benchmark_color flags).
  benchmark::BenchmarkReporter* display_ =
      benchmark::CreateDefaultDisplayReporter();
  benchmark::JSONReporter json_;
  std::ostringstream json_text_;
};

/// One row per benchmark from the JSONReporter's output: its name, real
/// time with unit, and pulses/s counter where it has one, each value
/// spliced in verbatim as the reporter printed it.
std::vector<colex::bench::Json> benchmark_rows(const std::string& json_text) {
  using colex::bench::Json;
  std::vector<Json> rows;
  std::istringstream lines(json_text);
  std::string line;
  while (std::getline(lines, line)) {
    const auto at = line.find_first_not_of(' ');
    if (at == std::string::npos) continue;
    for (const std::string key :
         {"name", "real_time", "time_unit", "pulses/s"}) {
      const std::string needle = "\"" + key + "\": ";
      if (line.compare(at, needle.size(), needle) != 0) continue;
      std::string value = line.substr(at + needle.size());
      if (!value.empty() && value.back() == ',') value.pop_back();
      if (key == "name") rows.push_back(Json::object());
      if (!rows.empty()) rows.back().set_json(key, Json::raw(value));
    }
  }
  return rows;
}

}  // namespace

// Custom main instead of BENCHMARK_MAIN(): the console keeps the usual
// table, and google-benchmark's JSONReporter supplies the per-benchmark
// timings committed in BENCH_E10.json.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  colex::bench::WallTimer total;
  TeeReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  colex::bench::JsonReport report(
      "E10", "simulator micro-benchmarks (google-benchmark real_time per "
             "iteration, pulses/s where counted)");
  for (auto& row : benchmark_rows(reporter.json_text())) {
    report.add_result(std::move(row));
  }
  report.finish(total.seconds());
  return 0;
}
