// colex-inspect: offline trace forensics for colex-trace-v1 JSONL files
// (written by obs::write_jsonl — see bench_e1_theorem1 and the examples).
//
//   colex-inspect summary <trace.jsonl>          per-node traffic breakdown
//   colex-inspect check   <trace.jsonl>          audit + paper pulse bounds
//   colex-inspect chrome  <trace.jsonl> <out>    convert to Chrome trace JSON
//   colex-inspect diff    <a.jsonl> <b.jsonl>    structural trace comparison
//   colex-inspect metrics <trace.jsonl>          Prometheus text exposition
//
// Exit status (DESIGN.md §15): 0 clean, 1 check failed / traces differ, 2
// usage or load error. `check` prints one "theorem1-bound: ..." line that
// ci.sh greps. `metrics` renders the embedded registry snapshot through the
// same encoder the live /metrics endpoint uses, so a recorded snapshot and
// a live scrape of identical registries are byte-comparable.
#include <array>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "obs/export.hpp"
#include "obs/serve.hpp"
#include "sim/trace.hpp"
#include "util/cli.hpp"
#include "util/contracts.hpp"

namespace {

using colex::obs::LoadedTrace;
using colex::sim::TraceEvent;

constexpr std::array<TraceEvent::Kind, 8> kAllKinds{
    TraceEvent::Kind::send,          TraceEvent::Kind::deliver,
    TraceEvent::Kind::fault_drop,    TraceEvent::Kind::fault_duplicate,
    TraceEvent::Kind::fault_spurious, TraceEvent::Kind::fault_crash,
    TraceEvent::Kind::fault_recover, TraceEvent::Kind::fault_corrupt,
};

std::size_t kind_slot(TraceEvent::Kind kind) {
  for (std::size_t i = 0; i < kAllKinds.size(); ++i) {
    if (kAllKinds[i] == kind) return i;
  }
  return 0;  // unreachable: kAllKinds is exhaustive
}

std::size_t node_span(const LoadedTrace& trace) {
  std::size_t n = trace.meta.n;
  for (const auto& e : trace.events) n = std::max(n, e.node + 1);
  return n;
}

/// Per-node event counts, one row per node, one column per kind.
std::vector<std::array<std::uint64_t, 8>> per_node_counts(
    const LoadedTrace& trace) {
  std::vector<std::array<std::uint64_t, 8>> counts(
      node_span(trace), std::array<std::uint64_t, 8>{});
  for (const auto& e : trace.events) {
    ++counts[e.node][kind_slot(e.kind)];
  }
  return counts;
}

std::uint64_t total(const LoadedTrace& trace, TraceEvent::Kind kind) {
  std::uint64_t n = 0;
  for (const auto& e : trace.events) {
    if (e.kind == kind) ++n;
  }
  return n;
}

void print_meta(const LoadedTrace& trace) {
  std::cout << "trace: algorithm="
            << (trace.meta.algorithm.empty() ? "?" : trace.meta.algorithm)
            << " n=" << trace.meta.n << " id_max=" << trace.meta.id_max
            << " port_flips=";
  if (trace.meta.port_flips.empty()) {
    std::cout << "none";
  } else {
    for (const bool f : trace.meta.port_flips) std::cout << (f ? '1' : '0');
  }
  std::cout << " events=" << trace.events.size() << "\n";
}

int cmd_summary(const LoadedTrace& trace) {
  print_meta(trace);
  const auto counts = per_node_counts(trace);
  for (std::size_t v = 0; v < counts.size(); ++v) {
    std::cout << "node " << v << ":";
    for (std::size_t k = 0; k < kAllKinds.size(); ++k) {
      if (counts[v][k] == 0) continue;
      std::cout << " " << colex::sim::to_string(kAllKinds[k]) << "="
                << counts[v][k];
    }
    std::cout << "\n";
  }
  const std::uint64_t sends = total(trace, TraceEvent::Kind::send);
  const std::uint64_t delivered = total(trace, TraceEvent::Kind::deliver);
  std::cout << "totals: sends=" << sends << " deliveries=" << delivered
            << " in-flight-at-end=" << (sends >= delivered ? sends - delivered : 0)
            << "\n";
  if (!trace.metrics_json.empty()) {
    std::cout << "metrics: " << trace.metrics_json << "\n";
  }
  return 0;
}

/// Replays the stream through the same channel-balance audit the simulator
/// tests use, then checks the meta line's algorithm against its exact pulse
/// count (co/algorithms.hpp), named after the claim it comes from.
int cmd_check(const LoadedTrace& trace) {
  print_meta(trace);
  bool ok = true;

  if (trace.meta.n == 0) {
    std::cout << "audit: SKIPPED (ring shape unknown; meta has n=0)\n";
  } else {
    colex::sim::TraceRecorder recorder;
    for (const auto& e : trace.events) {
      recorder.record_fault(e.kind, e.node, e.port, e.dir);
    }
    const std::string report = recorder.audit(
        colex::sim::ring_wiring(trace.meta.n, trace.meta.port_flips));
    if (report.empty()) {
      std::cout << "audit: clean (per-channel conservation holds)\n";
    } else {
      std::cout << "audit: FAILED: " << report << "\n";
      ok = false;
    }
  }

  const auto alg = colex::co::from_string(trace.meta.algorithm);
  const std::uint64_t bound = trace.meta.pulse_bound();
  const std::uint64_t sends = total(trace, TraceEvent::Kind::send);
  if (!alg) {
    std::cout << "pulse-bound: SKIPPED (no exact count for algorithm '"
              << trace.meta.algorithm << "')\n";
    return ok ? 0 : 1;
  }
  const colex::co::AlgorithmFacts& f = colex::co::facts(*alg);
  std::cout << f.count_name << "-bound: ";
  if (bound == 0) {
    std::cout << "SKIPPED (meta lacks n or id_max)\n";
  } else if (sends <= bound) {
    std::cout << "OK (pulses=" << sends << " <= " << f.count_formula << "="
              << bound << ", margin=" << (bound - sends) << ")\n";
  } else {
    std::cout << "VIOLATED (pulses=" << sends << " > " << f.count_formula
              << "=" << bound << ")\n";
    ok = false;
  }
  return ok ? 0 : 1;
}

int cmd_chrome(const LoadedTrace& trace, const std::string& out_path) {
  std::ofstream out(out_path);
  if (!out.good()) {
    std::cerr << "colex-inspect: cannot write " << out_path << "\n";
    return 2;
  }
  colex::obs::write_chrome_trace(out, trace.events, trace.meta);
  std::cout << "wrote " << out_path
            << " (open in chrome://tracing or ui.perfetto.dev)\n";
  return 0;
}

int cmd_diff(const LoadedTrace& a, const LoadedTrace& b) {
  bool same = true;
  if (a.meta.n != b.meta.n || a.meta.id_max != b.meta.id_max ||
      a.meta.algorithm != b.meta.algorithm ||
      a.meta.port_flips != b.meta.port_flips) {
    std::cout << "meta differs:\n  a: ";
    print_meta(a);
    std::cout << "  b: ";
    print_meta(b);
    same = false;
  }
  // Aggregate view first (order-insensitive): which kinds moved, per node.
  const auto ca = per_node_counts(a);
  const auto cb = per_node_counts(b);
  const std::size_t nodes = std::max(ca.size(), cb.size());
  for (std::size_t v = 0; v < nodes; ++v) {
    const std::array<std::uint64_t, 8> za{};
    const auto& ra = v < ca.size() ? ca[v] : za;
    const auto& rb = v < cb.size() ? cb[v] : za;
    for (std::size_t k = 0; k < kAllKinds.size(); ++k) {
      if (ra[k] != rb[k]) {
        std::cout << "node " << v << " " << colex::sim::to_string(kAllKinds[k])
                  << ": " << ra[k] << " vs " << rb[k] << "\n";
        same = false;
      }
    }
  }
  // Then the first point of divergence in stream order, which is what you
  // actually chase when two supposedly deterministic runs disagree.
  const std::size_t common = std::min(a.events.size(), b.events.size());
  for (std::size_t i = 0; i < common; ++i) {
    if (!(a.events[i] == b.events[i])) {
      std::cout << "first divergence at event " << i << ":\n  a: "
                << colex::sim::to_string(a.events[i]) << "\n  b: "
                << colex::sim::to_string(b.events[i]) << "\n";
      same = false;
      break;
    }
  }
  if (a.events.size() != b.events.size()) {
    std::cout << "length differs: " << a.events.size() << " vs "
              << b.events.size() << " events\n";
    same = false;
  }
  std::cout << (same ? "traces identical\n" : "traces differ\n");
  return same ? 0 : 1;
}

int cmd_metrics(const LoadedTrace& trace) {
  if (trace.metrics_json.empty()) {
    std::cerr << "colex-inspect: trace carries no metrics line\n";
    return 2;
  }
  try {
    const colex::obs::Registry reg =
        colex::obs::registry_from_json(trace.metrics_json);
    colex::obs::write_prometheus(std::cout, reg);
  } catch (const std::exception& e) {
    std::cerr << "colex-inspect: malformed metrics snapshot: " << e.what()
              << "\n";
    return 2;
  }
  return 0;
}

LoadedTrace load_or_exit(const std::string& path) {
  try {
    return colex::obs::load_jsonl_file(path);
  } catch (const std::exception& e) {
    std::cerr << "colex-inspect: failed to load " << path << ": " << e.what()
              << "\n";
    std::exit(2);
  }
}

}  // namespace

int main(int argc, char** argv) {
  namespace cli = colex::util::cli;
  std::string trace;
  std::string other;  // chrome: the output file; diff: the second trace
  const std::vector<cli::Command> commands = {
      {.name = "summary",
       .positionals = {{"trace.jsonl", &trace}},
       .body = [&] { return cmd_summary(load_or_exit(trace)); }},
      {.name = "check",
       .positionals = {{"trace.jsonl", &trace}},
       .body = [&] { return cmd_check(load_or_exit(trace)); }},
      {.name = "chrome",
       .positionals = {{"trace.jsonl", &trace}, {"out.json", &other}},
       .body = [&] { return cmd_chrome(load_or_exit(trace), other); }},
      {.name = "diff",
       .positionals = {{"a.jsonl", &trace}, {"b.jsonl", &other}},
       .body = [&] {
         return cmd_diff(load_or_exit(trace), load_or_exit(other));
       }},
      {.name = "metrics",
       .positionals = {{"trace.jsonl", &trace}},
       .body = [&] { return cmd_metrics(load_or_exit(trace)); }},
  };
  return cli::run(commands, argc, argv);
}
