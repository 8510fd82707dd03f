#include "report.hpp"

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>

namespace colexbench {

namespace {

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

}  // namespace

void Result::check(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  std::cerr << "colexbench: FAILED election: " << what << "\n";
}

void Result::tally(std::uint64_t attempted, std::uint64_t failed,
                   const std::string& what) {
  attempted_ += attempted;
  failed_ += failed;
  if (failed != 0) {
    std::cerr << "colexbench: FAILED " << failed << " elections: " << what
              << "\n";
  }
}

void Result::reconcile(bool ok, const std::string& what) {
  if (ok) {
    ++reconciled_;
    return;
  }
  ++reconcile_failed_;
  std::cerr << "colexbench: layer counts do not reconcile: " << what << "\n";
}

double Result::reconciled_share() const {
  const std::uint64_t total = reconciled_ + reconcile_failed_;
  return total == 0 ? 0.0
                    : static_cast<double>(reconciled_) /
                          static_cast<double>(total);
}

void Result::metric(const std::string& name, double value,
                    const std::string& unit) {
  if (!std::isfinite(value)) {
    std::cerr << "colexbench: metric " << name << " is not finite\n";
    std::abort();
  }
  metrics_.push_back({name, {value, unit}});
}

void Result::info(const std::string& key, double value) {
  info_.push_back({key, number(value)});
}

void Result::info(const std::string& key, const std::string& value) {
  info_.push_back({key, quoted(value)});
}

std::string Result::to_json() const {
  std::ostringstream os;
  os << "{\"correct\": " << (correct() ? "true" : "false")
     << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const auto& [name, m] = metrics_[i];
    os << (i == 0 ? "" : ", ") << quoted(name) << ": {\"value\": "
       << number(m.first) << ", \"unit\": " << quoted(m.second) << "}";
  }
  os << "}, \"info\": {";
  for (std::size_t i = 0; i < info_.size(); ++i) {
    os << (i == 0 ? "" : ", ") << quoted(info_[i].first) << ": "
       << info_[i].second;
  }
  os << "}}";
  return os.str();
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

LoopStats closed_loop(double seconds, int slices,
                      const std::function<void()>& election) {
  LoopStats s;
  const auto t_start = Clock::now();
  auto slice_start = t_start;
  for (int k = 1; k <= slices; ++k) {
    // Absolute slice ends, so the run overshoots by at most one election.
    const auto slice_end =
        t_start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(seconds * k / slices));
    std::size_t done = 0;
    Clock::time_point now;
    do {
      const auto e0 = Clock::now();
      election();
      now = Clock::now();
      s.latency_ms.push_back(std::chrono::duration<double, std::milli>(
                                 now - e0)
                                 .count());
      ++done;
    } while (now < slice_end);
    s.slice_elections_per_s.push_back(
        static_cast<double>(done) /
        std::chrono::duration<double>(now - slice_start).count());
    slice_start = now;
  }
  s.wall_s = seconds_since(t_start);
  return s;
}

double median_setup_s(int reps, const std::function<void()>& setup) {
  std::vector<double> times;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    setup();
    times.push_back(seconds_since(t0));
  }
  return median(times);
}

void add_end_to_end(Result& r, const LoopStats& loop,
                    double pulses_per_election, double setup_s) {
  // The tail is the highest percentile with at least ten elections beyond
  // it in every run: a slow 30 s run times ~50 sim-ring elections.
  constexpr double tail_q = 0.75;
  const double eps = median(loop.slice_elections_per_s);
  r.metric("elections_per_s", eps, "1/s");
  r.metric("pulses_per_s", eps * pulses_per_election, "1/s");
  r.metric("election_ms_p50", median(loop.latency_ms), "ms");
  r.metric("election_ms_tail", percentile(loop.latency_ms, tail_q), "ms");
  r.metric("setup_s", setup_s, "s");
  r.metric("peak_rss_mb", peak_rss_mb(), "MiB");
  const double n = static_cast<double>(loop.latency_ms.size());
  r.info("timed_elections", n);
  r.info("election_ms_min", percentile(loop.latency_ms, 0.0));
  r.info("election_ms_p10", percentile(loop.latency_ms, 0.1));
  r.info("election_ms_p25", percentile(loop.latency_ms, 0.25));
  r.info("tail_percentile", tail_q * 100);
  r.info("samples_beyond_tail", std::floor(n * (1 - tail_q)));
  r.info("slices", static_cast<double>(loop.slice_elections_per_s.size()));
  r.info("timed_wall_s", loop.wall_s);
}

void pin_to_next_core() {
  static const cpu_set_t allowed = [] {
    cpu_set_t set;
    CPU_ZERO(&set);
    sched_getaffinity(0, sizeof set, &set);
    return set;
  }();
  static int cpu = -1;
  do {
    cpu = (cpu + 1) % CPU_SETSIZE;
  } while (!CPU_ISSET(cpu, &allowed));
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  sched_setaffinity(0, sizeof one, &one);
}

double peak_rss_mb() {
  // VmHWM rather than getrusage: ru_maxrss survives exec and would report
  // the launching process's peak when that one was larger.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

std::uint64_t mix(std::uint64_t seed, std::uint64_t stream,
                  std::uint64_t index) {
  return splitmix(splitmix(splitmix(seed) ^ stream) ^ index);
}

std::vector<std::uint64_t> permutation_ids(std::size_t n, std::uint64_t seed) {
  std::vector<std::uint64_t> ids(n);
  for (std::size_t i = 0; i < n; ++i) ids[i] = i + 1;
  for (std::size_t i = n; i > 1; --i) {
    const std::size_t j = mix(seed, 0x7065726d, i) % i;
    std::swap(ids[i - 1], ids[j]);
  }
  return ids;
}

std::vector<std::uint64_t> ids_with_max(std::size_t n, std::uint64_t id_max,
                                        std::uint64_t seed) {
  std::vector<std::uint64_t> ids{id_max};
  for (std::uint64_t k = 0; ids.size() < n; ++k) {
    const std::uint64_t id = 1 + mix(seed, 0x69647300, k) % (id_max - 1);
    if (std::find(ids.begin(), ids.end(), id) == ids.end()) ids.push_back(id);
  }
  for (std::size_t i = n; i > 1; --i) {
    const std::size_t j = mix(seed, 0x73687566, i) % i;
    std::swap(ids[i - 1], ids[j]);
  }
  return ids;
}

}  // namespace colexbench
