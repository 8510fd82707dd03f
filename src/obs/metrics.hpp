// Telemetry metrics registry: named counters, gauges, and fixed-bucket
// histograms, snapshotable to JSON and mergeable across the parallel
// explorer's worker pool.
//
// Design
// ------
// * Zero overhead when disabled. Every instrumentation site in the tree is
//   gated on a nullable Registry pointer (or ObsOptions::enabled); with the
//   default-disabled options, the hot paths pay at most one pointer test.
// * Lock-free-friendly by OWNERSHIP, not by atomics: a Registry is a plain
//   single-threaded object. Concurrent producers (the parallel explorer's
//   workers, ThreadRing's node threads) each write their own registry (or
//   their own atomics) and the results are merged after the join — the same
//   determinism-by-ownership contract sim/parallel.hpp already enforces for
//   exploration accumulators. Counters sum, gauges take the max, histograms
//   add bucket-wise.
// * Handles returned by counter()/gauge()/histogram() are stable for the
//   registry's lifetime (storage is per-metric heap cells), so hot loops
//   resolve a name once and then increment through the reference.
#pragma once

#include <cstdint>
#include <memory>
#include <ostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "util/contracts.hpp"
#include "util/json.hpp"

namespace colex::obs {

/// Master switch for an instrumented run. Default-disabled: every layer
/// that accepts ObsOptions must be bit-identical in behavior and within
/// noise in cost when `enabled` is false.
struct ObsOptions {
  bool enabled = false;
};

/// Composes a labeled metric name: `labeled("pulses", "phase", "probe")`
/// yields `pulses{phase=probe}`. The Prometheus encoder (obs/serve.hpp)
/// splits the name back at the first '{' and renders the pairs as proper
/// label sets; the JSON snapshot keeps the composed string verbatim, so
/// recorded and live views agree on series identity.
inline std::string labeled(const std::string& family, const std::string& key,
                           const std::string& value) {
  return family + "{" + key + "=" + value + "}";
}

/// Monotonically increasing event tally.
class Counter {
 public:
  void inc(std::uint64_t delta = 1) { value_ += delta; }
  std::uint64_t value() const { return value_; }
  void merge(const Counter& other) { value_ += other.value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Last-written (or max-tracked) instantaneous value.
class Gauge {
 public:
  void set(double v) { value_ = v; }
  void track_max(double v) {
    if (v > value_) value_ = v;
  }
  double value() const { return value_; }
  /// Merge across workers keeps the maximum: a gauge merged from a pool
  /// answers "the largest value any worker observed".
  void merge(const Gauge& other) { track_max(other.value_); }

 private:
  double value_ = 0.0;
};

/// Fixed-bucket histogram: `bounds` are the inclusive upper edges of the
/// first buckets, in ascending order; one implicit overflow bucket catches
/// everything beyond the last bound. Bucket layout is fixed at registration
/// so histograms from different workers merge bucket-wise.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
    for (std::size_t i = 1; i < bounds_.size(); ++i) {
      COLEX_EXPECTS(bounds_[i - 1] < bounds_[i]);
    }
    buckets_.assign(bounds_.size() + 1, 0);
  }

  void record(double v) {
    ++count_;
    sum_ += v;
    if (v > max_) max_ = v;
    for (std::size_t i = 0; i < bounds_.size(); ++i) {
      if (v <= bounds_[i]) {
        ++buckets_[i];
        return;
      }
    }
    ++buckets_.back();
  }

  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double max() const { return max_; }
  double mean() const {
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
  }
  const std::vector<double>& bounds() const { return bounds_; }
  const std::vector<std::uint64_t>& buckets() const { return buckets_; }

  void merge(const Histogram& other) {
    COLEX_EXPECTS(bounds_ == other.bounds_);
    count_ += other.count_;
    sum_ += other.sum_;
    if (other.max_ > max_) max_ = other.max_;
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
      buckets_[i] += other.buckets_[i];
    }
  }

  /// Overwrites the recorded state wholesale — the loader path for snapshot
  /// parsers (obs::registry_from_json) reconstituting a histogram from its
  /// serialized count/sum/max/buckets. `buckets` must match the registered
  /// layout (bounds_.size() + 1 entries, overflow last).
  void restore(std::uint64_t count, double sum, double max,
               std::vector<std::uint64_t> buckets) {
    COLEX_EXPECTS(buckets.size() == bounds_.size() + 1);
    count_ = count;
    sum_ = sum;
    max_ = max;
    buckets_ = std::move(buckets);
  }

 private:
  std::vector<double> bounds_;
  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double max_ = 0.0;
};

/// Insertion-ordered registry of named metrics. Registration (name lookup)
/// is the cold path; hold the returned reference for hot loops.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry& other) { copy_from(other); }
  Registry& operator=(const Registry& other) {
    if (this != &other) {
      counters_.clear();
      gauges_.clear();
      histograms_.clear();
      copy_from(other);
    }
    return *this;
  }
  Registry(Registry&&) = default;
  Registry& operator=(Registry&&) = default;

  Counter& counter(const std::string& name) {
    for (auto& [n, c] : counters_) {
      if (n == name) return *c;
    }
    counters_.emplace_back(name, std::make_unique<Counter>());
    return *counters_.back().second;
  }

  Gauge& gauge(const std::string& name) {
    for (auto& [n, g] : gauges_) {
      if (n == name) return *g;
    }
    gauges_.emplace_back(name, std::make_unique<Gauge>());
    return *gauges_.back().second;
  }

  /// Registers (or re-resolves) a histogram. Re-resolving an existing name
  /// ignores `bounds` — the first registration pins the bucket layout.
  Histogram& histogram(const std::string& name, std::vector<double> bounds) {
    for (auto& [n, h] : histograms_) {
      if (n == name) return *h;
    }
    histograms_.emplace_back(name,
                             std::make_unique<Histogram>(std::move(bounds)));
    return *histograms_.back().second;
  }

  bool empty() const {
    return counters_.empty() && gauges_.empty() && histograms_.empty();
  }

  /// Folds another registry into this one (counters sum, gauges max,
  /// histograms bucket-wise). Metrics unknown to this registry are adopted;
  /// histogram layouts for shared names must match.
  void merge(const Registry& other) {
    for (const auto& [n, c] : other.counters_) counter(n).merge(*c);
    for (const auto& [n, g] : other.gauges_) gauge(n).merge(*g);
    for (const auto& [n, h] : other.histograms_) {
      histogram(n, h->bounds()).merge(*h);
    }
  }

  const std::vector<std::pair<std::string, std::unique_ptr<Counter>>>&
  counters() const {
    return counters_;
  }
  const std::vector<std::pair<std::string, std::unique_ptr<Gauge>>>& gauges()
      const {
    return gauges_;
  }
  const std::vector<std::pair<std::string, std::unique_ptr<Histogram>>>&
  histograms() const {
    return histograms_;
  }

  /// One-object JSON snapshot, insertion-ordered — embeddable verbatim in
  /// BENCH_E*.json and trace exports. Names go through the shared string
  /// codec (util/json.hpp), so any name survives registry_from_json.
  void write_json(std::ostream& os) const {
    os << "{\"counters\":{";
    for (std::size_t i = 0; i < counters_.size(); ++i) {
      if (i) os << ",";
      util::json::write_escaped(os, counters_[i].first);
      os << ":" << counters_[i].second->value();
    }
    os << "},\"gauges\":{";
    for (std::size_t i = 0; i < gauges_.size(); ++i) {
      if (i) os << ",";
      util::json::write_escaped(os, gauges_[i].first);
      os << ":" << gauges_[i].second->value();
    }
    os << "},\"histograms\":{";
    for (std::size_t i = 0; i < histograms_.size(); ++i) {
      const Histogram& h = *histograms_[i].second;
      if (i) os << ",";
      util::json::write_escaped(os, histograms_[i].first);
      os << ":{\"count\":" << h.count()
         << ",\"sum\":" << h.sum() << ",\"max\":" << h.max() << ",\"bounds\":[";
      for (std::size_t b = 0; b < h.bounds().size(); ++b) {
        if (b) os << ",";
        os << h.bounds()[b];
      }
      os << "],\"buckets\":[";
      for (std::size_t b = 0; b < h.buckets().size(); ++b) {
        if (b) os << ",";
        os << h.buckets()[b];
      }
      os << "]}";
    }
    os << "}}";
  }

  std::string to_json() const {
    std::ostringstream os;
    write_json(os);
    return os.str();
  }

 private:
  void copy_from(const Registry& other) {
    for (const auto& [n, c] : other.counters_) {
      counters_.emplace_back(n, std::make_unique<Counter>(*c));
    }
    for (const auto& [n, g] : other.gauges_) {
      gauges_.emplace_back(n, std::make_unique<Gauge>(*g));
    }
    for (const auto& [n, h] : other.histograms_) {
      histograms_.emplace_back(n, std::make_unique<Histogram>(*h));
    }
  }

  std::vector<std::pair<std::string, std::unique_ptr<Counter>>> counters_;
  std::vector<std::pair<std::string, std::unique_ptr<Gauge>>> gauges_;
  std::vector<std::pair<std::string, std::unique_ptr<Histogram>>> histograms_;
};

}  // namespace colex::obs
