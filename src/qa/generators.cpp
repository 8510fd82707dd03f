#include "qa/generators.hpp"

#include <algorithm>

#include "co/sampling.hpp"
#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace colex::qa {

std::uint64_t FuzzCase::id_max() const {
  std::uint64_t m = 0;
  for (const auto id : ids) m = std::max(m, id);
  return m;
}

bool operator==(const FuzzCase& a, const FuzzCase& b) {
  auto plan_eq = [](const sim::FaultPlan& x, const sim::FaultPlan& y) {
    auto profile_eq = [](const sim::ChannelFaultProfile& p,
                         const sim::ChannelFaultProfile& q) {
      return p.drop_prob == q.drop_prob &&
             p.duplicate_prob == q.duplicate_prob &&
             p.spurious_prob == q.spurious_prob;
    };
    if (x.seed != y.seed || !profile_eq(x.all_channels, y.all_channels) ||
        x.channel_overrides.size() != y.channel_overrides.size() ||
        x.script.size() != y.script.size() ||
        x.preseed_channels != y.preseed_channels) {
      return false;
    }
    for (std::size_t i = 0; i < x.channel_overrides.size(); ++i) {
      if (x.channel_overrides[i].first != y.channel_overrides[i].first ||
          !profile_eq(x.channel_overrides[i].second,
                      y.channel_overrides[i].second)) {
        return false;
      }
    }
    for (std::size_t i = 0; i < x.script.size(); ++i) {
      const auto& f = x.script[i];
      const auto& g = y.script[i];
      if (f.kind != g.kind || f.at_event != g.at_event ||
          f.channel != g.channel || f.node != g.node) {
        return false;
      }
    }
    return true;
  };
  return a.seed == b.seed && a.alg == b.alg && a.ids == b.ids &&
         a.port_flips == b.port_flips && a.schedule_seed == b.schedule_seed &&
         a.tape == b.tape && plan_eq(a.faults, b.faults) &&
         a.corrupt == b.corrupt && a.max_events == b.max_events;
}

namespace {

std::vector<std::uint64_t> sample_ids_for(co::Algorithm alg, std::size_t n,
                                          std::uint64_t max_id,
                                          util::Xoshiro256StarStar& rng) {
  std::vector<std::uint64_t> ids(n);
  if (co::facts(alg).samples_ids) {
    // Algorithm 4: geometric bit-length sampling, clamped into [1, max_id]
    // so fuzz runs stay bounded (the distribution's heavy tail would
    // otherwise produce astronomically long elections).
    const auto sampled = co::sample_ids(n, /*c=*/1.0, rng.next());
    for (std::size_t v = 0; v < n; ++v) {
      ids[v] = 1 + (sampled[v].id - 1) % max_id;
    }
    return ids;
  }
  if (alg == co::Algorithm::alg1 && rng.bernoulli(0.4)) {
    // Lemma 16: Algorithm 1 tolerates arbitrary multisets, including the
    // all-equal extreme.
    if (rng.bernoulli(0.2)) {
      const std::uint64_t shared = rng.in_range(1, max_id);
      std::fill(ids.begin(), ids.end(), shared);
    } else {
      for (auto& id : ids) id = rng.in_range(1, max_id);
    }
    return ids;
  }
  // Unique IDs (required by Algorithm 2; keeps Algorithm 3's maxima unique).
  // Extremes: sometimes dense 1..n, sometimes anchored at max_id.
  const std::uint64_t hi = std::max<std::uint64_t>(n, max_id);
  if (rng.bernoulli(0.25)) {
    for (std::size_t v = 0; v < n; ++v) ids[v] = v + 1;
  } else {
    std::vector<std::uint64_t> pool;
    for (std::uint64_t id = 1; id <= hi; ++id) pool.push_back(id);
    for (std::size_t v = 0; v < n; ++v) {
      const std::size_t k = rng.below(pool.size());
      ids[v] = pool[k];
      pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(k));
    }
    if (rng.bernoulli(0.3)) {
      // Anchor one node at the cap: IDmax extremes stress the bound math.
      ids[rng.below(n)] = hi;
    }
  }
  // Deterministic Fisher-Yates so ring position is independent of value.
  for (std::size_t i = n; i > 1; --i) {
    std::swap(ids[i - 1], ids[rng.below(i)]);
  }
  // The anchor step can duplicate hi; repair for uniqueness.
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (ids[i] == ids[j]) {
        std::uint64_t fresh = 1;
        while (std::find(ids.begin(), ids.end(), fresh) != ids.end()) ++fresh;
        ids[j] = fresh;
      }
    }
  }
  return ids;
}

sim::FaultPlan sample_fault_plan(std::size_t n, std::uint64_t horizon,
                                 util::Xoshiro256StarStar& rng) {
  sim::FaultPlan plan;
  plan.seed = rng.next();
  const std::size_t channels = 2 * n;
  const bool probabilistic = rng.bernoulli(0.4);
  const bool scripted = !probabilistic || rng.bernoulli(0.5);
  if (probabilistic) {
    // Low rates: the documented boundary experiments (E13) show anything
    // dense just livelocks Algorithm 1 immediately, which teaches nothing.
    sim::ChannelFaultProfile p;
    const int which = static_cast<int>(rng.below(3));
    const double rate = 0.002 + 0.01 * rng.uniform01();
    if (which == 0) p.drop_prob = rate;
    if (which == 1) p.duplicate_prob = rate;
    if (which == 2) p.spurious_prob = rate;
    if (rng.bernoulli(0.5)) {
      plan.all_channels = p;
    } else {
      plan.channel_overrides.emplace_back(rng.below(channels), p);
    }
  }
  if (scripted) {
    const std::size_t count = 1 + rng.below(4);
    std::uint64_t at = rng.below(horizon / 4 + 1);
    bool crashed = false;
    sim::NodeId crashed_node = 0;
    for (std::size_t i = 0; i < count; ++i) {
      sim::ScriptedFault f;
      f.at_event = at;
      at += rng.below(horizon / 4 + 1);
      const std::size_t kind = rng.below(crashed ? 5u : 4u);
      switch (kind) {
        case 0: f.kind = sim::FaultKind::drop; break;
        case 1: f.kind = sim::FaultKind::duplicate; break;
        case 2: f.kind = sim::FaultKind::spurious; break;
        case 3: f.kind = sim::FaultKind::crash; break;
        case 4: f.kind = sim::FaultKind::recover; break;
      }
      if (f.kind == sim::FaultKind::crash) {
        f.node = rng.below(n);
        crashed = true;
        crashed_node = f.node;
      } else if (f.kind == sim::FaultKind::recover) {
        f.node = crashed_node;  // wrong-state requests are silent no-ops
      } else {
        f.channel = rng.below(channels);
      }
      plan.script.push_back(f);
    }
  }
  if (rng.bernoulli(0.2)) {
    plan.preseed_channels.emplace_back(rng.below(channels),
                                       1 + rng.below(3));
  }
  // The injector rejects invalid plans outright, so a generator bug here
  // (unsorted script, orphaned recover) must fail at sampling time with a
  // clear blame line, not deep inside a fuzz campaign.
  COLEX_ENSURES(plan.validate().empty());
  return plan;
}

CorruptSpec sample_corrupt(std::size_t n, std::uint64_t max_id,
                           util::Xoshiro256StarStar& rng) {
  CorruptSpec spec;
  spec.active = true;
  spec.node = rng.below(n);
  for (auto& c : spec.counters) {
    c = rng.bernoulli(0.5) ? 0 : rng.in_range(0, max_id + 1);
  }
  return spec;
}

}  // namespace

FuzzCase generate_case(std::uint64_t seed, const GeneratorOptions& options) {
  COLEX_EXPECTS(options.min_n >= 1 && options.min_n <= options.max_n);
  COLEX_EXPECTS(options.max_id >= options.max_n);
  // Decorrelate from the raw seed stream (consecutive campaign seeds must
  // not produce correlated cases).
  util::Xoshiro256StarStar rng(seed * 0x9E3779B97F4A7C15ULL + 0xC0FFEE);
  FuzzCase c;
  c.seed = seed;
  c.max_events = options.max_events;

  if (options.algorithms.empty()) {
    c.alg = co::kAlgorithms[rng.below(std::size(co::kAlgorithms))];
  } else {
    c.alg = options.algorithms[rng.below(options.algorithms.size())];
  }

  const std::size_t n =
      options.min_n + rng.below(options.max_n - options.min_n + 1);
  c.ids = sample_ids_for(c.alg, n, options.max_id, rng);

  if (!co::facts(c.alg).oriented && !rng.bernoulli(0.2)) {
    c.port_flips.resize(n);
    for (std::size_t v = 0; v < n; ++v) c.port_flips[v] = rng.bernoulli(0.5);
  }

  c.schedule_seed = rng.next();

  if (options.fault_fraction > 0.0 && rng.bernoulli(options.fault_fraction)) {
    // Horizon heuristic: scripted fault offsets land inside the fault-free
    // event count, which is ~2x the pulse count (starts + deliveries).
    // Algorithm 1 keeps Theorem 1's n(2*IDmax+1) as its horizon: the
    // seeded cases' fault plans are pinned to it.
    const std::uint64_t pulses =
        c.alg == co::Algorithm::alg1
            ? co::theorem1_pulses(n, c.id_max())
            : co::exact_pulses(c.alg, n, c.id_max());
    const std::uint64_t horizon = std::max<std::uint64_t>(8, pulses);
    c.faults = sample_fault_plan(n, horizon, rng);
    if (rng.bernoulli(0.25)) {
      c.corrupt = sample_corrupt(n, options.max_id, rng);
    }
  }
  return c;
}

std::unique_ptr<sim::Scheduler> make_case_scheduler(const FuzzCase& c) {
  util::Xoshiro256StarStar rng(c.schedule_seed);
  auto make_walk = [&rng]() -> std::unique_ptr<sim::Scheduler> {
    const std::uint64_t walk_seed = rng.next();
    sim::WalkScheduler::Profile p;
    p.base = 1 + static_cast<std::uint32_t>(rng.below(4));
    p.lifo = static_cast<std::uint32_t>(rng.below(12));
    p.fifo = static_cast<std::uint32_t>(rng.below(12));
    p.stick = static_cast<std::uint32_t>(rng.below(16));
    if (rng.bernoulli(0.5)) {
      p.cw = static_cast<std::uint32_t>(rng.below(8));
    } else {
      p.ccw = static_cast<std::uint32_t>(rng.below(8));
    }
    return std::make_unique<sim::WalkScheduler>(walk_seed, p);
  };
  if (rng.bernoulli(0.6)) return make_walk();
  // Swarm: a few biased walks plus one named adversary from the standard
  // suite, with control handed around in random bursts.
  std::vector<std::unique_ptr<sim::Scheduler>> parts;
  const std::size_t walks = 1 + rng.below(3);
  for (std::size_t i = 0; i < walks; ++i) parts.push_back(make_walk());
  auto suite = sim::standard_schedulers(1, rng.next());
  parts.push_back(std::move(suite[rng.below(suite.size())].scheduler));
  return std::make_unique<sim::MixScheduler>(rng.next(), std::move(parts));
}

}  // namespace colex::qa
