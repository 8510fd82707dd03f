// sim-ring: Algorithm 2 on a 512-node oriented ring in the discrete-event
// simulator, one RandomScheduler seeded per election, one thread.
//
// Untraced elections call co::elect_oriented_terminating. The traced run
// builds the same network itself so it can wrap the public Scheduler and
// Automaton interfaces in timing decorators: the scheduler's pick, the
// automaton's start/react, and the network's own residual (Network::run
// wall minus both) per pulse.
#include <memory>
#include <string>
#include <vector>

#include "co/alg2.hpp"
#include "co/election.hpp"
#include "layers.hpp"
#include "report.hpp"
#include "sim/network.hpp"
#include "sim/scheduler.hpp"

namespace colexbench {

namespace {

constexpr std::size_t kN = 512;
constexpr std::uint64_t kPulses = colex::co::theorem1_pulses(kN, kN);

struct SimTrace {
  std::uint64_t elections = 0;
  std::uint64_t picks = 0;
  std::uint64_t pending_sum = 0;
  std::uint64_t pick_ns = 0;
  std::uint64_t reacts = 0;
  std::uint64_t react_ns = 0;
  std::uint64_t run_ns = 0;
  std::uint64_t setup_ns = 0;
  std::uint64_t pulses = 0;
};

class TimedScheduler final : public colex::sim::Scheduler {
 public:
  TimedScheduler(colex::sim::Scheduler& inner, SimTrace& t)
      : inner_(inner), t_(t) {}
  std::size_t pick(const std::vector<colex::sim::ChannelView>& pending)
      override {
    const auto t0 = Clock::now();
    const std::size_t c = inner_.pick(pending);
    t_.pick_ns += ns_between(t0, Clock::now());
    ++t_.picks;
    t_.pending_sum += pending.size();
    return c;
  }
  std::string name() const override { return "timed(" + inner_.name() + ")"; }
  void reset() override { inner_.reset(); }

 private:
  colex::sim::Scheduler& inner_;
  SimTrace& t_;
};

class TimedAutomaton final : public colex::sim::PulseAutomaton {
 public:
  TimedAutomaton(std::unique_ptr<colex::sim::PulseAutomaton> inner,
                 SimTrace& t)
      : inner_(std::move(inner)), t_(t) {}

  void start(colex::sim::PulseContext& ctx) override {
    const auto t0 = Clock::now();
    inner_->start(ctx);
    t_.react_ns += ns_between(t0, Clock::now());
  }
  void react(colex::sim::PulseContext& ctx) override {
    const auto t0 = Clock::now();
    inner_->react(ctx);
    t_.react_ns += ns_between(t0, Clock::now());
    ++t_.reacts;
  }
  bool terminated() const override { return inner_->terminated(); }
  const char* phase() const override { return inner_->phase(); }
  std::unique_ptr<colex::sim::PulseAutomaton> clone() const override {
    return std::make_unique<TimedAutomaton>(inner_->clone(), t_);
  }
  const colex::sim::PulseAutomaton& inner() const { return *inner_; }

 private:
  std::unique_ptr<colex::sim::PulseAutomaton> inner_;
  SimTrace& t_;
};

struct Inputs {
  std::vector<std::uint64_t> ids;
  std::uint64_t schedule_seed = 0;
};

Inputs inputs(const Args& args, std::uint64_t election) {
  pin_to_next_core();
  return {permutation_ids(kN, mix(args.seed, 1, election)),
          mix(args.seed, 2, election)};
}

void untraced_election(const Inputs& in, Result& r) {
  colex::sim::RandomScheduler scheduler(in.schedule_seed);
  const auto res = colex::co::elect_oriented_terminating(in.ids, scheduler);
  const bool ok = res.quiescent && res.all_terminated &&
                  res.pulses == kPulses && res.valid_election() &&
                  res.leader.has_value() && res.nodes[*res.leader].id == kN;
  r.check(ok, "sim-ring: pulses=" + std::to_string(res.pulses) +
                  " leaders=" + std::to_string(res.leader_count));
}

void traced_election(const Inputs& in, SimTrace& t, Result& r) {
  const SimTrace before = t;
  const auto t0 = Clock::now();
  auto net = colex::sim::PulseNetwork::ring(kN);
  for (colex::sim::NodeId v = 0; v < kN; ++v) {
    net.set_automaton(v, std::make_unique<TimedAutomaton>(
                             std::make_unique<colex::co::Alg2Terminating>(
                                 in.ids[v]),
                             t));
  }
  const auto t1 = Clock::now();
  colex::sim::RandomScheduler random(in.schedule_seed);
  TimedScheduler scheduler(random, t);
  const colex::sim::RunReport report = net.run(scheduler);
  const auto t2 = Clock::now();
  t.setup_ns += ns_between(t0, t1);
  t.run_ns += ns_between(t1, t2);
  t.pulses += report.sent;
  ++t.elections;

  std::size_t leaders = 0;
  bool max_leads = false;
  bool decided = true;
  for (colex::sim::NodeId v = 0; v < kN; ++v) {
    const auto& alg = dynamic_cast<const colex::co::Alg2Terminating&>(
        dynamic_cast<const TimedAutomaton&>(net.automaton(v)).inner());
    if (alg.role() == colex::co::Role::undecided) decided = false;
    if (alg.role() == colex::co::Role::leader) {
      ++leaders;
      max_leads = max_leads || alg.id() == kN;
    }
  }
  r.check(report.quiescent && report.all_terminated &&
              report.sent == kPulses && decided && leaders == 1 && max_leads,
          "sim-ring traced: pulses=" + std::to_string(report.sent) +
              " leaders=" + std::to_string(leaders));
  // Every pulse is delivered exactly once, each delivery (plus each of the
  // n starts) runs exactly one react, and every delivery asks the scheduler.
  const std::uint64_t reacts = t.reacts - before.reacts;
  const std::uint64_t picks = t.picks - before.picks;
  r.reconcile(report.deliveries == report.sent &&
                  report.deliveries_to_terminated == 0 &&
                  reacts == report.deliveries + kN &&
                  picks == report.deliveries,
              "sim-ring: sent=" + std::to_string(report.sent) +
                  " deliveries=" + std::to_string(report.deliveries) +
                  " reacts=" + std::to_string(reacts) +
                  " picks=" + std::to_string(picks));
}

}  // namespace

void run_sim_ring(const Args& args, Result& r) {
  std::uint64_t election = 0;
  r.info("n", static_cast<double>(kN));
  r.info("pulses_per_election", static_cast<double>(kPulses));
  if (!args.trace) {
    const double setup_s = median_setup_s(3, [&] {
      untraced_election(inputs(args, election++), r);
    });
    const LoopStats loop = closed_loop(args.seconds, 10, [&] {
      untraced_election(inputs(args, election++), r);
    });
    add_end_to_end(r, loop, static_cast<double>(kPulses), setup_s);
    return;
  }

  untraced_election(inputs(args, election++), r);  // warm-up
  // Untraced and traced elections alternate so drift hits both alike.
  SimTrace t;
  std::vector<double> plain_pps;
  std::vector<double> traced_pps;
  const auto t_start = Clock::now();
  do {
    const Inputs in = inputs(args, election++);
    const auto t0 = Clock::now();
    untraced_election(in, r);
    plain_pps.push_back(static_cast<double>(kPulses) / seconds_since(t0));
    const auto t1 = Clock::now();
    traced_election(in, t, r);
    traced_pps.push_back(static_cast<double>(kPulses) / seconds_since(t1));
  } while (seconds_since(t_start) < args.seconds);

  const std::uint64_t self_ns = t.run_ns - t.pick_ns - t.react_ns;
  r.metric("sim.pending_per_pick", ratio(t.pending_sum, t.picks), "count");
  r.metric("sim.pick_ns", ratio(t.pick_ns, t.picks), "ns");
  r.metric("sim.self_ns_per_pulse", ratio(self_ns, t.pulses), "ns");
  r.metric("sim.setup_ms", ratio(t.setup_ns, t.elections) / 1e6, "ms");
  r.metric("co.react_ns", ratio(t.react_ns, t.reacts), "ns");
  r.metric("co.reacts_per_pulse", ratio(t.reacts, t.pulses), "count");
  r.metric("trace.overhead", median(plain_pps) / median(traced_pps), "ratio");
  r.metric("trace.reconciled", r.reconciled_share(), "share");
  r.info("traced_elections", static_cast<double>(t.elections));
  r.info("untraced_pulses_per_s", median(plain_pps));
  r.info("traced_pulses_per_s", median(traced_pps));
  r.info("run_ms_per_election", ratio(t.run_ns, t.elections) / 1e6);
}

}  // namespace colexbench
