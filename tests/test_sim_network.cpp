#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "colex.hpp"
#include "sim/faults.hpp"

namespace colex::sim {
namespace {

/// Sends one pulse from `out` at start; counts everything it receives.
class SendOnce final : public PulseAutomaton {
 public:
  explicit SendOnce(Port out) : out_(out) {}
  void start(PulseContext& ctx) override { ctx.send(out_); }
  void react(PulseContext& ctx) override {
    while (ctx.recv_pulse(Port::p0)) ++received_[0];
    while (ctx.recv_pulse(Port::p1)) ++received_[1];
  }
  std::unique_ptr<PulseAutomaton> clone() const override {
    return std::make_unique<SendOnce>(*this);
  }
  int received(Port p) const { return received_[index(p)]; }

 private:
  Port out_;
  int received_[2] = {0, 0};
};

/// Forwards pulses from each port out the opposite port, up to a hop budget.
class Relay final : public PulseAutomaton {
 public:
  explicit Relay(int budget) : budget_(budget) {}
  void start(PulseContext&) override {}
  void react(PulseContext& ctx) override {
    for (Port in : {Port::p0, Port::p1}) {
      while (ctx.recv_pulse(in)) {
        ++consumed_;
        if (budget_ > 0) {
          --budget_;
          ctx.send(opposite(in));
        }
      }
    }
  }
  std::unique_ptr<PulseAutomaton> clone() const override {
    return std::make_unique<Relay>(*this);
  }
  int consumed() const { return consumed_; }

 private:
  int budget_;
  int consumed_ = 0;
};

/// Never consumes anything: its inbox fills up and the run stalls.
class Sink final : public PulseAutomaton {
 public:
  void start(PulseContext&) override {}
  void react(PulseContext&) override {}
  std::unique_ptr<PulseAutomaton> clone() const override {
    return std::make_unique<Sink>(*this);
  }
};

/// Terminates immediately after start (used to exercise the violation
/// accounting for deliveries to terminated nodes).
class InstantTerminator final : public PulseAutomaton {
 public:
  void start(PulseContext&) override { done_ = true; }
  void react(PulseContext&) override {}
  bool terminated() const override { return done_; }
  std::unique_ptr<PulseAutomaton> clone() const override {
    return std::make_unique<InstantTerminator>(*this);
  }

 private:
  bool done_ = false;
};

/// Sends `burst` pulses out of Port1 at start, consumes everything later.
class Burster final : public PulseAutomaton {
 public:
  explicit Burster(int burst) : burst_(burst) {}
  void start(PulseContext& ctx) override {
    for (int i = 0; i < burst_; ++i) ctx.send(Port::p1);
  }
  void react(PulseContext& ctx) override {
    while (ctx.recv_pulse(Port::p0)) ++received_;
    while (ctx.recv_pulse(Port::p1)) ++received_;
  }
  std::unique_ptr<PulseAutomaton> clone() const override {
    return std::make_unique<Burster>(*this);
  }
  int received() const { return received_; }

 private:
  int burst_;
  int received_ = 0;
};

TEST(RingWiring, OrientedPort1ReachesNextNodesPort0) {
  auto net = PulseNetwork::ring(3);
  net.set_automaton(0, std::make_unique<SendOnce>(Port::p1));
  net.set_automaton(1, std::make_unique<SendOnce>(Port::p1));
  net.set_automaton(2, std::make_unique<SendOnce>(Port::p1));
  GlobalFifoScheduler sched;
  const auto report = net.run(sched);
  EXPECT_TRUE(report.quiescent);
  EXPECT_EQ(report.sent, 3u);
  // Each node sent one CW pulse; each node received exactly one at Port0.
  for (NodeId v = 0; v < 3; ++v) {
    const auto& a = net.automaton_as<SendOnce>(v);
    EXPECT_EQ(a.received(Port::p0), 1) << "node " << v;
    EXPECT_EQ(a.received(Port::p1), 0) << "node " << v;
  }
}

TEST(RingWiring, SelfLoopSingleNode) {
  auto net = PulseNetwork::ring(1);
  net.set_automaton(0, std::make_unique<SendOnce>(Port::p1));
  GlobalFifoScheduler sched;
  const auto report = net.run(sched);
  EXPECT_TRUE(report.quiescent);
  // The pulse sent out of Port1 must come back to the node's own Port0.
  EXPECT_EQ(net.automaton_as<SendOnce>(0).received(Port::p0), 1);
  EXPECT_EQ(net.automaton_as<SendOnce>(0).received(Port::p1), 0);
}

TEST(RingWiring, TwoNodeRingHasParallelEdges) {
  auto net = PulseNetwork::ring(2);
  EXPECT_EQ(net.channel_count(), 4u);
  net.set_automaton(0, std::make_unique<SendOnce>(Port::p1));
  net.set_automaton(1, std::make_unique<SendOnce>(Port::p0));
  GlobalFifoScheduler sched;
  net.run(sched);
  // Node 0 sent CW (edge 0) -> node 1's Port0. Node 1 sent out its Port0,
  // which is attached to edge 0 as well -> node 0's Port1.
  EXPECT_EQ(net.automaton_as<SendOnce>(1).received(Port::p0), 1);
  EXPECT_EQ(net.automaton_as<SendOnce>(0).received(Port::p1), 1);
}

TEST(RingWiring, PortFlipSwapsLabels) {
  // Node 1 is flipped: the CW pulse from node 0 arrives at node 1's Port1.
  auto net = PulseNetwork::ring(3, {false, true, false});
  net.set_automaton(0, std::make_unique<SendOnce>(Port::p1));
  net.set_automaton(1, std::make_unique<Sink>());
  net.set_automaton(2, std::make_unique<Sink>());
  GlobalFifoScheduler sched;
  net.run(sched);
  EXPECT_EQ(net.inbox_size(1, Port::p1), 1u);
  EXPECT_EQ(net.inbox_size(1, Port::p0), 0u);
}

TEST(RingWiring, FlippedNodeSendsBackwardsOnPort1) {
  // Node 1 flipped: its Port1 is attached to the edge toward node 0.
  auto net = PulseNetwork::ring(3, {false, true, false});
  net.set_automaton(0, std::make_unique<Sink>());
  net.set_automaton(1, std::make_unique<SendOnce>(Port::p1));
  net.set_automaton(2, std::make_unique<Sink>());
  GlobalFifoScheduler sched;
  net.run(sched);
  EXPECT_EQ(net.inbox_size(0, Port::p1), 1u);  // arrived back at node 0
  EXPECT_EQ(net.inbox_size(2, Port::p0), 0u);
}

TEST(RingWiring, RejectsZeroNodes) {
  EXPECT_THROW(PulseNetwork::ring(0), util::ContractViolation);
}

TEST(RingWiring, RejectsWrongFlipVectorSize) {
  EXPECT_THROW(PulseNetwork::ring(3, {true}), util::ContractViolation);
}

TEST(Accounting, SentInTransitConsumed) {
  auto net = PulseNetwork::ring(2);
  net.set_automaton(0, std::make_unique<Burster>(5));
  net.set_automaton(1, std::make_unique<Sink>());
  GlobalFifoScheduler sched;
  const auto report = net.run(sched);
  EXPECT_EQ(report.sent, 5u);
  EXPECT_EQ(net.total_sent(), 5u);
  EXPECT_EQ(net.in_flight(), 0u);    // all delivered into node 1's inbox
  EXPECT_EQ(net.in_transit(), 5u);   // but never consumed
  EXPECT_FALSE(report.quiescent);
  EXPECT_TRUE(report.stalled);
}

TEST(Accounting, QuiescentWhenAllConsumed) {
  auto net = PulseNetwork::ring(2);
  net.set_automaton(0, std::make_unique<Burster>(3));
  net.set_automaton(1, std::make_unique<Burster>(2));
  GlobalFifoScheduler sched;
  const auto report = net.run(sched);
  EXPECT_TRUE(report.quiescent);
  EXPECT_FALSE(report.stalled);
  EXPECT_EQ(net.in_transit(), 0u);
  EXPECT_EQ(net.automaton_as<Burster>(0).received() +
                net.automaton_as<Burster>(1).received(),
            5);
}

TEST(Accounting, RelayBudgetedForwardingTerminatesQuiescent) {
  auto net = PulseNetwork::ring(4);
  net.set_automaton(0, std::make_unique<Burster>(1));
  for (NodeId v = 1; v < 4; ++v) {
    net.set_automaton(v, std::make_unique<Relay>(10));
  }
  GlobalFifoScheduler sched;
  const auto report = net.run(sched);
  EXPECT_TRUE(report.quiescent);
  // 1 initial + up to 3 relays before returning to node 0 (which consumes).
  EXPECT_EQ(report.sent, 4u);
  EXPECT_EQ(net.automaton_as<Burster>(0).received(), 1);
}

TEST(Violations, DeliveryToTerminatedNodeIsCounted) {
  auto net = PulseNetwork::ring(2);
  net.set_automaton(0, std::make_unique<Burster>(2));
  net.set_automaton(1, std::make_unique<InstantTerminator>());
  GlobalFifoScheduler sched;
  const auto report = net.run(sched);
  EXPECT_EQ(report.deliveries_to_terminated, 2u);
  // Ignored pulses are swallowed, so the network still drains.
  EXPECT_TRUE(report.quiescent);
}

TEST(Violations, InjectFaultAddsForeignPulse) {
  auto net = PulseNetwork::ring(2);
  net.set_automaton(0, std::make_unique<Burster>(0));
  net.set_automaton(1, std::make_unique<Burster>(0));
  net.inject_fault(0);
  GlobalFifoScheduler sched;
  const auto report = net.run(sched);
  EXPECT_EQ(net.injected(), 1u);
  EXPECT_EQ(report.deliveries, 1u);
  EXPECT_EQ(net.automaton_as<Burster>(1).received(), 1);
}

TEST(Violations, DropFaultRemovesPulse) {
  auto net = PulseNetwork::ring(2);
  net.set_automaton(0, std::make_unique<Burster>(1));
  net.set_automaton(1, std::make_unique<Burster>(0));
  // Run manually: start fills channel 0, then drop before delivery.
  // Easiest deterministic route: drop right after sends by running with an
  // on_event hook is racy with starts, so instead drop after construction by
  // pre-loading the channel via inject and dropping it again.
  net.inject_fault(0);
  net.drop_fault(0);
  EXPECT_EQ(net.dropped(), 1u);
  GlobalFifoScheduler sched;
  const auto report = net.run(sched);
  // Only the Burster's own start pulse remains to be delivered.
  EXPECT_EQ(report.deliveries, 1u);
  EXPECT_TRUE(report.quiescent);
}

TEST(Runner, EventLimitIsReported) {
  // Two relays with effectively unbounded budget bounce pulses forever.
  auto net = PulseNetwork::ring(2);
  net.set_automaton(0, std::make_unique<Burster>(1));
  net.set_automaton(1, std::make_unique<Relay>(1 << 30));
  // Node 0 consumes and does not forward, so give node 0 a Relay too.
  net.set_automaton(0, std::make_unique<Relay>(1 << 30));
  net.inject_fault(0);  // seed one circulating pulse
  RunOptions opts;
  opts.max_events = 100;
  GlobalFifoScheduler sched;
  const auto report = net.run(sched, opts);
  EXPECT_TRUE(report.hit_event_limit);
  EXPECT_FALSE(report.quiescent);
}

TEST(Runner, InterleavedStartsStillDeliverEverything) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    auto net = PulseNetwork::ring(5);
    for (NodeId v = 0; v < 5; ++v) {
      net.set_automaton(v, std::make_unique<SendOnce>(Port::p1));
    }
    RunOptions opts;
    opts.interleave_starts = true;
    opts.interleave_seed = seed;
    GlobalFifoScheduler sched;
    const auto report = net.run(sched, opts);
    EXPECT_TRUE(report.quiescent);
    EXPECT_EQ(report.sent, 5u);
    for (NodeId v = 0; v < 5; ++v) {
      EXPECT_EQ(net.automaton_as<SendOnce>(v).received(Port::p0), 1);
    }
  }
}

TEST(Runner, OnEventFiresPerEvent) {
  auto net = PulseNetwork::ring(3);
  for (NodeId v = 0; v < 3; ++v) {
    net.set_automaton(v, std::make_unique<SendOnce>(Port::p1));
  }
  int events = 0;
  RunOptions opts;
  opts.on_event = [&events](PulseNetwork&) { ++events; };
  GlobalFifoScheduler sched;
  const auto report = net.run(sched, opts);
  EXPECT_EQ(events, 3 + 3);  // 3 starts + 3 deliveries
  EXPECT_EQ(report.deliveries, 3u);
}

TEST(Runner, OnDeliverReportsPortAndDirection) {
  auto net = PulseNetwork::ring(2);
  net.set_automaton(0, std::make_unique<SendOnce>(Port::p1));  // CW
  net.set_automaton(1, std::make_unique<SendOnce>(Port::p0));  // CCW
  std::vector<Direction> dirs;
  RunOptions opts;
  opts.on_deliver = [&dirs](NodeId, Port, Direction d) { dirs.push_back(d); };
  GlobalFifoScheduler sched;
  net.run(sched, opts);
  ASSERT_EQ(dirs.size(), 2u);
  EXPECT_EQ(dirs[0], Direction::cw);
  EXPECT_EQ(dirs[1], Direction::ccw);
}

TEST(Network, AutomatonAsRejectsWrongType) {
  auto net = PulseNetwork::ring(1);
  net.set_automaton(0, std::make_unique<Sink>());
  EXPECT_THROW(net.automaton_as<Relay>(0), util::ContractViolation);
}


// --- schedule golden digests ------------------------------------------------
//
// The runner's scheduler-facing behaviour, pinned bit for bit: at every
// `pick`, the number of views offered, every ChannelView (all five fields,
// in offer order) and the choice made, folded into one FNV-1a digest per
// run. Any change to how the network keeps its choice set must leave them
// unchanged, or every seeded schedule (replays, fuzz repros, committed
// traces) moves.

/// Wraps a scheduler and digests what the runner offers it.
class DigestScheduler final : public Scheduler {
 public:
  explicit DigestScheduler(Scheduler& inner) : inner_(inner) {}
  std::size_t pick(const std::vector<ChannelView>& pending) override {
    mix(pending.size());
    for (const ChannelView& view : pending) {
      mix(view.channel);
      mix(view.pending);
      mix(view.head_seq);
      mix(view.head_stamp);
      mix(static_cast<std::uint64_t>(view.dir));
    }
    const std::size_t choice = inner_.pick(pending);
    mix(choice);
    return choice;
  }
  std::string name() const override { return inner_.name(); }
  void reset() override { inner_.reset(); }
  std::uint64_t digest() const { return hash_; }

 private:
  void mix(std::uint64_t x) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (x >> (8 * byte)) & 0xffu;
      hash_ *= 1099511628211ull;
    }
  }

  Scheduler& inner_;
  std::uint64_t hash_ = 14695981039346656037ull;
};

std::vector<std::uint64_t> golden_ids() {
  return util::shuffled(util::dense_ids(32), 11);
}

PulseNetwork golden_alg2_net(const std::vector<std::uint64_t>& ids) {
  auto net = PulseNetwork::ring(ids.size());
  for (NodeId v = 0; v < ids.size(); ++v) {
    net.set_automaton(v, std::make_unique<co::Alg2Terminating>(ids[v]));
  }
  return net;
}

/// A walk with every bias on, so its weights read every view field.
std::unique_ptr<Scheduler> golden_walk(std::uint64_t seed) {
  WalkScheduler::Profile profile;
  profile.lifo = 3;
  profile.fifo = 5;
  profile.stick = 7;
  profile.cw = 2;
  profile.ccw = 1;
  return std::make_unique<WalkScheduler>(seed, profile);
}

std::uint64_t alg2_digest(Scheduler& inner, const RunOptions& opts = {}) {
  const auto ids = golden_ids();
  DigestScheduler digest(inner);
  const auto result = co::elect_oriented_terminating(ids, digest, opts);
  EXPECT_TRUE(result.valid_election()) << inner.name();
  EXPECT_EQ(result.pulses, co::theorem1_pulses(ids.size(), ids.size()))
      << inner.name();
  return digest.digest();
}

TEST(ScheduleGolden, Alg2UnderEveryStandardScheduler) {
  const std::vector<std::pair<std::string, std::uint64_t>> golden{
      {"global-fifo", 0xf87e252b01e18dc8ull},
      {"global-lifo", 0x13efbfb04f8894b1ull},
      {"round-robin", 0x21495f5f8814336full},
      {"drain-channel", 0x50df917345b163d8ull},
      {"starve-cw", 0xeb67ae4633ee3cf3ull},
      {"starve-ccw", 0xfdde41178f7d7cdbull},
      {"solitude", 0xf87e252b01e18dc8ull},
      {"eclipse-0", 0xf3595027e6733d68ull},
      {"bursty-1", 0x389cd74830c3a6a1ull},
      {"random-1", 0xd868719a571f1d4bull},
      {"random-2", 0xbad3316bc09b0daaull},
  };
  auto suite = standard_schedulers(2);
  ASSERT_EQ(suite.size(), golden.size());
  for (std::size_t i = 0; i < suite.size(); ++i) {
    EXPECT_EQ(suite[i].name, golden[i].first);
    EXPECT_EQ(alg2_digest(*suite[i].scheduler), golden[i].second)
        << suite[i].name;
  }
}

TEST(ScheduleGolden, Alg2UnderWalkAndMix) {
  auto walk = golden_walk(5);
  EXPECT_EQ(alg2_digest(*walk), 0x8c0f4787c8f57082ull);

  std::vector<std::unique_ptr<Scheduler>> parts;
  parts.push_back(std::make_unique<GlobalLifoScheduler>());
  parts.push_back(std::make_unique<DrainChannelScheduler>());
  parts.push_back(golden_walk(6));
  parts.push_back(std::make_unique<SolitudeScheduler>());
  MixScheduler mix(9, std::move(parts));
  EXPECT_EQ(alg2_digest(mix), 0x39eb531cea541eccull);
}

TEST(ScheduleGolden, Alg2WithInterleavedStarts) {
  RandomScheduler random(4);
  RunOptions opts;
  opts.interleave_starts = true;
  opts.interleave_seed = 21;
  EXPECT_EQ(alg2_digest(random, opts), 0x3fe3063d870e6da4ull);
}

TEST(ScheduleGolden, FaultyRunWithEveryScriptedFault) {
  // Every queue mutation the runner's bookkeeping must follow: a push that
  // keeps the head (duplicate), a push from nowhere (spurious), a pop
  // outside delivery (drop), and a crash/recover whose restart sends anew.
  const auto ids = golden_ids();
  FaultPlan plan;
  plan.script = {
      ScriptedFault{FaultKind::duplicate, 40, 4, 0},
      ScriptedFault{FaultKind::spurious, 60, 12, 0},
      ScriptedFault{FaultKind::drop, 90, 8, 0},
      ScriptedFault{FaultKind::crash, 120, 0, 9},
      ScriptedFault{FaultKind::recover, 400, 0, 9},
  };
  auto factory = [&ids](NodeId v) {
    return std::make_unique<co::Alg2Terminating>(ids[v]);
  };
  FaultyNetwork faulty(golden_alg2_net(ids), plan, factory);
  auto walk = golden_walk(8);
  DigestScheduler digest(*walk);
  RunOptions opts;
  opts.max_events = 200'000;
  const auto run = faulty.run(digest, opts);
  EXPECT_EQ(run.tallies.duplicated, 1u);
  EXPECT_EQ(run.tallies.spurious, 1u);
  EXPECT_EQ(run.tallies.dropped, 1u);
  EXPECT_EQ(run.tallies.crashes, 1u);
  EXPECT_EQ(run.tallies.recoveries, 1u);
  EXPECT_EQ(digest.digest(), 0x708f12052fefc711ull);
}

// --- payload-generic behaviour (used by the baselines) ------------------

struct NumberedMsg {
  int value = 0;
};

class NumberSink final : public Automaton<NumberedMsg> {
 public:
  void start(Context<NumberedMsg>&) override {}
  void react(Context<NumberedMsg>& ctx) override {
    while (auto m = ctx.recv(Port::p0)) received_.push_back(m->value);
  }
  std::unique_ptr<Automaton<NumberedMsg>> clone() const override {
    return std::make_unique<NumberSink>(*this);
  }
  const std::vector<int>& received() const { return received_; }

 private:
  std::vector<int> received_;
};

class NumberSource final : public Automaton<NumberedMsg> {
 public:
  explicit NumberSource(int count) : count_(count) {}
  void start(Context<NumberedMsg>& ctx) override {
    for (int i = 0; i < count_; ++i) ctx.send(Port::p1, NumberedMsg{i});
  }
  void react(Context<NumberedMsg>& ctx) override {
    while (ctx.recv(Port::p0)) {
    }
  }
  std::unique_ptr<Automaton<NumberedMsg>> clone() const override {
    return std::make_unique<NumberSource>(*this);
  }

 private:
  int count_;
};

TEST(TypedPayloads, ContentSurvivesAndChannelsAreFifo) {
  // The same network machinery with content-carrying payloads: values must
  // arrive intact and in per-channel FIFO order under every scheduler.
  for (auto& named : standard_schedulers(2)) {
    auto net = Network<NumberedMsg>::ring(2);
    net.set_automaton(0, std::make_unique<NumberSource>(10));
    net.set_automaton(1, std::make_unique<NumberSink>());
    const auto report = net.run(*named.scheduler);
    ASSERT_TRUE(report.quiescent) << named.name;
    const auto& got = net.automaton_as<NumberSink>(1).received();
    ASSERT_EQ(got.size(), 10u) << named.name;
    for (int i = 0; i < 10; ++i) EXPECT_EQ(got[static_cast<std::size_t>(i)], i) << named.name;
  }
}

TEST(TypedPayloads, UmbrellaHeaderCompiles) {
  // colex.hpp must pull in the whole public API (checked by the include at
  // the top of this translation unit being replaced transitively; here we
  // just exercise a couple of symbols from distant modules).
  EXPECT_EQ(co::theorem1_pulses(2, 2), 10u);
  EXPECT_EQ(colib::encode_u64(5).size(), 3u);
}

}  // namespace
}  // namespace colex::sim
