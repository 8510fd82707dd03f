#include "colib/composed.hpp"

#include "util/contracts.hpp"

namespace colex::colib {

ComposedNode::ComposedNode(std::uint64_t id, std::unique_ptr<BusApp> app)
    : election_(id), pending_app_(std::move(app)) {
  COLEX_EXPECTS(pending_app_ != nullptr);
}

ComposedNode::ComposedNode(const ComposedNode& other)
    : election_(other.election_),
      pending_app_(other.pending_app_ ? other.pending_app_->clone()
                                      : nullptr),
      bus_(other.bus_ ? other.bus_->clone_bus() : nullptr) {}

std::unique_ptr<sim::PulseAutomaton> ComposedNode::clone() const {
  return std::unique_ptr<ComposedNode>(new ComposedNode(*this));
}

void ComposedNode::start(sim::PulseContext& ctx) { election_.start(ctx); }

void ComposedNode::react(sim::PulseContext& ctx) {
  if (bus_ == nullptr) {
    election_.react(ctx);
    if (!election_.terminated()) return;
    // The switch (paper §1.1): instead of halting, the node begins the
    // second protocol. Quiescent termination guarantees its queues are
    // empty and nothing addressed to the election is still in flight.
    // Only checkable where reactions are serialized: on the threaded host
    // a first *bus* pulse can already sit in the queue, delivered
    // concurrently while this react was consuming the final election pulse
    // (equivalent to a serialized schedule delivering it just after).
    COLEX_ASSERT(!ctx.serialized_reactions() ||
                 (ctx.queued(sim::Port::p0) == 0 &&
                  ctx.queued(sim::Port::p1) == 0));
    bus_ = std::make_unique<BusNode>(std::move(pending_app_),
                                     election_.role() == co::Role::leader);
    bus_->begin(ctx);
    // React runs until no progress is possible without new input, so the
    // bus polls its ports now: a threaded host's next wait blocks only on
    // ports a react polled empty (runtime/transport.hpp), and the
    // election's last iterations polled only the ports it still needed.
  }
  bus_->react(ctx);
}

ComposedResult run_composed_with_network(
    const std::vector<std::uint64_t>& ids, const AppFactory& factory,
    sim::Scheduler& scheduler, const sim::RunOptions& opts,
    sim::PulseNetwork& net_out) {
  COLEX_EXPECTS(!ids.empty());
  net_out = sim::PulseNetwork::ring(ids.size());
  for (sim::NodeId v = 0; v < ids.size(); ++v) {
    net_out.set_automaton(v,
                          std::make_unique<ComposedNode>(ids[v], factory(v)));
  }

  ComposedResult result;
  result.report = net_out.run(scheduler, opts);
  result.quiescent = result.report.quiescent;
  result.all_terminated = result.report.all_terminated;
  result.total_pulses = result.report.sent;

  bool ring_size_consistent = true;
  for (sim::NodeId v = 0; v < ids.size(); ++v) {
    const auto& node = net_out.automaton_as<ComposedNode>(v);
    const auto& k = node.election().counters();
    result.election_pulses += k.sigma_cw + k.sigma_ccw;
    if (node.election().role() == co::Role::leader && !result.leader) {
      result.leader = v;
    }
    if (node.bus() != nullptr) {
      result.bus_pulses += node.bus()->pulses_sent();
      if (result.ring_size_learned == 0) {
        result.ring_size_learned = node.bus()->ring_size();
      } else if (result.ring_size_learned != node.bus()->ring_size()) {
        ring_size_consistent = false;
      }
    }
  }
  if (!ring_size_consistent) result.ring_size_learned = 0;
  COLEX_ENSURES(result.election_pulses + result.bus_pulses ==
                result.total_pulses);
  return result;
}

ComposedResult run_composed(const std::vector<std::uint64_t>& ids,
                            const AppFactory& factory,
                            sim::Scheduler& scheduler,
                            const sim::RunOptions& opts) {
  sim::PulseNetwork net;
  return run_composed_with_network(ids, factory, scheduler, opts, net);
}

}  // namespace colex::colib
