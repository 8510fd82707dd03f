// FNV-1a digests of seeded generator output, for golden tests that pin
// every field a generator draws (a changed budget or horizon shifts the
// digest even when each case still looks well formed).
#pragma once

#include <cstdint>
#include <cstring>
#include <string_view>
#include <vector>

#include "sim/faults.hpp"

namespace colex::test {

class Digest {
 public:
  void u64(std::uint64_t v) { h_ = (h_ ^ v) * 1099511628211ULL; }
  void f64(double d) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof bits);
    u64(bits);
  }
  void str(std::string_view s) {
    u64(s.size());
    for (const char ch : s) u64(static_cast<unsigned char>(ch));
  }
  void u64s(const std::vector<std::uint64_t>& vs) {
    u64(vs.size());
    for (const std::uint64_t v : vs) u64(v);
  }
  void bools(const std::vector<bool>& vs) {
    u64(vs.size());
    for (const bool v : vs) u64(v ? 1 : 0);
  }
  void profile(const sim::ChannelFaultProfile& p) {
    f64(p.drop_prob);
    f64(p.duplicate_prob);
    f64(p.spurious_prob);
  }
  void plan(const sim::FaultPlan& p) {
    u64(p.seed);
    profile(p.all_channels);
    u64(p.channel_overrides.size());
    for (const auto& [channel, prof] : p.channel_overrides) {
      u64(channel);
      profile(prof);
    }
    u64(p.script.size());
    for (const sim::ScriptedFault& f : p.script) {
      u64(static_cast<std::uint64_t>(f.kind));
      u64(f.at_event);
      u64(f.channel);
      u64(f.node);
    }
    u64(p.preseed_channels.size());
    for (const auto& [channel, count] : p.preseed_channels) {
      u64(channel);
      u64(count);
    }
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ULL;
};

}  // namespace colex::test
