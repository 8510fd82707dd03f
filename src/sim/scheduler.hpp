// Asynchronous delivery schedulers.
//
// The network model allows unbounded-but-finite delays and arbitrary
// interleaving of deliveries across channels (per-channel order is FIFO,
// which is without loss of generality because pulses are indistinguishable).
// A Scheduler embodies one adversary: at every step it inspects the channels
// that have pulses in flight and decides which channel delivers next.
//
// Schedulers are intentionally payload-agnostic: in a fully defective
// network the adversary cannot read message content either.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/types.hpp"
#include "util/rng.hpp"

namespace colex::sim {

/// Snapshot of one nonempty channel, offered to the scheduler.
struct ChannelView {
  std::size_t channel = 0;       ///< channel id within the network
  std::size_t pending = 0;       ///< pulses in flight on this channel
  std::uint64_t head_seq = 0;    ///< global send-sequence number of the head
  std::uint64_t head_stamp = 0;  ///< event step at which the head was sent
  Direction dir = Direction::cw; ///< physical direction (analysis-only)
};

/// Strategy interface: choose the channel that delivers next.
class Scheduler {
 public:
  virtual ~Scheduler() = default;

  /// `pending` is nonempty and lists every channel with pulses in flight.
  /// It is the network's own live view, not a copy: it is valid only during
  /// the call and changes with the next delivery, so keep ids, never the
  /// reference. Must return the `channel` id of one of the entries.
  virtual std::size_t pick(const std::vector<ChannelView>& pending) = 0;

  /// Human-readable name for reports.
  virtual std::string name() const = 0;

  /// Reset internal state so the scheduler can drive a fresh run.
  virtual void reset() {}
};

/// Delivers pulses in global send order (the "synchronous-looking" run).
class GlobalFifoScheduler final : public Scheduler {
 public:
  std::size_t pick(const std::vector<ChannelView>& pending) override;
  std::string name() const override { return "global-fifo"; }
};

/// Always delivers the most recently sent pulse first (maximally stale
/// channels elsewhere). Per-channel FIFO still holds.
class GlobalLifoScheduler final : public Scheduler {
 public:
  std::size_t pick(const std::vector<ChannelView>& pending) override;
  std::string name() const override { return "global-lifo"; }
};

/// Picks a uniformly random nonempty channel; reproducible from the seed.
class RandomScheduler final : public Scheduler {
 public:
  explicit RandomScheduler(std::uint64_t seed) : seed_(seed), rng_(seed) {}
  std::size_t pick(const std::vector<ChannelView>& pending) override;
  std::string name() const override;
  void reset() override { rng_ = util::Xoshiro256StarStar(seed_); }

 private:
  std::uint64_t seed_;
  util::Xoshiro256StarStar rng_;
};

/// Cycles deterministically over channel ids.
class RoundRobinScheduler final : public Scheduler {
 public:
  std::size_t pick(const std::vector<ChannelView>& pending) override;
  std::string name() const override { return "round-robin"; }
  void reset() override { last_ = 0; }

 private:
  std::size_t last_ = 0;
};

/// Keeps delivering from one channel until it drains, then moves to the
/// fullest remaining channel. Produces extreme burstiness.
class DrainChannelScheduler final : public Scheduler {
 public:
  std::size_t pick(const std::vector<ChannelView>& pending) override;
  std::string name() const override { return "drain-channel"; }
  void reset() override { current_ = kNone; }

 private:
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::size_t current_ = kNone;
};

/// Starves every channel of physical direction `d`: those channels deliver
/// only when nothing else is in flight. Maximally skews one of the two
/// parallel sub-algorithms (e.g. the CCW instance inside Algorithm 2).
class StarveDirectionScheduler final : public Scheduler {
 public:
  explicit StarveDirectionScheduler(Direction d) : starved_(d) {}
  std::size_t pick(const std::vector<ChannelView>& pending) override;
  std::string name() const override;

 private:
  Direction starved_;
};

/// Starves one specific channel: it delivers only when it is the sole
/// nonempty channel. Models a single maximally slow link ("eclipsed" edge).
class EclipseScheduler final : public Scheduler {
 public:
  explicit EclipseScheduler(std::size_t channel) : eclipsed_(channel) {}
  std::size_t pick(const std::vector<ChannelView>& pending) override;
  std::string name() const override;

 private:
  std::size_t eclipsed_;
};

/// Delivers bursts: picks a random channel and drains a random number of
/// its pulses before re-picking. Models jittery links that alternate
/// between stalls and floods.
class BurstyScheduler final : public Scheduler {
 public:
  explicit BurstyScheduler(std::uint64_t seed) : seed_(seed), rng_(seed) {}
  std::size_t pick(const std::vector<ChannelView>& pending) override;
  std::string name() const override;
  void reset() override {
    rng_ = util::Xoshiro256StarStar(seed_);
    current_ = kNone;
    remaining_ = 0;
  }

 private:
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::uint64_t seed_;
  util::Xoshiro256StarStar rng_;
  std::size_t current_ = kNone;
  std::size_t remaining_ = 0;
};

/// Seeded biased random walk over the enabled events — the workhorse of the
/// property-based fuzzing harness (src/qa). At every step each pending
/// channel gets an integer weight from the profile (recency/staleness/
/// stickiness/direction biases on top of a uniform base) and the next
/// delivery is drawn categorically. Weights are integers, so a run is
/// bit-reproducible from the seed; with an all-zero-bias profile this is
/// exactly RandomScheduler.
class WalkScheduler final : public Scheduler {
 public:
  struct Profile {
    std::uint32_t base = 4;    ///< uniform weight on every pending channel
    std::uint32_t lifo = 0;    ///< bonus for the most recently sent head
    std::uint32_t fifo = 0;    ///< bonus for the oldest head
    std::uint32_t stick = 0;   ///< bonus for the channel picked last step
    std::uint32_t cw = 0;      ///< bonus for CW channels
    std::uint32_t ccw = 0;     ///< bonus for CCW channels
  };

  WalkScheduler(std::uint64_t seed, Profile profile)
      : seed_(seed), profile_(profile), rng_(seed) {}
  std::size_t pick(const std::vector<ChannelView>& pending) override;
  std::string name() const override;
  void reset() override {
    rng_ = util::Xoshiro256StarStar(seed_);
    last_ = kNone;
  }

 private:
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::uint64_t seed_;
  Profile profile_;
  util::Xoshiro256StarStar rng_;
  std::size_t last_ = kNone;
};

/// Swarm-style scheduler mixture: owns a set of sub-schedulers and lets a
/// seeded RNG hand control to one of them for a random burst of steps
/// before re-drawing. Models an adversary that switches strategy mid-run;
/// the fuzzing harness uses it to compose the standard suite with biased
/// walks. Deterministic from (seed, parts).
class MixScheduler final : public Scheduler {
 public:
  MixScheduler(std::uint64_t seed,
               std::vector<std::unique_ptr<Scheduler>> parts)
      : seed_(seed), parts_(std::move(parts)), rng_(seed) {}
  std::size_t pick(const std::vector<ChannelView>& pending) override;
  std::string name() const override;
  void reset() override;

 private:
  std::uint64_t seed_;
  std::vector<std::unique_ptr<Scheduler>> parts_;
  util::Xoshiro256StarStar rng_;
  std::size_t active_ = 0;
  std::size_t remaining_ = 0;
};

/// The scheduler of Definition 21 (solitude patterns) and Lemma 22: delivers
/// pulses one by one in the order they were sent, breaking same-step ties by
/// prioritizing CW pulses.
class SolitudeScheduler final : public Scheduler {
 public:
  std::size_t pick(const std::vector<ChannelView>& pending) override;
  std::string name() const override { return "solitude"; }
};

/// Wraps another scheduler and records every choice it makes, so that an
/// interesting adversarial run (e.g. a failing fuzz case) can be replayed
/// exactly with ReplayScheduler.
class RecordingScheduler final : public Scheduler {
 public:
  explicit RecordingScheduler(Scheduler& inner) : inner_(inner) {}
  std::size_t pick(const std::vector<ChannelView>& pending) override {
    const std::size_t choice = inner_.pick(pending);
    tape_.push_back(choice);
    return choice;
  }
  std::string name() const override { return "recording(" + inner_.name() + ")"; }
  void reset() override {
    inner_.reset();
    tape_.clear();
  }
  const std::vector<std::size_t>& tape() const { return tape_; }

 private:
  Scheduler& inner_;
  std::vector<std::size_t> tape_;
};

/// Replays a recorded tape of channel choices verbatim. If the tape runs
/// out or names a channel that is not pending (i.e. the run being driven
/// diverged from the recorded one), falls back to global-FIFO order.
class ReplayScheduler final : public Scheduler {
 public:
  explicit ReplayScheduler(std::vector<std::size_t> tape)
      : tape_(std::move(tape)) {}
  std::size_t pick(const std::vector<ChannelView>& pending) override;
  std::string name() const override { return "replay"; }
  void reset() override { cursor_ = 0; }
  std::size_t divergences() const { return divergences_; }

 private:
  std::vector<std::size_t> tape_;
  std::size_t cursor_ = 0;
  std::size_t divergences_ = 0;
};

/// A named scheduler instance, for sweeping experiments over adversaries.
struct NamedScheduler {
  std::string name;
  std::unique_ptr<Scheduler> scheduler;
};

/// The standard adversary suite used by tests and benches: fifo, lifo,
/// round-robin, drain-channel, starve-cw, starve-ccw, solitude, and
/// `random_instances` seeded random schedulers.
std::vector<NamedScheduler> standard_schedulers(std::size_t random_instances,
                                                std::uint64_t seed_base = 1);

}  // namespace colex::sim
