// FaultPlan: a deterministic, seeded schedule of timed fault events —
// network partitions, correlated/asymmetric link loss, latency spikes and
// heavy-tail (Pareto) latency, message duplication, reordering windows, and
// crash–recover node schedules. A plan is plain data, built in code and
// copied freely (ExperimentConfig carries one by value; docs/faults.md has
// an example). FaultInjector turns a plan into a live FaultModel.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "id/node_id.hpp"
#include "sim/event_queue.hpp"

namespace bsvc {

/// Half-open window of virtual time: active for start <= t < end.
struct TimeWindow {
  SimTime start = 0;
  SimTime end = 0;
  bool contains(SimTime t) const { return t >= start && t < end; }
};

/// Network partition: node groups that cannot exchange messages until the
/// window closes (the heal). Groups are a pure function of the address so
/// plans stay independent of network size.
struct PartitionSpec {
  enum class Kind : std::uint8_t {
    Cut,     // two groups: addr < value vs addr >= value
    Modulo,  // value groups: addr % value
  };
  TimeWindow window;
  Kind kind = Kind::Cut;
  std::uint32_t value = 1;

  std::uint32_t group_of(Address a) const {
    return kind == Kind::Cut ? (a >= value ? 1u : 0u) : a % value;
  }
};

/// Correlated / asymmetric link loss: an extra drop probability applied to
/// messages from `from` to `to` (kNullAddress = wildcard, any endpoint),
/// layered over the transport's base i.i.d. rate. Directed: loss from A to
/// B says nothing about B to A.
struct LinkLossSpec {
  TimeWindow window;
  Address from = kNullAddress;
  Address to = kNullAddress;
  double drop_probability = 0.0;
};

/// Latency manipulation. Spike adds a constant to every base draw; Pareto
/// replaces the draw with a heavy-tail sample: scale / u^(1/alpha) for
/// uniform u, i.e. a Pareto Type I with minimum `scale`, clamped to `cap`
/// (0 = 100 * scale).
struct LatencySpec {
  enum class Mode : std::uint8_t { Spike, Pareto };
  TimeWindow window;
  Mode mode = Mode::Spike;
  SimTime add = 0;
  double scale = 0.0;
  double alpha = 2.0;
  SimTime cap = 0;

  SimTime effective_cap() const {
    return cap != 0 ? cap : static_cast<SimTime>(100.0 * scale);
  }
};

/// Message duplication: with `probability`, one extra copy of the message
/// is injected, arriving uniform[0, jitter] ticks after the original.
struct DuplicateSpec {
  TimeWindow window;
  double probability = 0.0;
  SimTime jitter = 100;
};

/// Reordering window: with `probability`, a message is held back an extra
/// uniform[0, max_delay] ticks, letting later sends overtake it.
struct ReorderSpec {
  TimeWindow window;
  double probability = 0.0;
  SimTime max_delay = 100;
};

/// Crash–recover schedule: the node is dark for the window, keeps its
/// state, and returns (deferred timers fire at window.end). Either a fixed
/// address or a fraction of the alive nodes picked at window.start from the
/// plan's seeded RNG.
struct CrashSpec {
  TimeWindow window;
  Address addr = kNullAddress;  // explicit node, or
  double fraction = 0.0;        // fraction of alive nodes at window.start
};

struct FaultPlan {
  /// Seeds the injector's private RNG (loss/dup/reorder/Pareto draws and
  /// fractional crash victim picks). Independent of the engine seed: the
  /// same plan replays identically over any base trajectory.
  std::uint64_t seed = 0x5EEDFA017ull;

  std::vector<PartitionSpec> partitions;
  std::vector<LinkLossSpec> link_loss;
  std::vector<LatencySpec> latency;
  std::vector<DuplicateSpec> duplicates;
  std::vector<ReorderSpec> reorders;
  std::vector<CrashSpec> crashes;

  bool empty() const {
    return partitions.empty() && link_loss.empty() && latency.empty() &&
           duplicates.empty() && reorders.empty() && crashes.empty();
  }

  /// True when a partition open at `t` puts `a` and `b` in different
  /// groups, so a message between them sent at `t` is cut. The injector's
  /// send check and the experiment's t = 0 view seeding both ask this.
  bool separated(SimTime t, Address a, Address b) const {
    for (const PartitionSpec& p : partitions) {
      if (p.window.contains(t) && p.group_of(a) != p.group_of(b)) return true;
    }
    return false;
  }

  /// Returns "" when the plan is well-formed, else a description of the
  /// first problem (window start >= end, probability outside [0,1], ...).
  std::string validate() const;
};

}  // namespace bsvc
