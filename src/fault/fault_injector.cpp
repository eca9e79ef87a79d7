#include "fault/fault_injector.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"
#include "sim/engine.hpp"

namespace bsvc {

FaultInjector::FaultInjector(FaultPlan plan)
    : plan_(std::move(plan)), rng_(plan_.seed) {
  BSVC_CHECK_MSG(plan_.validate().empty(), "invalid FaultPlan");
  for (const CrashSpec& c : plan_.crashes) {
    if (c.addr != kNullAddress) add_dark_window(c.addr, c.window);
  }
}

void FaultInjector::add_dark_window(Address addr, TimeWindow window) {
  dark_[addr].push_back(window);
}

SimTime FaultInjector::dark_until(SimTime now, Address addr) const {
  const auto it = dark_.find(addr);
  if (it == dark_.end()) return 0;
  for (const TimeWindow& w : it->second) {
    if (w.contains(now)) return w.end;
  }
  return 0;
}

FaultModel::SendDecision FaultInjector::on_send(SimTime now, Address from, Address to,
                                                Rng& rng) {
  SendDecision d;
  // First, and drawing nothing: a cut message never reaches the random
  // faults below, so installing a partition shifts no sender stream.
  if (plan_.separated(now, from, to)) {
    d.drop = true;
    if (partition_dropped_ != nullptr) partition_dropped_->inc();
    return d;
  }
  for (const LinkLossSpec& l : plan_.link_loss) {
    if (!l.window.contains(now)) continue;
    if (l.from != kNullAddress && l.from != from) continue;
    if (l.to != kNullAddress && l.to != to) continue;
    if (rng.chance(l.drop_probability)) {
      d.drop = true;
      if (link_dropped_ != nullptr) link_dropped_->inc();
      return d;
    }
  }
  for (const LatencySpec& l : plan_.latency) {
    if (!l.window.contains(now)) continue;
    if (l.mode == LatencySpec::Mode::Spike) {
      d.extra_delay += l.add;
    } else {
      // Pareto Type I: minimum `scale`, shape `alpha`; u in (0, 1].
      const double u = 1.0 - rng.uniform01();
      const double x = l.scale / std::pow(u, 1.0 / l.alpha);
      d.replace_latency = true;
      d.latency = std::min(static_cast<SimTime>(x), l.effective_cap());
    }
  }
  for (const DuplicateSpec& dup : plan_.duplicates) {
    if (dup.window.contains(now) && rng.chance(dup.probability)) {
      d.duplicate = true;
      d.duplicate_delay = rng.below(dup.jitter + 1);
      break;  // at most one extra copy per message
    }
  }
  for (const ReorderSpec& r : plan_.reorders) {
    if (r.window.contains(now) && rng.chance(r.probability)) {
      d.extra_delay += rng.below(r.max_delay + 1);
      if (reordered_ != nullptr) reordered_->inc();
    }
  }
  return d;
}

void FaultInjector::schedule_crash_calls(Engine& engine) {
  for (const CrashSpec& c : plan_.crashes) {
    const TimeWindow w = c.window;
    BSVC_CHECK_MSG(w.start >= engine.now(), "crash window starts in the past");
    if (c.addr != kNullAddress) {
      engine.schedule_call(w.start - engine.now(), [this, w](Engine&) {
        crashes_->inc();
        dark_nodes_->add(1.0);
      });
      engine.schedule_call(w.end - engine.now(), [this, w](Engine&) {
        recoveries_->inc();
        dark_nodes_->add(-1.0);
        dark_time_->add(static_cast<double>(w.end - w.start));
      });
      continue;
    }
    // Fractional crash: victims are picked from the nodes alive at
    // window.start, using the injector's rng — node/engine streams stay
    // untouched.
    const double fraction = c.fraction;
    engine.schedule_call(w.start - engine.now(), [this, w, fraction](Engine& e) {
      const auto alive = e.alive_addresses();
      const auto k = static_cast<std::uint32_t>(
          fraction * static_cast<double>(alive.size()));
      if (k == 0) return;
      const auto picks =
          rng_.distinct_indices(k, static_cast<std::uint32_t>(alive.size()));
      for (const std::uint32_t i : picks) add_dark_window(alive[i], w);
      crashes_->add(k);
      dark_nodes_->add(static_cast<double>(k));
      e.schedule_call(w.end - e.now(), [this, w, k](Engine&) {
        recoveries_->add(k);
        dark_nodes_->add(-static_cast<double>(k));
        for (std::uint32_t i = 0; i < k; ++i) {
          dark_time_->add(static_cast<double>(w.end - w.start));
        }
      });
    });
  }
}

void FaultInjector::schedule_partition_gauge(Engine& engine) {
  for (const PartitionSpec& p : plan_.partitions) {
    BSVC_CHECK_MSG(p.window.start >= engine.now(), "partition window starts in the past");
    engine.schedule_call(p.window.start - engine.now(),
                         [this](Engine&) { partition_active_->add(1.0); });
    engine.schedule_call(p.window.end - engine.now(),
                         [this](Engine&) { partition_active_->add(-1.0); });
  }
}

void FaultInjector::install(Engine& engine) {
  obs::MetricsRegistry& m = engine.metrics();
  partition_dropped_ = &m.counter("fault.partition.dropped");
  link_dropped_ = &m.counter("fault.link.dropped");
  reordered_ = &m.counter("msg.reordered");
  crashes_ = &m.counter("fault.crash");
  recoveries_ = &m.counter("fault.recover");
  partition_active_ = &m.gauge("fault.partition.active");
  dark_nodes_ = &m.gauge("fault.dark.nodes");
  // Dark spans in ticks; kDelta = one cycle, so [0, 64 cycles) in 64 buckets.
  dark_time_ = &m.histogram("fault.dark_time", 0.0, 64.0 * kDelta, 64);
  schedule_partition_gauge(engine);
  schedule_crash_calls(engine);
  engine.set_fault_model(this);
}

std::unique_ptr<FaultInjector> install_fault_plan(Engine& engine, const FaultPlan& plan) {
  if (plan.empty()) return nullptr;
  auto injector = std::make_unique<FaultInjector>(plan);
  injector->install(engine);
  return injector;
}

}  // namespace bsvc
