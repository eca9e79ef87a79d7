// FaultInjector: the scripted FaultModel. Executes a FaultPlan against an
// engine — partition cuts, correlated link loss, latency spikes / Pareto
// heavy tails, duplication, reordering hold-back, and crash–recover dark
// windows. Per-message verdicts draw from the sender's transport stream (see
// FaultModel); the plan-seeded private Rng only picks fractional-crash
// victims at barriers, so installing a plan never perturbs the engine or
// node protocol streams of the underlying trajectory.
#pragma once

#include <memory>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "fault/fault_model.hpp"
#include "fault/fault_plan.hpp"
#include "obs/metrics.hpp"

namespace bsvc {

class Engine;

class FaultInjector : public FaultModel {
 public:
  explicit FaultInjector(FaultPlan plan);

  /// Binds the injector to `engine`: registers metrics, installs itself as
  /// the engine's fault model, and schedules the plan's bookkeeping calls
  /// (fractional crash victim picks, partition gauge flips, dark-time
  /// records). Call once, before running; the injector must outlive the
  /// engine's use of it.
  void install(Engine& engine);

  const FaultPlan& plan() const { return plan_; }

  // --- FaultModel ---------------------------------------------------------
  SendDecision on_send(SimTime now, Address from, Address to, Rng& rng) override;
  SimTime dark_until(SimTime now, Address addr) const override;

  /// True if `addr` is dark at `now` (convenience for tests/benches).
  bool is_dark(SimTime now, Address addr) const { return dark_until(now, addr) > now; }

 private:
  void add_dark_window(Address addr, TimeWindow window);
  void schedule_crash_calls(Engine& engine);
  void schedule_partition_gauge(Engine& engine);

  FaultPlan plan_;
  // Barrier-side only: picks fractional-crash victims.
  Rng rng_;
  // Resolved crash windows per node (explicit addrs at install time,
  // fractional victims picked at window.start).
  std::unordered_map<Address, std::vector<TimeWindow>> dark_;

  // Metric handles, bound at install().
  obs::Counter* partition_dropped_ = nullptr;  // fault.partition.dropped
  obs::Counter* link_dropped_ = nullptr;       // fault.link.dropped
  obs::Counter* reordered_ = nullptr;          // msg.reordered
  obs::Counter* crashes_ = nullptr;            // fault.crash
  obs::Counter* recoveries_ = nullptr;         // fault.recover
  obs::Gauge* partition_active_ = nullptr;     // fault.partition.active
  obs::Gauge* dark_nodes_ = nullptr;           // fault.dark.nodes
  obs::HistogramMetric* dark_time_ = nullptr;  // fault.dark_time (per-node ticks)
};

/// Convenience: builds an injector for `plan` and installs it into `engine`.
/// Returns nullptr (and installs nothing) when the plan is empty, so callers
/// can thread an optional plan straight through. Aborts on an invalid plan —
/// validate earlier for a recoverable error.
std::unique_ptr<FaultInjector> install_fault_plan(Engine& engine, const FaultPlan& plan);

}  // namespace bsvc
