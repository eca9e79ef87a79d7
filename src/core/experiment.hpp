// Experiment harness: assembles a complete network (simulation engine +
// Newscast sampling layer + bootstrapping service on every node), drives it
// cycle by cycle, measures the paper's convergence metrics against the
// oracle, and reports traffic costs. All benches and most examples reuse it.
#pragma once

#include <functional>
#include <memory>
#include <optional>

#include "common/stats.hpp"
#include "core/bootstrap.hpp"
#include "fault/fault_injector.hpp"
#include "core/config.hpp"
#include "core/oracle.hpp"
#include "id/id_generator.hpp"
#include "obs/profiler.hpp"
#include "obs/sampler.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "sampling/newscast.hpp"
#include "sim/engine.hpp"
#include "sim/scenario.hpp"
#include "sim/slot_ref.hpp"

namespace bsvc {

/// Which peer sampling implementation backs the bootstrapping service.
enum class SamplerKind {
  Newscast,  // the paper's architecture: gossip sampling layer underneath
  Oracle,    // idealized uniform sampling (isolation / ablation)
};

struct ExperimentConfig {
  std::size_t n = std::size_t{1} << 12;
  std::uint64_t seed = 1;
  /// Engine shard count K >= 1 (worker lanes). The trajectory is identical
  /// for every K at a fixed seed (K = 1 is the inline reference).
  std::size_t shards = 1;
  /// Protocol parameters. `bootstrap.harden` also hardens the Newscast
  /// layer underneath, so one switch covers both protocols.
  BootstrapConfig bootstrap;
  SamplerKind sampler = SamplerKind::Newscast;
  /// Transport loss (paper Fig. 4: 0.2).
  double drop_probability = 0.0;
  /// Newscast runs alone for this many cycles before the bootstrap starts
  /// ("we are given a network where the sampling service is already
  /// functional").
  std::size_t warmup_cycles = 10;
  /// Nodes start the bootstrap protocol at a uniformly random time within
  /// this many Δ (paper: 1 — "within an interval of length Δ").
  double start_window_cycles = 1.0;
  /// Hard stop if not converged earlier.
  std::size_t max_cycles = 150;
  bool stop_at_convergence = true;
  /// Optional continuous churn during the bootstrap phase (rates are per
  /// cycle; enabled when fail_rate or join_rate > 0).
  double churn_fail_rate = 0.0;
  double churn_join_rate = 0.0;
  /// When > 0, a Sampler snapshots the engine's metrics registry — plus
  /// convergence and traffic gauges computed by probes — every this many
  /// cycles during the bootstrap phase; the series lands in
  /// ExperimentResult::metric_series. 0 disables sampling.
  std::size_t sample_every_cycles = 0;
  /// When non-empty, the engine streams every trace record (message sends /
  /// drops / deliveries, timer fires, node starts and kills) as JSONL to
  /// this path for the whole run including warmup. Empty disables tracing.
  std::string trace_path;
  /// When true, a SpanLog tracks every bootstrap exchange as a causal span
  /// (open at request send, closed on answer/timeout/supersession/eviction)
  /// and ExperimentResult::span_summary reports latency percentiles and
  /// outcome counts. Observe-only: the trajectory is bit-identical either
  /// way, and the summary is identical for every --shards K.
  bool spans = false;
  /// When non-empty, an EngineProfiler accounts every window's crew phases
  /// and writes Chrome trace-event JSON here at the end of the run (load in
  /// chrome://tracing or Perfetto).
  std::string profile_path;
  /// Scripted fault plan (partitions, correlated loss, latency faults,
  /// dup/reorder, crash–recover; see docs/faults.md). An empty plan installs
  /// no fault model at all — the run is bit-identical to the pre-fault
  /// engine. Window times are absolute virtual time, so warmup_cycles counts
  /// toward them. A partition open at t = 0 also keeps the initial Newscast
  /// seeding inside each group: independent pools from the first tick, as
  /// in the merge scenarios, whose cut window closes at the merge. An
  /// invalid plan is rejected at setup with exit code 2.
  FaultPlan fault_plan;
  /// Optional per-node extension hook, invoked at the end of make_node() for
  /// every node — the initial network and later churn joiners alike — so a
  /// layer above the bootstrap (e.g. the src/workload request/broadcast
  /// service) can attach additional protocols without core depending on it.
  /// The sampling service is slot 0 and the bootstrap slot 1; the hook's
  /// attachments land at slot 2 upward.
  std::function<void(Engine&, Address)> node_extension;
};

struct ExperimentResult {
  /// Columns: cycle, missing_leaf, missing_prefix, alive, msgs_sent_total,
  /// bytes_sent_total (cumulative engine traffic at end of cycle).
  TimeSeries series{{"cycle", "missing_leaf", "missing_prefix", "alive", "msgs", "bytes"}};
  /// First cycle whose leaf sets, prefix tables, or both are perfect; -1:
  /// none within max_cycles. Later cycles may lose and regain perfection.
  int leaf_converged_cycle = -1;
  int prefix_converged_cycle = -1;
  int converged_cycle = -1;
  std::size_t n = 0;
  BootstrapStats bootstrap_stats;
  TrafficStats traffic_during_bootstrap;
  /// Mean/max wire bytes per bootstrap message.
  double avg_message_bytes = 0.0;
  std::uint64_t max_message_bytes = 0;
  /// Engine events dispatched over the whole run incl. warmup (throughput
  /// accounting for the bench --json reports).
  std::uint64_t events_dispatched = 0;
  /// Final metrics at the last measured cycle.
  ConvergenceMetrics final_metrics;
  /// Per-metric time series (name -> [(virtual time, value)]) sampled during
  /// the bootstrap phase; empty unless sample_every_cycles > 0.
  obs::MetricSeries metric_series;
  /// Exchange-span aggregates (valid when has_spans; config.spans enables).
  bool has_spans = false;
  obs::SpanSummary span_summary;
  /// Window-profiler aggregates (valid when has_profile; config.profile_path
  /// enables). The Chrome trace itself is written to profile_path.
  bool has_profile = false;
  obs::ProfileSummary profile_summary;
};

/// Builds and runs one bootstrap experiment. The object stays alive after
/// run() so examples can keep using the converged network (routing, etc.).
class BootstrapExperiment {
 public:
  explicit BootstrapExperiment(ExperimentConfig config);

  /// Runs warmup + bootstrap until convergence or max_cycles.
  /// `on_cycle` (optional) observes (cycle, metrics) after each cycle.
  ExperimentResult run(
      std::function<void(std::size_t, const ConvergenceMetrics&)> on_cycle = nullptr);

  Engine& engine() { return *engine_; }
  const ExperimentConfig& config() const { return config_; }
  /// Typed handle to the sampling slot. Only dereference protocols through
  /// it when sampler == Newscast (under SamplerKind::Oracle the slot holds
  /// an OracleSamplerProtocol); decaying it to a raw ProtocolSlot is always
  /// fine.
  SlotRef<NewscastProtocol> newscast_slot() const { return newscast_ref_; }
  SlotRef<BootstrapProtocol> bootstrap_slot() const { return bootstrap_ref_; }

  /// The bootstrap protocol instance of a node.
  const BootstrapProtocol& bootstrap_of(Address addr) const;

  /// Live protocol-stat totals (requests/replies/probes sent so far),
  /// merged across shard lanes. Tests use the request+reply delta across a
  /// window of simulated time as the exchange count for per-exchange
  /// allocation budgets.
  BootstrapStats current_stats() const { return merged_stats(); }

  /// Creates one more fully-stacked node (used by churn joins and the merge/
  /// split examples); the caller starts it.
  Address make_node();

 private:
  void build_network();

  ExperimentConfig config_;
  std::unique_ptr<Engine> engine_;
  // Installed right after engine construction so node starts are traced.
  // The engine never touches the sink while being destroyed, so the sink
  // may safely be torn down first.
  std::unique_ptr<obs::JsonlTraceSink> trace_sink_;
  // Span log and window profiler, installed before the network is built so
  // every protocol sees them at on_start; engine borrows, we own.
  std::unique_ptr<obs::SpanLog> span_log_;
  std::unique_ptr<obs::EngineProfiler> profiler_;
  // The live FaultModel executing config_.fault_plan (null when the plan is
  // empty); owned here because the engine only borrows it.
  std::unique_ptr<FaultInjector> injector_;
  std::unique_ptr<obs::Sampler> sampler_;
  std::unique_ptr<IdGenerator> ids_;
  /// Protocol-written stats, one cache-line-aligned block per shard: each
  /// node's protocol instance writes the block of its owning shard, so shard
  /// lanes never contend or false-share.
  /// Sized once in the constructor — protocols hold raw pointers into it.
  struct alignas(64) StatsBlock {
    BootstrapStats stats;
  };
  std::vector<StatsBlock> stats_blocks_;
  BootstrapStats merged_stats() const;
  void reset_stats();
  SlotRef<NewscastProtocol> newscast_ref_ = SlotRef<NewscastProtocol>::assume(0);
  SlotRef<BootstrapProtocol> bootstrap_ref_ = SlotRef<BootstrapProtocol>::assume(1);
  SimTime bootstrap_epoch_ = 0;
  bool built_ = false;
};

}  // namespace bsvc
