// Partition-and-heal convergence under the scripted fault layer (src/fault).
//
// Scenario PARTITION-HEAL: one pool bootstraps; mid-convergence a FaultPlan
// cuts the network into two halves by address. Because IDs are random, an
// address cut splits every node's ID neighbourhood roughly in half, so with
// the liveness extension on (LivenessPolicy::Evict: per-exchange timeouts) the
// far side gets probed, condemned and tombstoned — the measured missing-leaf
// fraction climbs while the partition holds. When the window closes (the
// heal), tombstones expire and the still-running gossip re-absorbs the far
// side: the late-stage missing-leaf fraction drops back below its
// pre-partition level. Reported: the pre-partition / peak / final missing
// fractions and the cycles from heal to perfect tables.
//
// Scenario CRASH-RECOVER: the same pool under a hostile mix — 15% of the
// nodes crash and return with state (dark window, distinct from kill),
// layered over correlated loss, duplication, reordering and a heavy-tail
// (Pareto) latency window. Reported: convergence despite the mix plus the
// fault-layer counters (msg.dup, msg.reordered, fault.dark.dropped).
//
// Both runs export their sampled metric series (fault.partition.active,
// fault.dark.nodes, convergence gauges, ...) into the --json report.
#include <algorithm>
#include <cstdio>

#include "bench/bench_common.hpp"

using namespace bsvc;
using namespace bsvc::bench;

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const std::size_t n =
      static_cast<std::size_t>(flags.get_int("n", static_cast<std::int64_t>(default_n(flags))));
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  (void)threads_flag(flags);  // accepted for run_suite.sh flag uniformity
  const std::int64_t sample_every = flags.get_int("sample-every", 1);
  BenchReport report(flags, "partition_heal");
  const std::size_t shards = shards_flag(flags);
  // --spans: exchange spans across the cut show the partition as a timeout
  // wave (requests into the far side) and the heal as rtt returning to the
  // transport baseline.
  const bool spans = flags.get_bool("spans", false);
  apply_log_level_flag(flags);
  flags.finish();

  // ---------------- PARTITION-HEAL ---------------------------------------
  const std::size_t cut_cycle = 4;    // partition starts mid-convergence
  const std::size_t heal_cycle = 20;  // window closes: the heal
  std::printf("=== Partition-heal: %zu nodes, cut at cycle %zu, healed at %zu ===\n", n,
              cut_cycle, heal_cycle);
  {
    ExperimentConfig cfg;
    cfg.n = n;
    cfg.seed = seed;
    cfg.shards = shards;
    cfg.spans = spans;
    cfg.max_cycles = 48;
    cfg.stop_at_convergence = false;
    cfg.sample_every_cycles = sample_every <= 0 ? 0 : static_cast<std::size_t>(sample_every);
    // The liveness extension is the point: real non-answers across the cut
    // drive exchange timeouts -> demotion -> condemnation. A short tombstone
    // TTL lets the far side return quickly after the heal.
    cfg.bootstrap.liveness = LivenessPolicy::Evict;
    cfg.bootstrap.tombstone_ttl_cycles = 5;

    const SimTime delta = cfg.bootstrap.delta;
    const SimTime epoch = cfg.warmup_cycles * delta;
    PartitionSpec cut;
    cut.window = {epoch + cut_cycle * delta, epoch + heal_cycle * delta};
    cut.kind = PartitionSpec::Kind::Cut;
    cut.value = static_cast<std::uint32_t>(n / 2);
    cfg.fault_plan.partitions.push_back(cut);

    BootstrapExperiment exp(cfg);
    std::printf("# columns: cycle  missing_leaf  missing_prefix  (partition active %zu..%zu)\n",
                cut_cycle, heal_cycle);
    const auto result = exp.run([&](std::size_t cycle, const ConvergenceMetrics& m) {
      std::printf("%3zu  %.6g  %.6g%s\n", cycle, m.missing_leaf_fraction(),
                  m.missing_prefix_fraction(),
                  cycle >= cut_cycle && cycle < heal_cycle ? "  # partitioned" : "");
    });

    // Pre-partition level = the last measurement before the cut; peak = the
    // worst cycle while it held; healed = the final cycle.
    const auto leaf_at = [&](std::size_t cycle) { return result.series.at(cycle, 1); };
    const double pre = leaf_at(cut_cycle - 1);
    double peak = 0.0;
    for (std::size_t c = cut_cycle; c < heal_cycle; ++c) peak = std::max(peak, leaf_at(c));
    const double healed = leaf_at(result.series.rows() - 1);
    int recovered_cycle = -1;  // first post-heal cycle back below the pre level
    for (std::size_t c = heal_cycle; c < result.series.rows(); ++c) {
      if (leaf_at(c) < pre) {
        recovered_cycle = static_cast<int>(c);
        break;
      }
    }
    std::printf("# pre-partition missing leaf %.6g, peak under partition %.6g, "
                "final %.6g\n",
                pre, peak, healed);
    std::printf("# recovered below pre-partition level at cycle %d; perfect at %d "
                "(healed at %zu)\n\n",
                recovered_cycle, result.converged_cycle, heal_cycle);
    report.add_run("partition-heal", result);
    if (result.has_spans) {
      report.add_metric("partition_spans_timeout",
                        static_cast<double>(result.span_summary.timeout));
      report.add_metric("partition_spans_answered",
                        static_cast<double>(result.span_summary.answered));
      report.set_spans(result.span_summary);
    }
    report.add_metric("pre_partition_missing_leaf", pre);
    report.add_metric("partition_peak_missing_leaf", peak);
    report.add_metric("healed_missing_leaf", healed);
    report.add_metric("heal_recovered", healed < pre ? 1.0 : 0.0);
    report.add_metric("recovered_cycle", static_cast<double>(recovered_cycle));
  }

  // ---------------- CRASH-RECOVER under a hostile mix ---------------------
  std::printf("=== Crash-recover: 15%% dark for 8 cycles + loss/dup/reorder/Pareto ===\n");
  {
    ExperimentConfig cfg;
    cfg.n = n;
    cfg.seed = seed + 1;
    cfg.shards = shards;
    cfg.spans = spans;
    cfg.max_cycles = 40;
    cfg.stop_at_convergence = false;
    cfg.sample_every_cycles = sample_every <= 0 ? 0 : static_cast<std::size_t>(sample_every);
    cfg.bootstrap.liveness = LivenessPolicy::Evict;
    cfg.bootstrap.tombstone_ttl_cycles = 5;

    const SimTime delta = cfg.bootstrap.delta;
    const SimTime epoch = cfg.warmup_cycles * delta;
    const SimTime end = epoch + cfg.max_cycles * delta;
    FaultPlan& plan = cfg.fault_plan;
    plan.crashes.push_back({{epoch + 8 * delta, epoch + 16 * delta}, kNullAddress, 0.15});
    plan.link_loss.push_back({{epoch, end}, kNullAddress, kNullAddress, 0.1});
    plan.duplicates.push_back({{epoch, end}, 0.05, 200});
    plan.reorders.push_back({{epoch, end}, 0.2, 400});
    LatencySpec pareto;
    pareto.window = {epoch + 12 * delta, epoch + 20 * delta};
    pareto.mode = LatencySpec::Mode::Pareto;
    pareto.scale = 60.0;
    pareto.alpha = 1.5;
    pareto.cap = 3000;
    plan.latency.push_back(pareto);

    BootstrapExperiment exp(cfg);
    const auto result = exp.run();
    obs::MetricsRegistry& m = exp.engine().metrics();
    std::printf("# final missing leaf %.6g prefix %.6g; perfect at cycle %d\n",
                result.final_metrics.missing_leaf_fraction(),
                result.final_metrics.missing_prefix_fraction(), result.converged_cycle);
    std::printf("# faults injected: dup %llu, reordered %llu, link-dropped %llu, "
                "dark-dropped %llu, crashes %llu\n\n",
                static_cast<unsigned long long>(m.counter("msg.dup").value()),
                static_cast<unsigned long long>(m.counter("msg.reordered").value()),
                static_cast<unsigned long long>(m.counter("fault.link.dropped").value()),
                static_cast<unsigned long long>(m.counter("fault.dark.dropped").value()),
                static_cast<unsigned long long>(m.counter("fault.crash").value()));
    report.add_run("crash-recover", result);
    report.add_metric("crash_final_missing_leaf",
                      result.final_metrics.missing_leaf_fraction());
    report.add_metric("crash_converged_cycle",
                      static_cast<double>(result.converged_cycle));
  }
  report.write();
  return 0;
}
