#include "core/experiment.hpp"

#include <gtest/gtest.h>

namespace bsvc {
namespace {

TEST(Experiment, EndToEndWithNewscastConverges) {
  ExperimentConfig cfg;
  cfg.n = 512;
  cfg.seed = 1;
  cfg.max_cycles = 60;
  BootstrapExperiment exp(cfg);
  const auto result = exp.run();
  EXPECT_GE(result.converged_cycle, 0);
  EXPECT_EQ(result.n, 512u);
  EXPECT_EQ(result.series.rows(), static_cast<std::size_t>(result.converged_cycle) + 1);
}

TEST(Experiment, SeriesColumnsAreWellFormed) {
  ExperimentConfig cfg;
  cfg.n = 128;
  cfg.seed = 2;
  cfg.sampler = SamplerKind::Oracle;
  cfg.warmup_cycles = 0;
  BootstrapExperiment exp(cfg);
  const auto result = exp.run();
  ASSERT_GT(result.series.rows(), 0u);
  EXPECT_EQ(result.series.column_name(0), "cycle");
  EXPECT_EQ(result.series.column_name(1), "missing_leaf");
  for (std::size_t r = 0; r < result.series.rows(); ++r) {
    EXPECT_EQ(result.series.at(r, 0), static_cast<double>(r));            // cycles count up
    EXPECT_GE(result.series.at(r, 1), 0.0);                               // fractions in [0,1]
    EXPECT_LE(result.series.at(r, 1), 1.0);
    EXPECT_EQ(result.series.at(r, 3), 128.0);                             // alive constant
  }
}

TEST(Experiment, TrafficGrowsLinearlyWithCycles) {
  ExperimentConfig cfg;
  cfg.n = 128;
  cfg.seed = 3;
  cfg.sampler = SamplerKind::Oracle;
  cfg.warmup_cycles = 0;
  cfg.stop_at_convergence = false;
  cfg.max_cycles = 30;
  BootstrapExperiment exp(cfg);
  const auto result = exp.run();
  ASSERT_EQ(result.series.rows(), 30u);
  // Messages per cycle ~ 2 per node (request + answer), constant over time.
  const double early = result.series.at(9, 4);
  const double late = result.series.at(29, 4);
  EXPECT_NEAR(late / early, 3.0, 0.3);
}

TEST(Experiment, ChurnRunStaysUsable) {
  ExperimentConfig cfg;
  cfg.n = 512;
  cfg.seed = 4;
  cfg.max_cycles = 40;
  cfg.churn_fail_rate = 0.005;
  cfg.churn_join_rate = 0.005;
  cfg.stop_at_convergence = false;
  cfg.bootstrap.liveness = LivenessPolicy::Evict;
  BootstrapExperiment exp(cfg);
  const auto result = exp.run();
  ASSERT_EQ(result.series.rows(), 40u);
  // Tables under churn carry stale entries (as in any deployed DHT without
  // full maintenance), but the bulk of both structures stays correct.
  EXPECT_LT(result.series.at(35, 1), 0.35);
  EXPECT_LT(result.series.at(35, 2), 0.35);
  EXPECT_GT(result.series.at(35, 1), 0.0);
  // Membership actually changed.
  bool size_changed = false;
  for (std::size_t r = 1; r < result.series.rows(); ++r) {
    size_changed |= result.series.at(r, 3) != result.series.at(0, 3);
  }
  EXPECT_TRUE(size_changed);
}

TEST(Experiment, MakeNodeAddsJoinableNode) {
  ExperimentConfig cfg;
  cfg.n = 128;
  cfg.seed = 5;
  cfg.max_cycles = 60;
  BootstrapExperiment exp(cfg);
  exp.run();
  const auto before = exp.engine().alive_count();
  const Address newcomer = exp.make_node();
  exp.engine().start_node(newcomer);
  exp.engine().run_until(exp.engine().now() + 20 * cfg.bootstrap.delta);
  EXPECT_EQ(exp.engine().alive_count(), before + 1);
  // The newcomer's protocol activated and holds a leaf set.
  EXPECT_TRUE(exp.bootstrap_of(newcomer).active());
  EXPECT_GT(exp.bootstrap_of(newcomer).leaf_set().size(), 0u);
}

TEST(Experiment, InitialGroupsIsolatePools) {
  ExperimentConfig cfg;
  cfg.n = 256;
  cfg.seed = 9;
  cfg.max_cycles = 40;
  cfg.stop_at_convergence = false;
  // A cut at 128 from t=0 that never heals: its window ends past the run.
  const SimTime past_the_run = (cfg.warmup_cycles + cfg.max_cycles + 1) * cfg.bootstrap.delta;
  cfg.fault_plan.partitions.push_back({{0, past_the_run}, PartitionSpec::Kind::Cut, 128});
  BootstrapExperiment exp(cfg);
  exp.run();
  // No node of pool A ever learned a pool-B descriptor (and vice versa).
  for (Address a = 0; a < 256; ++a) {
    const auto& proto = exp.bootstrap_of(a);
    if (!proto.active()) continue;
    const bool in_a = a < 128;
    for (const auto& d : proto.leaf_set().all()) {
      EXPECT_EQ(d.addr < 128, in_a) << "node " << a;
    }
    for (const auto& d : proto.prefix_table().entries()) {
      EXPECT_EQ(d.addr < 128, in_a) << "node " << a;
    }
  }
  // Each pool converged on its own.
  std::vector<NodeDescriptor> pool_a;
  for (Address a = 0; a < 128; ++a) pool_a.push_back(exp.engine().descriptor_of(a));
  const ConvergenceOracle oracle(exp.engine(), pool_a, cfg.bootstrap, exp.bootstrap_slot());
  EXPECT_TRUE(oracle.measure().converged());
}

TEST(Experiment, ConvergedCycleIsTheFirstPerfectCycle) {
  // Running on past convergence, converged_cycle still names the first
  // cycle whose measured tables are perfect, like the per-table fields.
  ExperimentConfig cfg;
  cfg.n = 256;
  cfg.seed = 7;
  cfg.max_cycles = 40;
  cfg.stop_at_convergence = false;
  BootstrapExperiment exp(cfg);
  int first_perfect = -1;
  int perfect_cycles = 0;
  const auto result = exp.run([&](std::size_t cycle, const ConvergenceMetrics& m) {
    if (!m.converged()) return;
    if (first_perfect < 0) first_perfect = static_cast<int>(cycle);
    ++perfect_cycles;
  });
  ASSERT_GE(first_perfect, 0) << "the run must converge";
  ASSERT_GT(perfect_cycles, 1) << "the run must stay past its first perfect cycle";
  EXPECT_EQ(result.converged_cycle, first_perfect);
}

TEST(Experiment, ResultsAreDeterministic) {
  const auto signature = [](std::uint64_t seed) {
    ExperimentConfig cfg;
    cfg.n = 128;
    cfg.seed = seed;
    BootstrapExperiment exp(cfg);
    const auto r = exp.run();
    return std::tuple(r.converged_cycle, r.traffic_during_bootstrap.messages_sent,
                      r.traffic_during_bootstrap.bytes_sent);
  };
  EXPECT_EQ(signature(42), signature(42));
}

}  // namespace
}  // namespace bsvc
