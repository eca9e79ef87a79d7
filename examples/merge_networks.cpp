// Merging two organizations' overlays (paper §2: pools of resources should
// "freely and flexibly merge ... on demand").
//
// Two pools live in separate networks (a partition models the separate
// organizations). Each bootstraps its own perfect overlay. Then the
// partition heals — the organizational merge — and the still-running gossip
// absorbs both pools into one overlay covering the union, without any
// restart or administrator action.
//
//   $ ./merge_networks [--n 4096] [--seed 1]
#include <cmath>
#include <cstdio>

#include "common/flags.hpp"
#include "core/experiment.hpp"

using namespace bsvc;

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const std::size_t n = static_cast<std::size_t>(flags.get_int("n", 4096));
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  flags.finish();

  ExperimentConfig cfg;
  cfg.n = n;
  cfg.seed = seed;
  cfg.max_cycles = 100;
  cfg.stop_at_convergence = false;
  // The partition between the organizations: a cut at n/2 from t=0 whose
  // window closes at the merge.
  const std::size_t heal_cycle = 30;
  const SimTime heal_time = (cfg.warmup_cycles + heal_cycle) * cfg.bootstrap.delta;
  cfg.fault_plan.partitions.push_back(
      {{0, heal_time}, PartitionSpec::Kind::Cut, static_cast<std::uint32_t>(n / 2)});
  BootstrapExperiment exp(cfg);
  Engine& engine = exp.engine();

  std::printf("Organizations A and B: %zu nodes each, isolated networks.\n", n / 2);

  const auto newscast_slot = exp.newscast_slot();
  engine.schedule_call(heal_time, [n, newscast_slot](Engine& e) {
    std::printf("  >>> networks connected (merge!) — 10 cross-pool "
                "contacts handed out <<<\n");
    for (int i = 0; i < 10; ++i) {
      const auto a = static_cast<Address>(e.rng().below(n / 2));
      const auto b = static_cast<Address>(n / 2 + e.rng().below(n / 2));
      dynamic_cast<NewscastProtocol&>(e.protocol(a, newscast_slot))
          .add_contact(e.descriptor_of(b), e.now());
    }
  });

  std::vector<NodeDescriptor> pool_a, pool_b;
  for (Address a = 0; a < n; ++a) {
    (a < n / 2 ? pool_a : pool_b).push_back(engine.descriptor_of(a));
  }
  const ConvergenceOracle oracle_a(engine, pool_a, cfg.bootstrap, exp.bootstrap_slot());
  const ConvergenceOracle oracle_b(engine, pool_b, cfg.bootstrap, exp.bootstrap_slot());

  int a_done = -1, b_done = -1;
  const auto result = exp.run([&](std::size_t cycle, const ConvergenceMetrics& global) {
    if (a_done < 0 && oracle_a.measure().converged()) {
      a_done = static_cast<int>(cycle);
      std::printf("  cycle %2zu: organization A's overlay is perfect\n", cycle);
    }
    if (b_done < 0 && oracle_b.measure().converged()) {
      b_done = static_cast<int>(cycle);
      std::printf("  cycle %2zu: organization B's overlay is perfect\n", cycle);
    }
    if (cycle > heal_cycle && cycle % 5 == 0) {
      std::printf("  cycle %2zu: merged overlay missing leaf %.2e, prefix %.2e\n", cycle,
                  global.missing_leaf_fraction(), global.missing_prefix_fraction());
    }
  });

  if (result.converged_cycle < 0) {
    std::printf("merge did not complete within %zu cycles\n", cfg.max_cycles);
    return 1;
  }
  std::printf("\nMerged %zu+%zu-node overlay perfect at cycle %d — %d cycles after the "
              "networks connected (log2 of the union: %.1f).\n",
              n / 2, n / 2, result.converged_cycle,
              result.converged_cycle - static_cast<int>(heal_cycle),
              std::log2(static_cast<double>(n)));
  std::printf("No restart, no coordinator: the running gossip simply absorbed the union.\n");
  return 0;
}
