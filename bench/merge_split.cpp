// §2 scenarios: the architecture's reason to exist — pools of resources that
// merge, split, and recover from catastrophe "almost like a liquid
// substance".
//
// Scenario MERGE: two isolated pools (a FaultPlan cut from t=0) each
// bootstrap their own overlay; at a configured cycle the cut's window closes
// (the organizational merge) and the still-running gossip absorbs the other
// pool. Reported: per-pool convergence before the merge, global convergence
// after it.
//
// Scenario RECOVER: one pool converges, then 70% of the nodes fail
// catastrophically. Two cycles later (giving Newscast time to self-heal)
// the survivors re-run the bootstrap from scratch via the restart hook.
// Reported: cycles from restart to perfect tables among survivors.
#include <algorithm>
#include <cstdio>

#include "bench/bench_common.hpp"
#include "sim/scenario.hpp"

using namespace bsvc;
using namespace bsvc::bench;

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const std::size_t n =
      static_cast<std::size_t>(flags.get_int("n", static_cast<std::int64_t>(default_n(flags))));
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  // Accepted for run_suite.sh flag uniformity; the three scenarios share
  // engine state stagewise and run sequentially.
  (void)threads_flag(flags);
  BenchReport report(flags, "merge_split");
  const std::size_t shards = shards_flag(flags);
  apply_log_level_flag(flags);
  flags.finish();

  // ---------------- MERGE -------------------------------------------------
  std::printf("=== Merge: two pools of %zu nodes each ===\n", n / 2);
  {
    ExperimentConfig cfg;
    cfg.n = n;
    cfg.seed = seed;
    cfg.shards = shards;
    cfg.max_cycles = 60;
    cfg.stop_at_convergence = false;
    const std::size_t heal_cycle = 30;
    const SimTime heal_time =
        (cfg.warmup_cycles + heal_cycle) * cfg.bootstrap.delta;
    // Two genuinely independent pools from t=0 (separate Newscast seeding
    // and a cut between the halves) until the heal.
    cfg.fault_plan.partitions.push_back(
        {{0, heal_time}, PartitionSpec::Kind::Cut, static_cast<std::uint32_t>(n / 2)});
    BootstrapExperiment exp(cfg);
    Engine& engine = exp.engine();

    const auto newscast_slot = exp.newscast_slot();
    engine.schedule_call(heal_time, [n, newscast_slot](Engine& e) {
      // The organizational merge: a handful of pool-A nodes are handed
      // contacts in pool B; Newscast spreads them epidemically.
      for (int i = 0; i < 10; ++i) {
        const auto a = static_cast<Address>(e.rng().below(n / 2));
        const auto b = static_cast<Address>(n / 2 + e.rng().below(n / 2));
        newscast_slot.of(e, a).add_contact(e.descriptor_of(b), e.now());
      }
    });

    // Per-pool oracles for the pre-merge phase.
    std::vector<NodeDescriptor> pool_a, pool_b;
    for (Address a = 0; a < n; ++a) {
      (a < n / 2 ? pool_a : pool_b).push_back(engine.descriptor_of(a));
    }
    const ConvergenceOracle oracle_a(engine, pool_a, cfg.bootstrap, exp.bootstrap_slot());
    const ConvergenceOracle oracle_b(engine, pool_b, cfg.bootstrap, exp.bootstrap_slot());

    int pool_a_cycle = -1, pool_b_cycle = -1;
    std::printf("# columns: cycle  poolA_missing_leaf  poolB_missing_leaf  "
                "global_missing_leaf  global_missing_prefix\n");
    const auto result = exp.run([&](std::size_t cycle, const ConvergenceMetrics& global) {
      const auto ma = oracle_a.measure();
      const auto mb = oracle_b.measure();
      if (pool_a_cycle < 0 && ma.converged()) pool_a_cycle = static_cast<int>(cycle);
      if (pool_b_cycle < 0 && mb.converged()) pool_b_cycle = static_cast<int>(cycle);
      std::printf("%3zu  %.6g  %.6g  %.6g  %.6g\n", cycle, ma.missing_leaf_fraction(),
                  mb.missing_leaf_fraction(), global.missing_leaf_fraction(),
                  global.missing_prefix_fraction());
    });
    std::printf("# pool A perfect at cycle %d, pool B at %d (isolated bootstraps)\n",
                pool_a_cycle, pool_b_cycle);
    std::printf("# partition healed at cycle %zu; merged network perfect at cycle %d "
                "(merge took %d cycles)\n\n",
                heal_cycle, result.converged_cycle,
                result.converged_cycle - static_cast<int>(heal_cycle));
    report.add_run("merge", result);
    report.add_metric("merge_cycles",
                      static_cast<double>(result.converged_cycle - static_cast<int>(heal_cycle)));
  }

  // ---------------- MERGE, re-bootstrap variant ---------------------------
  // Same setup, but 3 cycles after the heal the administrator triggers a
  // fresh bootstrap at every node — the paper's "build all other overlays
  // on demand" mode. Measured: converges in about the same number of
  // cycles as the passive absorption above — the merge is bounded by how
  // fast Newscast interleaves the pools' samples, not by stale table
  // state, so both modes are equally viable.
  std::printf("=== Merge with on-demand re-bootstrap ===\n");
  {
    ExperimentConfig cfg;
    cfg.n = n;
    cfg.seed = seed;
    cfg.shards = shards;
    cfg.max_cycles = 60;
    cfg.stop_at_convergence = false;
    const std::size_t heal_cycle = 30;
    const std::size_t restart_cycle = heal_cycle + 3;
    const SimTime heal_time =
        (cfg.warmup_cycles + heal_cycle) * cfg.bootstrap.delta;
    cfg.fault_plan.partitions.push_back(
        {{0, heal_time}, PartitionSpec::Kind::Cut, static_cast<std::uint32_t>(n / 2)});
    BootstrapExperiment exp(cfg);
    Engine& engine = exp.engine();

    const auto newscast_slot = exp.newscast_slot();
    engine.schedule_call(heal_time, [n, newscast_slot](Engine& e) {
      for (int i = 0; i < 10; ++i) {
        const auto a = static_cast<Address>(e.rng().below(n / 2));
        const auto b = static_cast<Address>(n / 2 + e.rng().below(n / 2));
        newscast_slot.of(e, a).add_contact(e.descriptor_of(b), e.now());
      }
    });
    engine.schedule_call((cfg.warmup_cycles + restart_cycle) * cfg.bootstrap.delta,
                         [&exp](Engine& e) {
                           for (const Address a : e.alive_addresses()) {
                             e.schedule_timer(a, exp.bootstrap_slot(), e.rng().below(kDelta),
                                              BootstrapProtocol::kRestartTimer);
                           }
                         });
    const auto result = exp.run();
    std::printf("# healed at cycle %zu, re-bootstrap at %zu; union perfect at cycle %d "
                "(%d cycles after the restart)\n\n",
                heal_cycle, restart_cycle, result.converged_cycle,
                result.converged_cycle - static_cast<int>(restart_cycle));
    report.add_run("merge-rebootstrap", result);
  }

  // ---------------- RECOVER ----------------------------------------------
  std::printf("=== Catastrophic failure: 70%% of %zu nodes fail, survivors re-bootstrap ===\n",
              n);
  {
    ExperimentConfig cfg;
    cfg.n = n;
    cfg.seed = seed + 1;
    cfg.shards = shards;
    cfg.max_cycles = 110;
    cfg.stop_at_convergence = false;
    // Liveness maintenance (extension, DESIGN.md): without eviction, dead
    // descriptors surviving in Newscast views at restart time re-enter the
    // cleared tables and block the slots of their alive successors forever.
    cfg.bootstrap.liveness = LivenessPolicy::Evict;
    cfg.bootstrap.tombstone_ttl_cycles = 60;
    BootstrapExperiment exp(cfg);
    Engine& engine = exp.engine();

    const std::size_t kill_cycle = 25;
    const std::size_t restart_cycle = kill_cycle + 10;  // Newscast quarantine first
    const SimTime kill_time = (cfg.warmup_cycles + kill_cycle) * cfg.bootstrap.delta;
    schedule_catastrophe(engine, kill_time, 0.7);
    engine.schedule_call(
        (cfg.warmup_cycles + restart_cycle) * cfg.bootstrap.delta, [&exp](Engine& e) {
          for (const Address a : e.alive_addresses()) {
            e.schedule_timer(a, exp.bootstrap_slot(), e.rng().below(kDelta),
                             BootstrapProtocol::kRestartTimer);
          }
        });

    std::printf("# columns: cycle  alive  missing_leaf  missing_prefix (survivor oracle "
                "after the failure)\n");
    // Dead descriptors still circulating right after the kill can grab table
    // slots, so recovery is reported at quality thresholds as well as at
    // bit-perfect (-1 = not reached within the run).
    int recovered_1e2 = -1, recovered_1e3 = -1, recovered_perfect = -1;
    std::optional<ConvergenceOracle> oracle;
    oracle.emplace(engine, cfg.bootstrap, exp.bootstrap_slot());
    for (std::size_t cycle = 0; cycle < cfg.max_cycles; ++cycle) {
      engine.run_until((cfg.warmup_cycles + cycle + 1) * cfg.bootstrap.delta);
      if (cycle == kill_cycle) {
        oracle.emplace(engine, cfg.bootstrap, exp.bootstrap_slot());  // survivors only
      }
      const auto m = oracle->measure(/*check_liveness=*/true);
      std::printf("%3zu  %zu  %.6g  %.6g\n", cycle, engine.alive_count(),
                  m.missing_leaf_fraction(), m.missing_prefix_fraction());
      if (cycle > restart_cycle) {
        const double worst =
            std::max(m.missing_leaf_fraction(), m.missing_prefix_fraction());
        if (recovered_1e2 < 0 && worst <= 1e-2) recovered_1e2 = static_cast<int>(cycle);
        if (recovered_1e3 < 0 && worst <= 1e-3) recovered_1e3 = static_cast<int>(cycle);
        if (recovered_perfect < 0 && m.converged()) {
          recovered_perfect = static_cast<int>(cycle);
          break;
        }
      }
    }
    const auto final_m = oracle->measure(true);
    std::printf("# failure at cycle %zu, restart at %zu; survivors reach 99%% at cycle %d, "
                "99.9%% at %d, perfect at %d; final missing leaf %.2e prefix %.2e\n",
                kill_cycle, restart_cycle, recovered_1e2, recovered_1e3, recovered_perfect,
                final_m.missing_leaf_fraction(), final_m.missing_prefix_fraction());
    report.add_events(engine.events_dispatched());
    report.add_metric("recover_perfect_cycle", static_cast<double>(recovered_perfect));
  }
  report.write();
  return 0;
}
