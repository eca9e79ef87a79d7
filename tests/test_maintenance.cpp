// Tests for the liveness-maintenance extension (LivenessPolicy::Evict):
// probe/evict, death certificates, restart-based recovery, and massive-join
// absorption.
#include <gtest/gtest.h>

#include "core/experiment.hpp"
#include "sim/scenario.hpp"
#include "wire/message_codec.hpp"

namespace bsvc {
namespace {

ExperimentConfig base(std::size_t n, std::uint64_t seed) {
  ExperimentConfig cfg;
  cfg.n = n;
  cfg.seed = seed;
  cfg.max_cycles = 60;
  return cfg;
}

TEST(Maintenance, EvictionClearsDeadLeafEntries) {
  auto cfg = base(512, 1);
  cfg.bootstrap.liveness = LivenessPolicy::Evict;
  BootstrapExperiment exp(cfg);
  const auto initial = exp.run();
  ASSERT_GE(initial.converged_cycle, 0);

  // Kill 10% of the nodes, keep gossiping, and check the survivors purge
  // the dead entries from their leaf sets.
  auto& engine = exp.engine();
  for (Address a = 0; a < 51; ++a) engine.kill_node(a);
  engine.run_until(engine.now() + 30 * kDelta);

  std::size_t dead_leaf_entries = 0;
  std::size_t total_leaf_entries = 0;
  for (const Address a : engine.alive_addresses()) {
    for (const auto& d : exp.bootstrap_of(a).leaf_set().all()) {
      ++total_leaf_entries;
      if (!engine.is_alive(d.addr)) ++dead_leaf_entries;
    }
  }
  EXPECT_LT(static_cast<double>(dead_leaf_entries) / static_cast<double>(total_leaf_entries),
            0.005);
  // And the survivors' leaf sets re-converged to the survivor-perfect sets.
  const ConvergenceOracle oracle(engine, cfg.bootstrap, exp.bootstrap_slot());
  const auto m = oracle.measure(/*check_liveness=*/true);
  EXPECT_LT(m.missing_leaf_fraction(), 0.01);
}

TEST(Maintenance, WithoutEvictionDeadEntriesPersist) {
  auto cfg = base(512, 2);  // extension off: the paper's bare protocol
  BootstrapExperiment exp(cfg);
  ASSERT_GE(exp.run().converged_cycle, 0);
  auto& engine = exp.engine();
  for (Address a = 0; a < 51; ++a) engine.kill_node(a);
  engine.run_until(engine.now() + 30 * kDelta);
  std::size_t dead_leaf_entries = 0;
  for (const Address a : engine.alive_addresses()) {
    for (const auto& d : exp.bootstrap_of(a).leaf_set().all()) {
      dead_leaf_entries += engine.is_alive(d.addr) ? 0 : 1;
    }
  }
  EXPECT_GT(dead_leaf_entries, 100u);  // ~51 dead x ~20 holders, never cleaned
}

TEST(Maintenance, TombstonesTravelOnTheWire) {
  const BootstrapMessage msg({1, 1}, {}, {}, true);
  auto with_ts = std::make_unique<BootstrapMessage>(msg.sender, DescriptorList{},
                                                    DescriptorList{}, true);
  with_ts->tombstones = {{0xAAAA, 5000}, {0xBBBB, 9000}};
  const auto bytes = encode_message(*with_ts);
  ASSERT_TRUE(bytes.has_value());
  EXPECT_EQ(bytes->size() - 1, with_ts->wire_bytes());
  auto decoded = decode_message(*bytes);
  ASSERT_NE(decoded, nullptr);
  const auto& back = dynamic_cast<const BootstrapMessage&>(*decoded);  // test-only checked cast
  ASSERT_EQ(back.tombstones.size(), 2u);
  EXPECT_EQ(back.tombstones[0].id, 0xAAAAu);
  EXPECT_EQ(back.tombstones[0].expiry, 5000u);
  EXPECT_EQ(back.tombstones[1].id, 0xBBBBu);
}

TEST(Maintenance, RestartRecoversFromCatastrophe) {
  auto cfg = base(512, 3);
  cfg.bootstrap.liveness = LivenessPolicy::Evict;
  cfg.bootstrap.tombstone_ttl_cycles = 60;
  cfg.stop_at_convergence = false;
  cfg.max_cycles = 20;
  BootstrapExperiment exp(cfg);
  exp.run();  // initial convergence window
  auto& engine = exp.engine();

  schedule_catastrophe(engine, engine.now(), 0.7);
  engine.run_until(engine.now() + 8 * kDelta);  // Newscast quarantine
  for (const Address a : engine.alive_addresses()) {
    engine.schedule_timer(a, exp.bootstrap_slot(), engine.rng().below(kDelta),
                          BootstrapProtocol::kRestartTimer);
  }
  engine.run_until(engine.now() + 60 * kDelta);

  const ConvergenceOracle oracle(engine, cfg.bootstrap, exp.bootstrap_slot());
  const auto m = oracle.measure(/*check_liveness=*/true);
  EXPECT_LT(m.missing_leaf_fraction(), 0.05);
  EXPECT_LT(m.missing_prefix_fraction(), 0.05);
}

TEST(Maintenance, MassiveJoinAbsorbedToPerfection) {
  auto cfg = base(256, 4);
  BootstrapExperiment exp(cfg);
  ASSERT_GE(exp.run().converged_cycle, 0);
  auto& engine = exp.engine();
  for (int i = 0; i < 256; ++i) {
    const Address addr = exp.make_node();
    engine.start_node(addr, engine.rng().below(kDelta));
  }
  int absorbed = -1;
  for (int cycle = 0; cycle < 40; ++cycle) {
    engine.run_until(engine.now() + kDelta);
    const ConvergenceOracle oracle(engine, cfg.bootstrap, exp.bootstrap_slot());
    if (oracle.measure().converged()) {
      absorbed = cycle;
      break;
    }
  }
  ASSERT_GE(absorbed, 0);
  EXPECT_LE(absorbed, 30);
}

TEST(Maintenance, FalseTombstonesExpire) {
  // With heavy loss, live peers get condemned occasionally; after the TTL
  // they may return, and meanwhile the network keeps working.
  auto cfg = base(256, 5);
  cfg.bootstrap.liveness = LivenessPolicy::Evict;
  cfg.bootstrap.tombstone_ttl_cycles = 5;
  cfg.drop_probability = 0.2;
  cfg.stop_at_convergence = false;
  cfg.max_cycles = 60;
  BootstrapExperiment exp(cfg);
  const auto result = exp.run();
  // With 20% loss, a probe sequence of 3 attempts still misfires ~5% of the
  // time and the short-TTL certificates suppress the victims briefly; the
  // requirement is graceful degradation, not perfection — the bare protocol
  // (extension off) is what the lossy Figure 4 experiments use.
  const auto rows = result.series.rows();
  EXPECT_LT(result.series.at(rows - 1, 1), 0.15);
  EXPECT_LT(result.series.at(rows - 1, 2), 0.15);
}

}  // namespace
}  // namespace bsvc
