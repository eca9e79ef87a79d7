// Cross-module integration scenarios: combinations of features the
// module-level suites exercise in isolation.
#include <gtest/gtest.h>

#include "core/experiment.hpp"
#include "overlay/chord.hpp"
#include "overlay/pastry_router.hpp"
#include "sampling/oracle_sampler.hpp"
#include "wire/message_codec.hpp"

namespace bsvc {
namespace {

TEST(Integration, WireTranscoderPlusDropPlusChurn) {
  // Everything at once: binary round-trip on every message, 10% loss, and
  // continuous churn — the protocol must stay functional.
  ExperimentConfig cfg;
  cfg.n = 512;
  cfg.seed = 21;
  cfg.max_cycles = 40;
  cfg.drop_probability = 0.1;
  cfg.churn_fail_rate = 0.002;
  cfg.churn_join_rate = 0.002;
  cfg.stop_at_convergence = false;
  cfg.bootstrap.liveness = LivenessPolicy::Evict;
  BootstrapExperiment exp(cfg);
  exp.engine().set_transcoder(wire_roundtrip_transcoder());
  const auto result = exp.run();
  ASSERT_EQ(result.series.rows(), 40u);
  EXPECT_LT(result.series.at(39, 1), 0.25);
  EXPECT_LT(result.series.at(39, 2), 0.25);
}

TEST(Integration, ChordSurvivesWireRoundtrip) {
  Engine engine(23);
  IdGenerator ids{Rng(99)};
  constexpr std::size_t kN = 256;
  for (std::size_t i = 0; i < kN; ++i) engine.add_node(ids.next());
  for (Address a = 0; a < kN; ++a) {
    auto sampler = std::make_unique<OracleSamplerProtocol>(engine, a);
    auto* sp = sampler.get();
    engine.attach(a, std::move(sampler));
    engine.attach(a, std::make_unique<ChordBootstrapProtocol>(sp, engine.rng().below(kDelta)));
    engine.start_node(a);
  }
  engine.set_transcoder(wire_roundtrip_transcoder());
  const ChordOracle oracle(engine, SlotRef<ChordBootstrapProtocol>::assume(1));
  engine.run_until(40 * kDelta);
  EXPECT_TRUE(oracle.measure().fingers_converged());
}

TEST(Integration, TwoPoolMergeEndToEnd) {
  constexpr std::size_t kN = 512;
  ExperimentConfig cfg;
  cfg.n = kN;
  cfg.seed = 24;
  cfg.max_cycles = 90;
  cfg.stop_at_convergence = true;
  // Two pools cut apart from t=0 until the merge at bootstrap cycle 25.
  const SimTime heal_time = (cfg.warmup_cycles + 25) * cfg.bootstrap.delta;
  cfg.fault_plan.partitions.push_back(
      {{0, heal_time}, PartitionSpec::Kind::Cut, static_cast<std::uint32_t>(kN / 2)});
  BootstrapExperiment exp(cfg);
  Engine& engine = exp.engine();
  const auto newscast_slot = exp.newscast_slot();
  engine.schedule_call(heal_time, [newscast_slot](Engine& e) {
    for (int i = 0; i < 8; ++i) {
      const auto a = static_cast<Address>(e.rng().below(kN / 2));
      const auto b = static_cast<Address>(kN / 2 + e.rng().below(kN / 2));
      dynamic_cast<NewscastProtocol&>(e.protocol(a, newscast_slot))  // test-only checked cast
          .add_contact(e.descriptor_of(b), e.now());
    }
  });
  const auto result = exp.run();
  ASSERT_GE(result.converged_cycle, 25);
  // Lookups across the former partition boundary succeed.
  const ConvergenceOracle oracle(engine, cfg.bootstrap, exp.bootstrap_slot());
  const PastryRouter router(engine, exp.bootstrap_slot());
  Rng rng(7);
  std::size_t cross_correct = 0;
  for (int i = 0; i < 100; ++i) {
    const Address start = static_cast<Address>(rng.below(kN / 2));          // pool A
    const Address target = static_cast<Address>(kN / 2 + rng.below(kN / 2));  // pool B
    const auto r = router.route(start, engine.id_of(target), oracle);
    cross_correct += (r.delivered && r.root == target) ? 1 : 0;
  }
  EXPECT_EQ(cross_correct, 100u);
}

TEST(Integration, RepeatedRestartsAreIdempotentOnStableMembership) {
  ExperimentConfig cfg;
  cfg.n = 256;
  cfg.seed = 25;
  cfg.max_cycles = 40;
  BootstrapExperiment exp(cfg);
  ASSERT_GE(exp.run().converged_cycle, 0);
  auto& engine = exp.engine();
  // Restart everyone twice in a row; with unchanged membership the network
  // must return to perfection quickly each time.
  for (int round = 0; round < 2; ++round) {
    for (const Address a : engine.alive_addresses()) {
      engine.schedule_timer(a, exp.bootstrap_slot(), engine.rng().below(kDelta),
                            BootstrapProtocol::kRestartTimer);
    }
    engine.run_until(engine.now() + 25 * kDelta);
    const ConvergenceOracle oracle(engine, cfg.bootstrap, exp.bootstrap_slot());
    EXPECT_TRUE(oracle.measure().converged()) << "round " << round;
  }
}

}  // namespace
}  // namespace bsvc
