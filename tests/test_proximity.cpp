#include "overlay/proximity.hpp"

#include <gtest/gtest.h>

#include "core/experiment.hpp"

namespace bsvc {
namespace {

TEST(CoordinateSpace, LatencyIsSymmetricAndBounded) {
  CoordinateSpace space(100, Rng(1), /*side=*/1000.0, /*base=*/10.0);
  for (Address a = 0; a < 100; ++a) {
    for (Address b = 0; b < 100; b += 7) {
      EXPECT_EQ(space.latency(a, b), space.latency(b, a));
      EXPECT_GE(space.latency(a, b), 10u);
      // base + diagonal of the plane
      EXPECT_LE(space.latency(a, b), 10u + 1415u);
    }
  }
}

TEST(CoordinateSpace, SelfLatencyIsBase) {
  CoordinateSpace space(10, Rng(2), 1000.0, 25.0);
  EXPECT_EQ(space.latency(3, 3), 25u);
}

struct ProxNet {
  BootstrapExperiment exp;
  CoordinateSpace space;
  ConvergenceOracle oracle;

  explicit ProxNet(int k)
      : exp(make_config(k)),
        space((exp.run(), exp.engine().node_count()), Rng(99)),
        oracle(exp.engine(), exp.config().bootstrap, exp.bootstrap_slot()) {}

  static ExperimentConfig make_config(int k) {
    ExperimentConfig cfg;
    cfg.n = 512;
    cfg.seed = 6;
    cfg.sampler = SamplerKind::Oracle;
    cfg.warmup_cycles = 0;
    cfg.max_cycles = 80;
    cfg.bootstrap.k = k;
    return cfg;
  }
};

TEST(ProximityRouter, BothPoliciesRouteCorrectly) {
  ProxNet net(3);
  Rng rng(7);
  for (const HopSelection sel : {HopSelection::First, HopSelection::Proximity}) {
    const ProximityRouter router(net.exp.engine(), net.exp.bootstrap_slot(), net.space, sel);
    const auto stats = router.run_lookups(net.oracle, rng, 300);
    EXPECT_EQ(stats.success_rate, 1.0);
    EXPECT_GT(stats.avg_route_latency, 0.0);
  }
}

TEST(ProximityRouter, ProximitySelectionReducesLatencyWithK3) {
  ProxNet net(3);
  Rng rng_a(8), rng_b(8);
  const ProximityRouter first(net.exp.engine(), net.exp.bootstrap_slot(), net.space,
                              HopSelection::First);
  const ProximityRouter prox(net.exp.engine(), net.exp.bootstrap_slot(), net.space,
                             HopSelection::Proximity);
  const auto s_first = first.run_lookups(net.oracle, rng_a, 1000);
  const auto s_prox = prox.run_lookups(net.oracle, rng_b, 1000);
  EXPECT_LT(s_prox.avg_route_latency, s_first.avg_route_latency * 0.95);
  // Hop counts stay in the same ballpark (selection never skips progress).
  EXPECT_NEAR(s_prox.avg_hops, s_first.avg_hops, 1.0);
}

TEST(ProximityRouter, NoGainWithK1) {
  ProxNet net(1);
  Rng rng_a(9), rng_b(9);
  const ProximityRouter first(net.exp.engine(), net.exp.bootstrap_slot(), net.space,
                              HopSelection::First);
  const ProximityRouter prox(net.exp.engine(), net.exp.bootstrap_slot(), net.space,
                             HopSelection::Proximity);
  const auto s_first = first.run_lookups(net.oracle, rng_a, 500);
  const auto s_prox = prox.run_lookups(net.oracle, rng_b, 500);
  // With a single entry per cell there is nothing to choose from.
  EXPECT_NEAR(s_prox.avg_route_latency, s_first.avg_route_latency,
              s_first.avg_route_latency * 0.02);
}

}  // namespace
}  // namespace bsvc
