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

TEST(CoordinateSpace, ExtendAddsCoordinates) {
  CoordinateSpace space(5, Rng(3));
  space.extend(9);
  EXPECT_GT(space.latency(9, 0), 0u);
}

TEST(CoordinateSpace, InstallDrivesEngineTransport) {
  CoordinateSpace space(2, Rng(4), 1000.0, 200.0);
  TransportConfig t;
  t.min_latency = 1;  // the smallest lookahead: jitter is 0 or 1 tick
  Engine engine(5, t);
  engine.add_node(1);
  engine.add_node(2);
  space.install(engine);

  struct Probe final : public Payload {
    std::size_t wire_bytes() const override { return 1; }
    const char* type_name() const override { return "probe"; }
  };
  struct Sink final : public Protocol {
    SimTime delivered_at = 0;
    void on_message(Context& ctx, Address, const Payload&) override {
      delivered_at = ctx.now();
    }
  };
  engine.attach(1, std::make_unique<Sink>());
  engine.start_node(1);
  engine.send_message(0, 1, 0, std::make_unique<Probe>());
  engine.run_all();
  const auto& sink = dynamic_cast<const Sink&>(engine.protocol(1, 0));  // test-only checked cast
  EXPECT_GE(sink.delivered_at, space.latency(0, 1));
  EXPECT_LE(sink.delivered_at, space.latency(0, 1) + 1);
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
