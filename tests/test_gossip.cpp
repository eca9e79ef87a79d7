#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "gossip/aggregation.hpp"
#include "gossip/broadcast.hpp"
#include "sampling/oracle_sampler.hpp"

namespace bsvc {
namespace {

// Test fixture: n nodes with an oracle sampler at slot 0 and the protocol
// under test at slot 1.
// Heap-allocated: OracleSamplerProtocol instances hold a reference to the
// engine, so its address must be stable.
template <typename ProtoFactory>
std::unique_ptr<Engine> make_net(std::size_t n, std::uint64_t seed, ProtoFactory factory) {
  auto e = std::make_unique<Engine>(seed);
  std::vector<Address> addrs;
  for (std::size_t i = 0; i < n; ++i) addrs.push_back(e->add_node(static_cast<NodeId>(i + 1)));
  for (const Address a : addrs) {
    auto sampler = std::make_unique<OracleSamplerProtocol>(*e, a);
    auto* sampler_ptr = sampler.get();
    e->attach(a, std::move(sampler));
    e->attach(a, factory(a, sampler_ptr));
    e->start_node(a);
  }
  return e;
}

BroadcastProtocol& bcast(Engine& e, Address a) {
  return dynamic_cast<BroadcastProtocol&>(e.protocol(a, 1));  // test-only checked cast
}
AggregationProtocol& aggr(Engine& e, Address a) {
  return dynamic_cast<AggregationProtocol&>(e.protocol(a, 1));  // test-only checked cast
}

TEST(Broadcast, ReachesEveryNode) {
  constexpr std::size_t kN = 1024;
  auto net = make_net(kN, 1, [](Address, PeerSampler* s) {
    return std::make_unique<BroadcastProtocol>(BroadcastConfig{}, s);
  });
  Engine& e = *net;
  e.schedule_call(10, [](Engine& eng) {
    Context ctx(eng, 0, 1);
    bcast(eng, 0).seed(ctx, 42);
  });
  e.run_until(40 * kDelta);
  std::size_t infected = 0;
  for (Address a = 0; a < kN; ++a) infected += bcast(e, a).infected() ? 1 : 0;
  EXPECT_EQ(infected, kN);
}

TEST(Broadcast, SpreadTimeIsLogarithmic) {
  constexpr std::size_t kN = 4096;
  auto net = make_net(kN, 2, [](Address, PeerSampler* s) {
    return std::make_unique<BroadcastProtocol>(BroadcastConfig{}, s);
  });
  Engine& e = *net;
  e.schedule_call(0, [](Engine& eng) {
    Context ctx(eng, 0, 1);
    bcast(eng, 0).seed(ctx, 1);
  });
  e.run_until(60 * kDelta);
  SimTime latest = 0;
  for (Address a = 0; a < kN; ++a) {
    ASSERT_TRUE(bcast(e, a).infected());
    latest = std::max(latest, bcast(e, a).infected_at());
  }
  // SI gossip with fanout 2: coverage in ~log2(N) + tail periods.
  EXPECT_LT(latest, 25 * kDelta);
}

TEST(Broadcast, DeliveryCallbackFiresOncePerNode) {
  constexpr std::size_t kN = 128;
  std::vector<int> deliveries(kN, 0);
  auto net = make_net(kN, 3, [&deliveries](Address a, PeerSampler* s) {
    return std::make_unique<BroadcastProtocol>(
        BroadcastConfig{}, s,
        [&deliveries, a](Context&, std::uint64_t tag) {
          EXPECT_EQ(tag, 7u);
          ++deliveries[a];
        });
  });
  Engine& e = *net;
  e.schedule_call(0, [](Engine& eng) {
    Context ctx(eng, 5, 1);
    bcast(eng, 5).seed(ctx, 7);
  });
  e.run_until(40 * kDelta);
  for (std::size_t a = 0; a < kN; ++a) EXPECT_EQ(deliveries[a], 1) << a;
}

TEST(Broadcast, SurvivesMessageLoss) {
  constexpr std::size_t kN = 512;
  TransportConfig t;
  t.drop_probability = 0.2;
  Engine e(4, t);
  std::vector<Address> addrs;
  for (std::size_t i = 0; i < kN; ++i) addrs.push_back(e.add_node(static_cast<NodeId>(i + 1)));
  for (const Address a : addrs) {
    auto sampler = std::make_unique<OracleSamplerProtocol>(e, a);
    auto* sp = sampler.get();
    e.attach(a, std::move(sampler));
    BroadcastConfig bc;
    bc.hot_rounds = 6;  // extra redundancy under loss
    e.attach(a, std::make_unique<BroadcastProtocol>(bc, sp));
    e.start_node(a);
  }
  e.schedule_call(0, [](Engine& eng) {
    Context ctx(eng, 0, 1);
    bcast(eng, 0).seed(ctx, 1);
  });
  e.run_until(60 * kDelta);
  std::size_t infected = 0;
  for (Address a = 0; a < kN; ++a) infected += bcast(e, a).infected() ? 1 : 0;
  EXPECT_EQ(infected, kN);
}

TEST(Aggregation, ConvergesToGlobalAverage) {
  // Asynchronous push–pull is not mass-conserving (see
  // VarianceCollapsesExponentially): the nodes must reach consensus, but
  // its value drifts from the true mean by a seed-dependent amount (up to
  // ~1.8 over seeds 1–40). Allow 1% of the value range.
  constexpr std::size_t kN = 256;
  double expected = 0.0;
  auto net = make_net(kN, 5, [&expected](Address a, PeerSampler* s) {
    const double v = static_cast<double>(a);  // values 0..255, mean 127.5
    expected += v;
    return std::make_unique<AggregationProtocol>(AggregationConfig{}, s, v);
  });
  Engine& e = *net;
  expected /= static_cast<double>(kN);
  e.run_until(40 * kDelta);
  double lo = 1e18, hi = -1e18;
  for (Address a = 0; a < kN; ++a) {
    lo = std::min(lo, aggr(e, a).value());
    hi = std::max(hi, aggr(e, a).value());
    EXPECT_NEAR(aggr(e, a).value(), expected, 0.01 * 255.0) << a;
  }
  EXPECT_LT(hi - lo, 1e-3);
}

TEST(Aggregation, SizeEstimation) {
  constexpr std::size_t kN = 500;
  auto net = make_net(kN, 6, [](Address a, PeerSampler* s) {
    return std::make_unique<AggregationProtocol>(AggregationConfig{}, s, a == 0 ? 1.0 : 0.0);
  });
  Engine& e = *net;
  e.run_until(50 * kDelta);
  for (Address a = 0; a < kN; ++a) {
    EXPECT_NEAR(aggr(e, a).size_estimate(), 500.0, 50.0) << a;
  }
}

TEST(Aggregation, VarianceCollapsesExponentially) {
  // Asynchronous push–pull is not exactly mass-conserving (crossing
  // messages), but the variance must collapse by orders of magnitude and
  // the consensus value must stay near the true mean.
  constexpr std::size_t kN = 128;
  auto net = make_net(kN, 7, [](Address a, PeerSampler* s) {
    return std::make_unique<AggregationProtocol>(AggregationConfig{}, s,
                                                 a % 2 == 0 ? 10.0 : -10.0);
  });
  Engine& e = *net;
  const auto spread = [&]() {
    double lo = 1e18, hi = -1e18;
    for (Address a = 0; a < kN; ++a) {
      lo = std::min(lo, aggr(e, a).value());
      hi = std::max(hi, aggr(e, a).value());
    }
    return hi - lo;
  };
  e.run_until(2 * kDelta);
  const double early = spread();
  e.run_until(40 * kDelta);
  const double late = spread();
  EXPECT_LT(late, early / 100.0);
  for (Address a = 0; a < kN; ++a) {
    EXPECT_NEAR(aggr(e, a).value(), 0.0, 2.5);
  }
}

}  // namespace
}  // namespace bsvc
