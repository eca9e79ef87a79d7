#include "sim/scenario.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

namespace bsvc {
namespace {

class Inert final : public Protocol {};

std::unique_ptr<Engine> make_engine(std::size_t n, std::uint64_t seed = 1) {
  auto e = std::make_unique<Engine>(seed);
  for (std::size_t i = 0; i < n; ++i) {
    const Address a = e->add_node(static_cast<NodeId>(i + 1));
    e->attach(a, std::make_unique<Inert>());
    e->start_node(a);
  }
  return e;
}

TEST(Catastrophe, KillsRequestedFraction) {
  auto net = make_engine(1000);
  Engine& e = *net;
  schedule_catastrophe(e, 50, 0.7);
  e.run_until(100);
  EXPECT_EQ(e.alive_count(), 300u);
}

TEST(Catastrophe, ZeroAndFullFraction) {
  auto net = make_engine(100);
  Engine& e = *net;
  schedule_catastrophe(e, 10, 0.0);
  schedule_catastrophe(e, 20, 1.0);
  e.run_until(15);
  EXPECT_EQ(e.alive_count(), 100u);
  e.run_until(25);
  EXPECT_EQ(e.alive_count(), 0u);
}

TEST(Catastrophe, NothingHappensBeforeScheduledTime) {
  auto net = make_engine(100);
  Engine& e = *net;
  schedule_catastrophe(e, 1000, 0.5);
  e.run_until(999);
  EXPECT_EQ(e.alive_count(), 100u);
}

TEST(Churn, FailRateShrinksNetwork) {
  auto net = make_engine(2000, 3);
  Engine& e = *net;
  ChurnConfig cc;
  cc.from = 0;
  cc.to = 10 * kDelta;
  cc.period = kDelta;
  cc.fail_rate = 0.05;
  schedule_churn(e, cc, nullptr);
  e.run_until(cc.to + 1);
  // Ten periods of 5% failures: expect roughly 2000 * 0.95^10 ≈ 1197.
  EXPECT_NEAR(static_cast<double>(e.alive_count()), 2000.0 * std::pow(0.95, 10), 60.0);
}

TEST(Churn, JoinRateGrowsNetwork) {
  auto net = make_engine(1000, 4);
  Engine& e = *net;
  std::size_t created = 0;
  ChurnConfig cc;
  cc.from = 0;
  cc.to = 5 * kDelta;
  cc.period = kDelta;
  cc.join_rate = 0.1;
  schedule_churn(e, cc, [&created](Engine& eng) {
    ++created;
    const Address a = eng.add_node(static_cast<NodeId>(0x10000 + created));
    eng.attach(a, std::make_unique<Inert>());
    return a;
  });
  e.run_until(cc.to + kDelta);
  EXPECT_GT(created, 400u);  // ~1000 * (1.1^5 - 1) ≈ 610
  EXPECT_LT(created, 800u);
  EXPECT_EQ(e.alive_count(), 1000u + created);
}

TEST(Churn, StopsAtConfiguredEnd) {
  auto net = make_engine(1000, 5);
  Engine& e = *net;
  ChurnConfig cc;
  cc.from = 0;
  cc.to = 3 * kDelta;
  cc.period = kDelta;
  cc.fail_rate = 0.1;
  schedule_churn(e, cc, nullptr);
  e.run_until(20 * kDelta);
  const auto after_stop = e.alive_count();
  e.run_until(40 * kDelta);
  EXPECT_EQ(e.alive_count(), after_stop);
}

}  // namespace
}  // namespace bsvc
