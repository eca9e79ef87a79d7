// The Jacobson/Karn RTT estimator and the bounded-backoff retry policy
// (common/rtt.hpp): seeding, gains, clamping, loss backoff, and the
// determinism of the jittered retry schedule.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "common/rtt.hpp"

using namespace bsvc;

namespace {

RttConfig wide_config() {
  RttConfig c;
  c.initial_timeout = 400;
  c.min_timeout = 1;
  c.max_timeout = 1'000'000;
  return c;
}

TEST(RttEstimator, UsesInitialTimeoutBeforeFirstSample) {
  RttEstimator est(wide_config());
  EXPECT_FALSE(est.has_sample());
  EXPECT_EQ(est.timeout(), 400u);
}

TEST(RttEstimator, FirstSampleSeedsSrttAndHalfVariance) {
  RttEstimator est(wide_config());
  est.on_sample(200);
  EXPECT_TRUE(est.has_sample());
  EXPECT_EQ(est.srtt(), 200u);
  EXPECT_EQ(est.rttvar(), 100u);
  EXPECT_EQ(est.samples(), 1u);
  // timeout = srtt + 4 * rttvar = 200 + 400.
  EXPECT_EQ(est.timeout(), 600u);
}

TEST(RttEstimator, AppliesJacobsonGainsOnLaterSamples) {
  RttEstimator est(wide_config());
  est.on_sample(160);  // srtt 160, rttvar 80
  est.on_sample(240);  // err 80: rttvar = (3*80 + 80)/4 = 80, srtt = (7*160+240)/8 = 170
  EXPECT_EQ(est.srtt(), 170u);
  EXPECT_EQ(est.rttvar(), 80u);
  EXPECT_EQ(est.timeout(), 170u + 4 * 80u);
}

TEST(RttEstimator, ConvergesTowardsSteadyRtt) {
  RttEstimator est(wide_config());
  for (int i = 0; i < 200; ++i) est.on_sample(100);
  EXPECT_EQ(est.srtt(), 100u);
  EXPECT_EQ(est.rttvar(), 0u);
  // Fully converged on a constant path the timeout collapses to srtt
  // (clamped by min_timeout in real configs).
  EXPECT_EQ(est.timeout(), 100u);
}

TEST(RttEstimator, TimeoutIsClampedToConfiguredBounds) {
  RttConfig c;
  c.initial_timeout = 400;
  c.min_timeout = 150;
  c.max_timeout = 500;
  RttEstimator est(c);
  for (int i = 0; i < 100; ++i) est.on_sample(10);
  EXPECT_EQ(est.timeout(), 150u);  // floor
  for (int i = 0; i < 100; ++i) est.on_sample(100'000);
  EXPECT_EQ(est.timeout(), 500u);  // ceiling
}

TEST(RttEstimator, TimeoutDoublesPerLossAndResetsOnCleanSample) {
  RttEstimator est(wide_config());
  est.on_sample(100);  // timeout 300
  const std::uint64_t base = est.timeout();
  est.on_timeout();
  EXPECT_EQ(est.timeout(), 2 * base);
  est.on_timeout();
  EXPECT_EQ(est.timeout(), 4 * base);
  // A clean sample clears the backoff (the sample also tightens rttvar:
  // err 0 gives rttvar (3*50+0)/4 = 37, so timeout 100 + 4*37).
  est.on_sample(100);
  EXPECT_EQ(est.timeout(), 248u);
}

TEST(RttEstimator, BackoffSaturatesAtMaxTimeout) {
  RttConfig c = wide_config();
  c.max_timeout = 2000;
  RttEstimator est(c);
  est.on_sample(100);
  for (int i = 0; i < 40; ++i) est.on_timeout();  // far past the cap
  EXPECT_EQ(est.timeout(), 2000u);
}

TEST(RetryPolicy, DelayGrowsExponentiallyWithoutJitter) {
  RetryPolicy p;
  p.backoff = 2.0;
  p.jitter = 0.0;
  Rng rng(1);
  EXPECT_EQ(p.delay(1, 100, rng), 100u);
  EXPECT_EQ(p.delay(2, 100, rng), 200u);
  EXPECT_EQ(p.delay(3, 100, rng), 400u);
  EXPECT_EQ(p.delay(4, 100, rng), 800u);
}

TEST(RetryPolicy, JitterStaysWithinFractionAndIsDeterministic) {
  RetryPolicy p;
  p.backoff = 2.0;
  p.jitter = 0.25;
  Rng a(42), b(42);
  for (int attempt = 1; attempt <= 6; ++attempt) {
    const std::uint64_t da = p.delay(attempt, 1000, a);
    const std::uint64_t db = p.delay(attempt, 1000, b);
    EXPECT_EQ(da, db) << "same stream, same draw";
    const std::uint64_t pure = 1000u << (attempt - 1);
    EXPECT_GE(da, pure);
    EXPECT_LE(da, pure + pure / 4);
  }
}

TEST(RetryPolicy, NeverReturnsZeroDelay) {
  RetryPolicy p;
  p.backoff = 2.0;
  p.jitter = 0.0;
  Rng rng(7);
  EXPECT_GE(p.delay(1, 0, rng), 1u);
}

}  // namespace
