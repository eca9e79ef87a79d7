// The workload layer: KV put/get over the bootstrapped overlay, replica
// placement, prefix broadcast coverage, and the cross-K determinism of the
// aggregated summaries.
#include <gtest/gtest.h>

#include "core/experiment.hpp"
#include "core/oracle.hpp"
#include "workload/driver.hpp"

using namespace bsvc;

namespace {

/// One converged small network with the workload stack on every node.
struct WorkloadFixture {
  explicit WorkloadFixture(ExperimentConfig cfg, WorkloadParams params = {})
      : stack(params) {
    cfg.stop_at_convergence = false;
    cfg.node_extension = stack.node_extension();
    exp = std::make_unique<BootstrapExperiment>(cfg);
    stack.bind_registry(exp->engine().metrics());
  }

  Engine& engine() { return exp->engine(); }

  /// Issues one request from `origin` in barrier context; returns the id.
  std::uint64_t issue(Address origin, KvOp op, NodeId key) {
    std::uint64_t id = 0;
    engine().schedule_call(0, [&, origin, op, key](Engine& e) {
      Context ctx(e, origin, stack.slot());
      id = stack.service(e, origin).begin_kv(ctx, op, key, 32);
    });
    engine().run_until(engine().now() + 1);
    return id;
  }

  /// Runs until every issued request resolved (answer or timeout).
  void quiesce() { engine().run_until(engine().now() + 3 * kDelta); }

  WorkloadStack stack;
  std::unique_ptr<BootstrapExperiment> exp;
};

ExperimentConfig small_config(std::size_t n = 64, std::uint64_t seed = 7) {
  ExperimentConfig cfg;
  cfg.n = n;
  cfg.seed = seed;
  cfg.max_cycles = 12;
  return cfg;
}

TEST(Workload, PutThenGetFindsKeyAtOracleOwner) {
  WorkloadFixture fix(small_config());
  fix.exp->run();  // converge first
  const NodeId key = 0xABCDEF0123456789ull;

  EXPECT_NE(fix.issue(5, KvOp::Put, key), 0u);
  fix.quiesce();
  WorkloadSummary s = fix.stack.log().summary();
  EXPECT_EQ(s.put_ok, 1u);
  EXPECT_EQ(s.timeouts, 0u);

  // The put landed exactly at the oracle's owner of the key.
  const ConvergenceOracle oracle(fix.engine(), fix.exp->config().bootstrap,
                                 fix.exp->bootstrap_slot());
  const Address root = oracle.owner_of(key).addr;
  EXPECT_TRUE(fix.stack.service(fix.engine(), root).has_key(key));

  // A get from a different node routes to the same root and finds it.
  EXPECT_NE(fix.issue(41, KvOp::Get, key), 0u);
  fix.quiesce();
  s = fix.stack.log().summary();
  EXPECT_EQ(s.get_ok, 1u);
  EXPECT_EQ(s.get_found, 1u);
  EXPECT_EQ(s.get_miss, 0u);
  EXPECT_EQ(s.unroutable, 0u);
}

TEST(Workload, GetForUnknownKeyIsAnsweredAsMiss) {
  WorkloadFixture fix(small_config());
  fix.exp->run();
  EXPECT_NE(fix.issue(3, KvOp::Get, 0x1234ull), 0u);
  fix.quiesce();
  const WorkloadSummary s = fix.stack.log().summary();
  EXPECT_EQ(s.get_ok, 1u);
  EXPECT_EQ(s.get_found, 0u);
  EXPECT_EQ(s.get_miss, 1u);
  EXPECT_EQ(s.timeouts, 0u);
}

TEST(Workload, PutPlacesReplicasOnLeafSetNeighbours) {
  WorkloadFixture fix(small_config());
  fix.exp->run();
  const NodeId key = 0x5555AAAA5555AAAAull;
  fix.issue(0, KvOp::Put, key);
  fix.quiesce();

  // Root copy + two replica copies on its closest alive leaf-set neighbours.
  constexpr std::size_t kReplicas = 2;
  const ConvergenceOracle oracle(fix.engine(), fix.exp->config().bootstrap,
                                 fix.exp->bootstrap_slot());
  const Address root = oracle.owner_of(key).addr;
  std::size_t copies = 0;
  for (Address a = 0; a < fix.engine().node_count(); ++a) {
    if (fix.stack.service(fix.engine(), a).has_key(key)) ++copies;
  }
  EXPECT_EQ(copies, 1 + kReplicas);
  const auto& leaf =
      fix.exp->bootstrap_slot().of(fix.engine(), root).leaf_set();
  std::size_t on_leaf = 0;
  for (const NodeDescriptor& d : leaf.sorted_by_ring_distance()) {
    if (d.addr != root && fix.stack.service(fix.engine(), d.addr).has_key(key)) {
      ++on_leaf;
    }
  }
  EXPECT_EQ(on_leaf, kReplicas);
}

TEST(Workload, RequestBeforeBootstrapActivationIsUnroutable) {
  WorkloadFixture fix(small_config());
  // No run(): the engine sits at t = 0, inside the Newscast warmup, where
  // the bootstrap protocol is not active on any node yet.
  EXPECT_EQ(fix.issue(1, KvOp::Put, 0x42ull), 0u);
  const WorkloadSummary s = fix.stack.log().summary();
  EXPECT_EQ(s.puts, 1u);
  EXPECT_EQ(s.unroutable, 1u);
  EXPECT_EQ(s.answered(), 0u);
}

TEST(Workload, RequestsAcrossPartitionCutTimeOut) {
  ExperimentConfig cfg = small_config();
  cfg.bootstrap.liveness = LivenessPolicy::Evict;
  cfg.bootstrap.tombstone_ttl_cycles = 5;
  const SimTime delta = cfg.bootstrap.delta;
  const SimTime epoch = cfg.warmup_cycles * delta;
  PartitionSpec cut;
  // Cut lasts to the end of the run: converged tables, then a hard split.
  cut.window = {epoch + 8 * delta, epoch + 64 * delta};
  cut.kind = PartitionSpec::Kind::Cut;
  cut.value = static_cast<std::uint32_t>(cfg.n / 2);
  cfg.fault_plan.partitions.push_back(cut);

  WorkloadFixture fix(cfg);
  WorkloadDriver driver(fix.stack, [&] {
    DriverConfig dc;
    dc.from = epoch + 9 * delta;  // mid-cut
    dc.to = epoch + 11 * delta;
    dc.batch = 8;
    dc.seed = 3;
    return dc;
  }());
  driver.start(fix.engine());
  fix.exp->run();
  fix.quiesce();
  const WorkloadSummary s = fix.stack.log().summary();
  ASSERT_GT(s.issued(), 0u);
  // Requests whose key is owned across the cut die at the boundary and time
  // out at the origin; same-side requests still complete.
  EXPECT_GT(s.timeouts, 0u);
  EXPECT_GT(s.answered(), 0u);
  EXPECT_EQ(s.issued(), s.answered() + s.timeouts + s.unroutable);
}

TEST(Workload, BroadcastReachesEveryLiveNodeExactlyOnceAfterPartitionHeal) {
  ExperimentConfig cfg = small_config();
  cfg.max_cycles = 48;
  cfg.bootstrap.liveness = LivenessPolicy::Evict;
  cfg.bootstrap.tombstone_ttl_cycles = 5;
  const SimTime delta = cfg.bootstrap.delta;
  const SimTime epoch = cfg.warmup_cycles * delta;
  PartitionSpec cut;
  // A short cut: long enough for evictions to bite, short enough that the
  // halves keep cross links and genuinely re-merge after the heal. (A cut
  // held until eviction completes splits Newscast views too and the halves
  // never rejoin — at this scale that is permanent, not slow.)
  cut.window = {epoch + 4 * delta, epoch + 8 * delta};
  cut.kind = PartitionSpec::Kind::Cut;
  cut.value = static_cast<std::uint32_t>(cfg.n / 2);
  cfg.fault_plan.partitions.push_back(cut);

  WorkloadFixture fix(cfg);
  WorkloadDriver driver(fix.stack, DriverConfig{});
  const auto result = fix.exp->run();
  // The overlay must have re-converged after the heal — full coverage is
  // only structurally guaranteed over perfect tables.
  ASSERT_EQ(result.final_metrics.missing_leaf_fraction(), 0.0);
  ASSERT_EQ(result.final_metrics.missing_prefix_fraction(), 0.0);

  driver.schedule_cast(fix.engine(), fix.engine().now());
  driver.schedule_cast(fix.engine(), fix.engine().now() + delta);
  fix.quiesce();
  const auto cov = driver.verify_casts(fix.engine());
  EXPECT_EQ(cov.casts, 2u);
  EXPECT_EQ(cov.expected, 2 * cfg.n);
  EXPECT_EQ(cov.reached, cov.expected);  // every live node got a copy...
  EXPECT_EQ(cov.duplicates, 0u);         // ...exactly once
  const WorkloadSummary s = fix.stack.log().summary();
  EXPECT_EQ(s.cast_delivered, 2 * cfg.n);
  EXPECT_EQ(s.cast_duplicates, 0u);
}

/// Drives the bench's churn-flavoured scenario at shard count K and returns
/// the deterministic aggregates.
std::pair<WorkloadSummary, WorkloadDriver::CastCoverage> run_at_shards(std::size_t k) {
  ExperimentConfig cfg = small_config(128, 11);
  cfg.shards = k;
  cfg.max_cycles = 20;
  cfg.churn_fail_rate = 0.02;
  cfg.churn_join_rate = 0.02;
  cfg.bootstrap.liveness = LivenessPolicy::Evict;
  const SimTime delta = cfg.bootstrap.delta;
  const SimTime epoch = cfg.warmup_cycles * delta;

  WorkloadFixture fix(cfg);
  WorkloadDriver driver(fix.stack, [&] {
    DriverConfig dc;
    dc.from = epoch + 2 * delta;
    dc.to = epoch + 14 * delta;
    dc.batch = 4;
    dc.seed = 9;
    return dc;
  }());
  driver.start(fix.engine());
  driver.schedule_cast(fix.engine(), epoch + 15 * delta);
  fix.exp->run();
  fix.quiesce();
  return {fix.stack.log().summary(), driver.verify_casts(fix.engine())};
}

TEST(Workload, SummariesAreIdenticalAcrossShardCounts) {
  const auto [base, base_cov] = run_at_shards(1);
  ASSERT_GT(base.issued(), 0u);
  ASSERT_GT(base.answered(), 0u);
  for (const std::size_t k : {std::size_t{2}, std::size_t{4}}) {
    const auto [s, cov] = run_at_shards(k);
    EXPECT_EQ(s.puts, base.puts) << "K=" << k;
    EXPECT_EQ(s.gets, base.gets) << "K=" << k;
    EXPECT_EQ(s.put_ok, base.put_ok) << "K=" << k;
    EXPECT_EQ(s.get_ok, base.get_ok) << "K=" << k;
    EXPECT_EQ(s.get_found, base.get_found) << "K=" << k;
    EXPECT_EQ(s.get_miss, base.get_miss) << "K=" << k;
    EXPECT_EQ(s.timeouts, base.timeouts) << "K=" << k;
    EXPECT_EQ(s.unroutable, base.unroutable) << "K=" << k;
    EXPECT_EQ(s.rtt_count, base.rtt_count) << "K=" << k;
    // Bit-exact, not approximate: identical trajectories produce identical
    // histogram contents, hence identical derived doubles.
    EXPECT_EQ(s.rtt_mean, base.rtt_mean) << "K=" << k;
    EXPECT_EQ(s.rtt_max, base.rtt_max) << "K=" << k;
    EXPECT_EQ(s.rtt_p50, base.rtt_p50) << "K=" << k;
    EXPECT_EQ(s.rtt_p95, base.rtt_p95) << "K=" << k;
    EXPECT_EQ(s.rtt_p99, base.rtt_p99) << "K=" << k;
    EXPECT_EQ(s.hops_mean, base.hops_mean) << "K=" << k;
    EXPECT_EQ(s.hops_max, base.hops_max) << "K=" << k;
    EXPECT_EQ(s.casts, base.casts) << "K=" << k;
    EXPECT_EQ(s.cast_delivered, base.cast_delivered) << "K=" << k;
    EXPECT_EQ(s.cast_duplicates, base.cast_duplicates) << "K=" << k;
    EXPECT_EQ(s.cast_forwards, base.cast_forwards) << "K=" << k;
    EXPECT_EQ(cov.expected, base_cov.expected) << "K=" << k;
    EXPECT_EQ(cov.reached, base_cov.reached) << "K=" << k;
    EXPECT_EQ(cov.duplicates, base_cov.duplicates) << "K=" << k;
  }
}

// --- retry / hedging extension ---------------------------------------------

TEST(WorkloadRetry, RetriesRecoverRequestsAcrossTransientCut) {
  // A 2-cycle hard cut opens mid-issue: without retries the cross-cut
  // requests would die at the boundary and time out (the test above proves
  // exactly that for a permanent cut); with the retry layer every request is
  // retransmitted past the heal and completes.
  ExperimentConfig cfg = small_config();
  cfg.max_cycles = 24;
  const SimTime delta = cfg.bootstrap.delta;
  const SimTime epoch = cfg.warmup_cycles * delta;
  PartitionSpec cut;
  cut.window = {epoch + 8 * delta, epoch + 10 * delta};
  cut.kind = PartitionSpec::Kind::Cut;
  cut.value = static_cast<std::uint32_t>(cfg.n / 2);
  cfg.fault_plan.partitions.push_back(cut);

  WorkloadParams wp;
  wp.retry = true;
  wp.retry_budget = 5;
  wp.retry_backoff = 1.5;
  WorkloadFixture fix(cfg, wp);
  WorkloadDriver driver(fix.stack, [&] {
    DriverConfig dc;
    dc.from = epoch + 8 * delta + 100;  // inside the cut
    dc.to = epoch + 9 * delta;
    dc.batch = 8;
    dc.seed = 3;
    return dc;
  }());
  driver.start(fix.engine());
  fix.exp->run();
  fix.engine().run_until(fix.engine().now() + 10 * delta);  // retry tail
  const WorkloadSummary s = fix.stack.log().summary();
  ASSERT_GT(s.issued(), 0u);
  EXPECT_GT(s.kv_retries, 0u);  // the cut actually forced retransmissions
  EXPECT_EQ(s.timeouts, 0u);    // ...and every one of them recovered
  EXPECT_EQ(s.answered(), s.issued());
  // Nothing left half-resolved on any node.
  for (Address a = 0; a < cfg.n; ++a) {
    EXPECT_EQ(fix.stack.service(fix.engine(), a).pending_requests(), 0u);
  }
}

TEST(WorkloadRetry, HedgedGetsFireUnderLatencySpike) {
  // A latency spike slows every answer past the hedge delay: hedge copies
  // go out over alternate first hops, and every get still completes.
  ExperimentConfig cfg = small_config();
  cfg.max_cycles = 20;
  const SimTime delta = cfg.bootstrap.delta;
  const SimTime epoch = cfg.warmup_cycles * delta;
  LatencySpec spike;
  spike.window = {epoch + 8 * delta, epoch + 12 * delta};
  spike.mode = LatencySpec::Mode::Spike;
  spike.add = delta / 2;
  cfg.fault_plan.latency.push_back(spike);

  WorkloadParams wp;
  wp.hedge_delay = delta / 4;
  WorkloadFixture fix(cfg, wp);
  WorkloadDriver driver(fix.stack, [&] {
    DriverConfig dc;
    dc.from = epoch + 8 * delta + 50;
    dc.to = epoch + 10 * delta;
    dc.batch = 8;
    dc.put_fraction = 0.0;  // gets only: every request can hedge
    dc.seed = 5;
    return dc;
  }());
  driver.start(fix.engine());
  fix.exp->run();
  fix.engine().run_until(fix.engine().now() + 6 * delta);
  const WorkloadSummary s = fix.stack.log().summary();
  ASSERT_GT(s.issued(), 0u);
  EXPECT_GT(s.hedges_sent, 0u);
  EXPECT_EQ(s.answered(), s.issued());
  EXPECT_EQ(s.timeouts, 0u);
}

TEST(WorkloadRetry, CastRedelegationSurvivesForwardLoss) {
  // A lossy window during a broadcast: with the per-cell ack handshake on,
  // silent delegates are re-delegated to alternates of the same cell and
  // the cast still reaches every node.
  ExperimentConfig cfg = small_config(96, 17);
  cfg.max_cycles = 24;
  const SimTime delta = cfg.bootstrap.delta;
  const SimTime epoch = cfg.warmup_cycles * delta;
  LinkLossSpec loss;
  loss.window = {epoch + 12 * delta, epoch + 16 * delta};
  loss.drop_probability = 0.25;
  cfg.fault_plan.link_loss.push_back(loss);

  WorkloadParams wp;
  wp.cast_retries = 4;
  WorkloadFixture fix(cfg, wp);
  WorkloadDriver driver(fix.stack, DriverConfig{});
  // Mid-loss, close enough to the heal that the bounded retry tail (five
  // transmissions, ack timeout delta/2) reaches past the window end.
  driver.schedule_cast(fix.engine(), epoch + 14 * delta);
  fix.exp->run();
  fix.engine().run_until(fix.engine().now() + 6 * delta);
  const WorkloadSummary s = fix.stack.log().summary();
  EXPECT_GT(s.cast_redelegations, 0u);  // losses actually hit forwards
  const auto cov = driver.verify_casts(fix.engine());
  EXPECT_EQ(cov.casts, 1u);
  // Retried delegation recovers full coverage; a lost ack may produce a
  // duplicate delivery (absorbed and counted, never double-processed).
  EXPECT_EQ(cov.reached, cov.expected);
}

/// The churn scenario of run_at_shards with the whole robustness layer on
/// (adaptive timeouts, retries, hedging, cast acks, and the bootstrap's
/// Adaptive liveness policy) plus loss and latency windows to exercise it.
std::pair<WorkloadSummary, WorkloadDriver::CastCoverage> run_retry_at_shards(
    std::size_t k) {
  ExperimentConfig cfg = small_config(96, 13);
  cfg.shards = k;
  cfg.max_cycles = 22;
  cfg.bootstrap.liveness = LivenessPolicy::Adaptive;
  cfg.bootstrap.tombstone_ttl_cycles = 5;
  const SimTime delta = cfg.bootstrap.delta;
  const SimTime epoch = cfg.warmup_cycles * delta;
  LinkLossSpec loss;
  loss.window = {epoch + 4 * delta, epoch + 10 * delta};
  loss.drop_probability = 0.20;
  cfg.fault_plan.link_loss.push_back(loss);
  LatencySpec spike;
  spike.window = {epoch + 6 * delta, epoch + 9 * delta};
  spike.mode = LatencySpec::Mode::Spike;
  spike.add = delta / 3;
  cfg.fault_plan.latency.push_back(spike);

  WorkloadParams wp;
  wp.retry = true;
  wp.retry_budget = 3;
  wp.hedge_delay = delta / 2;
  wp.cast_retries = 1;
  WorkloadFixture fix(cfg, wp);
  WorkloadDriver driver(fix.stack, [&] {
    DriverConfig dc;
    dc.from = epoch + 3 * delta;
    dc.to = epoch + 12 * delta;
    dc.batch = 4;
    dc.seed = 9;
    return dc;
  }());
  driver.start(fix.engine());
  driver.schedule_cast(fix.engine(), epoch + 8 * delta);  // mid-loss
  fix.exp->run();
  fix.engine().run_until(fix.engine().now() + 8 * delta);
  return {fix.stack.log().summary(), driver.verify_casts(fix.engine())};
}

TEST(WorkloadRetry, SummariesWithRetriesAndChaosAreIdenticalAcrossShardCounts) {
  const auto [base, base_cov] = run_retry_at_shards(1);
  ASSERT_GT(base.issued(), 0u);
  ASSERT_GT(base.kv_retries + base.hedges_sent, 0u);  // the layer actually ran
  for (const std::size_t k : {std::size_t{2}, std::size_t{4}}) {
    const auto [s, cov] = run_retry_at_shards(k);
    EXPECT_EQ(s.puts, base.puts) << "K=" << k;
    EXPECT_EQ(s.gets, base.gets) << "K=" << k;
    EXPECT_EQ(s.put_ok, base.put_ok) << "K=" << k;
    EXPECT_EQ(s.get_ok, base.get_ok) << "K=" << k;
    EXPECT_EQ(s.get_found, base.get_found) << "K=" << k;
    EXPECT_EQ(s.get_miss, base.get_miss) << "K=" << k;
    EXPECT_EQ(s.timeouts, base.timeouts) << "K=" << k;
    EXPECT_EQ(s.unroutable, base.unroutable) << "K=" << k;
    // The new robustness counters are part of the byte-identity contract.
    EXPECT_EQ(s.kv_retries, base.kv_retries) << "K=" << k;
    EXPECT_EQ(s.hedges_sent, base.hedges_sent) << "K=" << k;
    EXPECT_EQ(s.hedge_wins, base.hedge_wins) << "K=" << k;
    EXPECT_EQ(s.cast_redelegations, base.cast_redelegations) << "K=" << k;
    EXPECT_EQ(s.rtt_samples, base.rtt_samples) << "K=" << k;
    EXPECT_EQ(s.rtt_count, base.rtt_count) << "K=" << k;
    EXPECT_EQ(s.rtt_mean, base.rtt_mean) << "K=" << k;
    EXPECT_EQ(s.rtt_p99, base.rtt_p99) << "K=" << k;
    EXPECT_EQ(s.casts, base.casts) << "K=" << k;
    EXPECT_EQ(s.cast_delivered, base.cast_delivered) << "K=" << k;
    EXPECT_EQ(s.cast_duplicates, base.cast_duplicates) << "K=" << k;
    EXPECT_EQ(s.cast_forwards, base.cast_forwards) << "K=" << k;
    EXPECT_EQ(cov.expected, base_cov.expected) << "K=" << k;
    EXPECT_EQ(cov.reached, base_cov.reached) << "K=" << k;
    EXPECT_EQ(cov.duplicates, base_cov.duplicates) << "K=" << k;
  }
}

TEST(WorkloadParamsDeathTest, StackRejectsIncoherentRetryConfigs) {
  const auto build = [](WorkloadParams p) { WorkloadStack stack(p); };
  {
    WorkloadParams p;
    p.retry = true;
    p.retry_budget = 0;
    EXPECT_EXIT(build(p), ::testing::ExitedWithCode(2), "retry_budget");
  }
  {
    WorkloadParams p;
    p.cast_retries = -1;
    EXPECT_EXIT(build(p), ::testing::ExitedWithCode(2), "cast_retries");
  }
}

}  // namespace
