// Determinism and equivalence suite for the conservative-time-window engine
// across shard counts K. Transport randomness comes from per-node streams
// and same-tick ordering is content-addressed, so what this suite pins down
// is:
//
//  - the trajectory is identical for EVERY shard count (K = 1 runs the same
//    semantics inline and is the golden reference);
//  - a fixed (seed, K) is bit-reproducible across repeated runs, whatever
//    the thread scheduler does;
//  - fault plans (partitions, crash-recover, loss/dup), a merge from a
//    t = 0 partition, and Byzantine tampering produce identical outcomes
//    across shard counts, because every verdict draw comes from the sending
//    node's own stream;
//  - the Oracle sampler, which reads global liveness from inside windows,
//    is K-invariant too (liveness only changes at barriers).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "adversary/byzantine_model.hpp"
#include "core/experiment.hpp"
#include "fault/fault_plan.hpp"
#include "sim/engine.hpp"
#include "tests/test_util.hpp"

namespace bsvc {
namespace {

using test::expect_same_result;

ExperimentConfig small_config(std::size_t shards) {
  ExperimentConfig cfg;
  cfg.n = 256;
  cfg.seed = 42;
  cfg.shards = shards;
  cfg.max_cycles = 40;
  cfg.drop_probability = 0.1;
  return cfg;
}

ExperimentResult run_one(const ExperimentConfig& cfg) {
  BootstrapExperiment exp(cfg);
  return exp.run();
}

// --- shard-count independence -------------------------------------------

TEST(ParallelEngine, ShardCountsConvergeToSameOracleMetrics) {
  const ExperimentResult reference = run_one(small_config(1));
  ASSERT_GE(reference.converged_cycle, 0) << "K=1 reference did not converge";
  for (const std::size_t k : {std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
    const ExperimentResult result = run_one(small_config(k));
    expect_same_result(reference, result, ("K=" + std::to_string(k)).c_str());
  }
}

TEST(ParallelEngine, FixedSeedAndShardCountIsBitReproducible) {
  // Repeated runs of the same (seed, K) spawn fresh worker crews each time;
  // any dependence on thread interleaving shows up as a diff here.
  const ExperimentResult first = run_one(small_config(4));
  for (int repeat = 0; repeat < 2; ++repeat) {
    const ExperimentResult again = run_one(small_config(4));
    expect_same_result(first, again, ("repeat " + std::to_string(repeat)).c_str());
  }
}

TEST(ParallelEngine, OracleSamplerIdenticalAcrossShardCounts) {
  // Each node's oracle sampler draws from its own protocol stream and reads
  // liveness, which only changes at barriers — so in-window reads see the
  // same membership, and the trajectory is the same, for every K. Under
  // TSan this also checks that those reads race with nothing.
  ExperimentConfig base = small_config(1);
  base.sampler = SamplerKind::Oracle;
  const ExperimentResult reference = run_one(base);
  ASSERT_GE(reference.converged_cycle, 0) << "K=1 oracle-sampled run did not converge";
  for (const std::size_t k : {std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
    ExperimentConfig cfg = base;
    cfg.shards = k;
    const ExperimentResult result = run_one(cfg);
    expect_same_result(reference, result, ("oracle K=" + std::to_string(k)).c_str());
  }
}

// --- fault plans across shard counts ------------------------------------

ExperimentConfig faulted_config(std::size_t shards) {
  ExperimentConfig cfg = small_config(shards);
  // Windows are absolute virtual time; warmup is 10 cycles of delta = 1000.
  PartitionSpec part;
  part.window = {12000, 18000};
  part.kind = PartitionSpec::Kind::Cut;
  part.value = 128;
  cfg.fault_plan.partitions.push_back(part);
  LinkLossSpec loss;
  loss.window = {11000, 25000};
  loss.drop_probability = 0.2;
  cfg.fault_plan.link_loss.push_back(loss);
  DuplicateSpec dup;
  dup.window = {11000, 30000};
  dup.probability = 0.05;
  cfg.fault_plan.duplicates.push_back(dup);
  CrashSpec crash;
  crash.addr = 3;
  crash.window = {13000, 16000};
  cfg.fault_plan.crashes.push_back(crash);
  CrashSpec fractional;
  fractional.addr = kNullAddress;
  fractional.fraction = 0.05;
  fractional.window = {14000, 17000};
  cfg.fault_plan.crashes.push_back(fractional);
  return cfg;
}

TEST(ParallelEngine, FaultPlanOutcomesIdenticalAcrossShardCounts) {
  const ExperimentResult reference = run_one(faulted_config(1));
  for (const std::size_t k : {std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
    const ExperimentResult result = run_one(faulted_config(k));
    expect_same_result(reference, result, ("faulted K=" + std::to_string(k)).c_str());
  }
}

// --- a t = 0 partition healed into a merge -------------------------------

struct MergeOutcome {
  ExperimentResult result;
  std::uint64_t cut = 0;  // fault.partition.dropped
};

constexpr std::size_t kMergeHealCycle = 12;

// Two pools of 128, seeded apart and cut from the first tick; at the heal a
// few pool-A nodes are handed pool-B contacts, as in bench/merge_split.
// Seeded apart, the pools never address each other, so one pool-B contact
// also leaks into pool A halfway through the cut: the cut must drop every
// send to it until the heal.
MergeOutcome run_merge(std::size_t shards) {
  ExperimentConfig cfg = small_config(shards);
  const SimTime heal_time = (cfg.warmup_cycles + kMergeHealCycle) * cfg.bootstrap.delta;
  cfg.fault_plan.partitions.push_back({{0, heal_time}, PartitionSpec::Kind::Cut, 128});
  BootstrapExperiment exp(cfg);
  const auto newscast_slot = exp.newscast_slot();
  const auto hand_out = [newscast_slot](int contacts) {
    return [newscast_slot, contacts](Engine& e) {
      for (int i = 0; i < contacts; ++i) {
        const auto a = static_cast<Address>(e.rng().below(128));
        const auto b = static_cast<Address>(128 + e.rng().below(128));
        newscast_slot.of(e, a).add_contact(e.descriptor_of(b), e.now());
      }
    };
  };
  exp.engine().schedule_call(heal_time / 2, hand_out(1));
  exp.engine().schedule_call(heal_time, hand_out(8));
  MergeOutcome out;
  out.result = exp.run();
  out.cut = exp.engine().metrics().counter("fault.partition.dropped").value();
  return out;
}

TEST(ParallelEngine, MergeScenarioIdenticalAcrossShardCounts) {
  const MergeOutcome reference = run_merge(1);
  // The cut must bite, and the union must converge only after the heal.
  EXPECT_GT(reference.cut, 0u);
  EXPECT_GT(reference.result.converged_cycle, static_cast<int>(kMergeHealCycle));
  for (const std::size_t k : {std::size_t{2}, std::size_t{4}}) {
    const MergeOutcome other = run_merge(k);
    expect_same_result(reference.result, other.result, ("merge K=" + std::to_string(k)).c_str());
    EXPECT_EQ(reference.cut, other.cut);
  }
}

// --- Byzantine tampering across shard counts ----------------------------

AdversaryPlan byzantine_plan() {
  AdversaryPlan plan;
  plan.seed = 7;
  plan.fraction = 0.05;
  plan.window = {11000, 0};
  plan.poison = true;
  plan.eclipse = true;
  plan.spoof = true;
  plan.suppress_probability = 0.1;
  plan.corrupt_probability = 0.02;
  return plan;
}

struct AdversaryOutcome {
  ExperimentResult result;
  std::uint64_t poisoned = 0;
  std::uint64_t eclipsed = 0;
  std::uint64_t spoofed = 0;
  std::uint64_t suppressed = 0;
  std::uint64_t corrupted = 0;
};

AdversaryOutcome run_byzantine(std::size_t shards) {
  BootstrapExperiment exp(small_config(shards));
  const auto model = install_adversary_plan(exp.engine(), byzantine_plan());
  AdversaryOutcome out;
  out.result = exp.run();
  obs::MetricsRegistry& m = exp.engine().metrics();
  out.poisoned = m.counter("adv.poisoned").value();
  out.eclipsed = m.counter("adv.eclipsed").value();
  out.spoofed = m.counter("adv.spoofed").value();
  out.suppressed = m.counter("adv.suppressed").value();
  out.corrupted = m.counter("adv.corrupted").value();
  return out;
}

TEST(ParallelEngine, ByzantineTamperingIdenticalAcrossShardCounts) {
  const AdversaryOutcome reference = run_byzantine(1);
  // A plan this aggressive must actually fire for the comparison to mean
  // anything.
  EXPECT_GT(reference.poisoned + reference.eclipsed + reference.spoofed +
                reference.suppressed + reference.corrupted,
            0u);
  for (const std::size_t k : {std::size_t{2}, std::size_t{4}}) {
    const AdversaryOutcome other = run_byzantine(k);
    expect_same_result(reference.result, other.result,
                       ("byzantine K=" + std::to_string(k)).c_str());
    EXPECT_EQ(reference.poisoned, other.poisoned);
    EXPECT_EQ(reference.eclipsed, other.eclipsed);
    EXPECT_EQ(reference.spoofed, other.spoofed);
    EXPECT_EQ(reference.suppressed, other.suppressed);
    EXPECT_EQ(reference.corrupted, other.corrupted);
  }
}

// --- shard observability and input checks -------------------------------

TEST(ParallelEngine, ShardMetricsAreRegistered) {
  BootstrapExperiment exp(small_config(4));
  exp.run();
  obs::MetricsRegistry& m = exp.engine().metrics();
  EXPECT_EQ(m.gauge("shard.count").value(), 4.0);
  EXPECT_GT(m.counter("shard.windows").value(), 0u);
  // 256 nodes over 4 shards exchange constantly; some of that traffic must
  // cross shard boundaries.
  EXPECT_GT(m.counter("shard.mailbox.messages").value(), 0u);
  EXPECT_GT(m.histogram("shard.window_events", 0.0, 4096.0, 64).count(), 0u);
}

TEST(ParallelEngine, ProfilerAccountsWindowsAndWritesTrace) {
  const std::string path = ::testing::TempDir() + "/bsvc_prof.json";
  ExperimentConfig cfg = small_config(2);
  cfg.profile_path = path;
  BootstrapExperiment exp(cfg);
  const ExperimentResult r = exp.run();
  ASSERT_TRUE(r.has_profile);
  const obs::ProfileSummary& p = r.profile_summary;
  EXPECT_EQ(p.shards, 2u);
  EXPECT_GT(p.windows, 0u);
  EXPECT_GT(p.events, 0u);
  EXPECT_GT(p.wall_seconds, 0.0);
  EXPECT_GT(p.trace_events, 0u);
  EXPECT_EQ(p.trace_events_dropped, 0u);
  // The four phases partition each shard's window wall exactly, so their
  // totals must cover shards x wall (double rounding aside).
  const double phases =
      p.dispatch_seconds + p.drain_seconds + p.stall_seconds + p.idle_seconds;
  const double expected = p.wall_seconds * static_cast<double>(p.shards);
  EXPECT_NEAR(phases, expected, 1e-6 * expected + 1e-12);
  EXPECT_GE(p.barrier_stall_fraction, 0.0);
  EXPECT_LE(p.barrier_stall_fraction, 1.0);

  // The written trace is the object form with the aggregate section; full
  // structural validation lives in scripts/check_profile.py.
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  const std::string trace = text.str();
  ASSERT_FALSE(trace.empty());
  EXPECT_EQ(trace.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(trace.find("\"bsvc_profile\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(trace.find("\"thread_name\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(ParallelEngine, ProfilerDoesNotPerturbTheRun) {
  const std::string path = ::testing::TempDir() + "/bsvc_prof_perturb.json";
  const ExperimentResult plain = run_one(small_config(2));
  ExperimentConfig cfg = small_config(2);
  cfg.profile_path = path;
  const ExperimentResult profiled = run_one(cfg);
  expect_same_result(plain, profiled, "profiled");
  std::remove(path.c_str());
}

TEST(ParallelEngineDeathTest, ZeroLookaheadIsRejected) {
  TransportConfig transport;
  transport.min_latency = 0;
  transport.max_latency = 0;
  EXPECT_DEATH(Engine(1, transport, 2), "min_latency");
}

TEST(ParallelEngineDeathTest, ShardCountBelowOneIsRejected) {
  EXPECT_DEATH(Engine(1, TransportConfig{}, 0), "shard count");
  // Experiment setup catches it first, with a config error instead of an
  // abort.
  EXPECT_EXIT(BootstrapExperiment exp(small_config(0)), testing::ExitedWithCode(2),
              "shards must be >= 1");
}

// --- engine-level window mechanics --------------------------------------

TEST(ParallelEngine, ShardedClockSettlesLikeSerial) {
  // An idle multi-lane engine still advances its clock to the horizon.
  Engine sharded(9, TransportConfig{}, 2);
  sharded.run_until(12345);
  EXPECT_EQ(sharded.now(), 12345u);
}

TEST(ParallelEngine, ScheduledCallsRunAtBarriersInOrder) {
  Engine engine(11, TransportConfig{}, 4);
  std::vector<int> order;
  engine.schedule_call(500, [&order](Engine&) { order.push_back(1); });
  engine.schedule_call(500, [&order](Engine&) { order.push_back(2); });
  engine.schedule_call(100, [&order](Engine& e) {
    order.push_back(0);
    e.schedule_call(0, [&order](Engine&) { order.push_back(-1); });
  });
  engine.run_until(1000);
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order[0], 0);
  EXPECT_EQ(order[1], -1);  // zero-delay call runs at the same barrier
  EXPECT_EQ(order[2], 1);
  EXPECT_EQ(order[3], 2);
}

}  // namespace
}  // namespace bsvc
