// Determinism guarantees of the simulation stack:
//  - TwoTierQueue pops in exact (time, seq) order, bit-for-bit equal to a
//    reference sorted model, including far-future heap spill and ties;
//  - run_replicas() produces identical series regardless of thread count;
//  - fixed-seed 256-node experiments replay the golden witnesses at every
//    shard count (same seed ⇒ same simulation, across engine rewrites and
//    whatever K runs it).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "common/rng.hpp"
#include "core/experiment.hpp"
#include "sim/event_queue.hpp"

namespace bsvc {
namespace {

// ---------------------------------------------------------------------------
// TwoTierQueue vs a reference model: sorted by (time, seq).

struct QueueScript {
  // Interleaved pushes and pops driven by an Rng; checks every pop against
  // the model and every failed probe against the model's minimum.
  std::uint64_t seed = 1;
  std::size_t operations = 20000;
  SimTime max_gap = 2 * TwoTierQueue::kWheelSpan;  // exercises the heap tier
};

void run_queue_script(const QueueScript& script) {
  Rng rng(script.seed);
  TwoTierQueue queue;
  std::vector<SlimEvent> model;  // kept sorted by (time, seq)
  const auto order = [](const SlimEvent& a, const SlimEvent& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  };
  std::uint64_t seq = 0;
  SimTime now = 0;  // time of the last pop; pushes are never in the past

  for (std::size_t op = 0; op < script.operations; ++op) {
    const std::uint64_t dice = rng.below(10);
    if (dice < 6 || queue.empty()) {
      SlimEvent ev{};
      // A burst of ties at the same tick every few pushes pins down FIFO.
      ev.time = now + (rng.below(4) == 0 ? 0 : rng.below(script.max_gap));
      ev.seq = seq++;
      ev.aux = ev.seq * 3;  // payload proxy so we can spot mixed-up events
      queue.push(ev);
      model.insert(std::upper_bound(model.begin(), model.end(), ev, order), ev);
    } else if (dice < 9) {
      SlimEvent got{};
      ASSERT_TRUE(queue.pop_if_at_most(~SimTime{0}, got));
      const SlimEvent want = model.front();
      model.erase(model.begin());
      ASSERT_EQ(got.time, want.time);
      ASSERT_EQ(got.seq, want.seq);
      ASSERT_EQ(got.aux, want.aux);
      now = got.time;
    } else {
      // Probe with a limit below the minimum: must fail and must not disturb
      // subsequent ordering (regression guard for the commit-on-pop rule).
      const SimTime min_time = model.front().time;
      if (min_time > 0) {
        SlimEvent got{};
        ASSERT_FALSE(queue.pop_if_at_most(min_time - 1, got));
      }
    }
    ASSERT_EQ(queue.size(), model.size());
  }
  // Drain and compare the tail.
  while (!model.empty()) {
    SlimEvent got{};
    ASSERT_TRUE(queue.pop_if_at_most(~SimTime{0}, got));
    ASSERT_EQ(got.seq, model.front().seq);
    ASSERT_EQ(got.time, model.front().time);
    model.erase(model.begin());
  }
  EXPECT_TRUE(queue.empty());
}

TEST(TwoTierQueue, MatchesReferenceModelNearFuture) {
  run_queue_script({.seed = 3, .operations = 20000, .max_gap = 512});
}

TEST(TwoTierQueue, MatchesReferenceModelWithHeapSpill) {
  run_queue_script({.seed = 4, .operations = 20000, .max_gap = 8 * TwoTierQueue::kWheelSpan});
}

TEST(TwoTierQueue, FifoAmongEqualTimes) {
  // Monotone keys pushed at one tick pop in push order.
  TwoTierQueue queue;
  for (std::uint64_t i = 0; i < 100; ++i) {
    queue.push(SlimEvent{.time = 5, .seq = i, .aux = i});
  }
  for (std::uint64_t i = 0; i < 100; ++i) {
    SlimEvent got{};
    ASSERT_TRUE(queue.pop_if_at_most(5, got));
    EXPECT_EQ(got.seq, i);
  }
  EXPECT_TRUE(queue.empty());
}

TEST(TwoTierQueue, FailedProbeLeavesQueueIntact) {
  TwoTierQueue queue;
  queue.push(SlimEvent{.time = 10000, .seq = 0});  // beyond the initial wheel window
  SlimEvent got{};
  EXPECT_FALSE(queue.pop_if_at_most(9999, got));
  // A failed probe must not re-base: this push at a lower time than the
  // scanned minimum has to be accepted and popped first.
  queue.push(SlimEvent{.time = 500, .seq = 1});
  ASSERT_TRUE(queue.pop_if_at_most(~SimTime{0}, got));
  EXPECT_EQ(got.seq, 1u);
  ASSERT_TRUE(queue.pop_if_at_most(~SimTime{0}, got));
  EXPECT_EQ(got.seq, 0u);
}

// ---------------------------------------------------------------------------
// Replica harness: thread count must not leak into results.

std::vector<bench::ReplicaSpec> small_specs() {
  std::vector<bench::ReplicaSpec> specs;
  for (std::size_t i = 0; i < 4; ++i) {
    bench::ReplicaSpec spec;
    spec.label = "rep" + std::to_string(i);
    spec.cfg.n = 128;
    spec.cfg.seed = bench::replica_seed(99, i);
    spec.cfg.max_cycles = 30;
    specs.push_back(std::move(spec));
  }
  return specs;
}

TEST(RunReplicas, ThreadCountInvariant) {
  const auto sequential = bench::run_replicas(small_specs(), 1);
  const auto threaded = bench::run_replicas(small_specs(), 4);
  ASSERT_EQ(sequential.size(), threaded.size());
  for (std::size_t i = 0; i < sequential.size(); ++i) {
    const auto& a = sequential[i].result;
    const auto& b = threaded[i].result;
    EXPECT_EQ(sequential[i].label, threaded[i].label);
    EXPECT_EQ(a.converged_cycle, b.converged_cycle);
    EXPECT_EQ(a.traffic_during_bootstrap.messages_sent,
              b.traffic_during_bootstrap.messages_sent);
    EXPECT_EQ(a.traffic_during_bootstrap.bytes_sent, b.traffic_during_bootstrap.bytes_sent);
    ASSERT_EQ(a.series.rows(), b.series.rows());
    for (std::size_t row = 0; row < a.series.rows(); ++row) {
      for (std::size_t col = 0; col < a.series.columns(); ++col) {
        EXPECT_EQ(a.series.at(row, col), b.series.at(row, col))
            << "replica " << i << " row " << row << " col " << col;
      }
    }
  }
}

TEST(RunReplicas, SeedDerivationIsStable) {
  // The derived seeds are part of the reproducibility contract: changing the
  // derivation silently changes every multi-replica bench result.
  EXPECT_NE(bench::replica_seed(1, 0), bench::replica_seed(1, 1));
  EXPECT_NE(bench::replica_seed(1, 0), bench::replica_seed(2, 0));
  EXPECT_EQ(bench::replica_seed(42, 7), bench::replica_seed(42, 7));
}

// ---------------------------------------------------------------------------
// Golden replay: witnesses recorded at K = 1 and asserted at K ∈ {1, 2, 4},
// so every witness is also a cross-K test. Same seed ⇒ byte-identical
// series, across engine rewrites and shard counts.

constexpr std::size_t kGoldenShardCounts[] = {1, 2, 4};

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001B3ull;
  }
  return h;
}

std::uint64_t series_hash(const ExperimentResult& r) {
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (std::size_t row = 0; row < r.series.rows(); ++row) {
    for (std::size_t col = 0; col < r.series.columns(); ++col) {
      const double v = r.series.at(row, col);
      std::uint64_t bits;
      std::memcpy(&bits, &v, sizeof(bits));
      h = fnv1a(h, &bits, sizeof(bits));
    }
  }
  return h;
}

struct Golden {
  std::uint64_t hash;
  std::size_t rows;
  int converged;
  std::uint64_t messages_sent;
  std::uint64_t messages_delivered;
  std::uint64_t bytes_sent;
};

/// check.sh sets BSVC_GOLDEN_OBS to a scratch directory to replay every
/// witness with tracing, per-cycle sampling and exchange spans enabled (the
/// sinks must only observe — the witnesses have to hold either way). Unset,
/// the replays run observability-free, exactly as recorded.
void apply_env_obs(ExperimentConfig& cfg, const char* name) {
  const char* dir = std::getenv("BSVC_GOLDEN_OBS");
  if (dir == nullptr) return;
  cfg.sample_every_cycles = 1;
  cfg.spans = true;
  cfg.trace_path =
      std::string(dir) + "/" + name + "_k" + std::to_string(cfg.shards) + ".jsonl";
}

void expect_golden(const ExperimentResult& r, const Golden& g) {
  EXPECT_EQ(series_hash(r), g.hash);
  EXPECT_EQ(r.series.rows(), g.rows);
  EXPECT_EQ(r.converged_cycle, g.converged);
  EXPECT_EQ(r.traffic_during_bootstrap.messages_sent, g.messages_sent);
  EXPECT_EQ(r.traffic_during_bootstrap.messages_delivered, g.messages_delivered);
  EXPECT_EQ(r.traffic_during_bootstrap.bytes_sent, g.bytes_sent);
}

constexpr Golden kPlain256 = {.hash = 0x10b4fa28a5a85044ull,
                              .rows = 6,
                              .converged = 5,
                              .messages_sent = 6014,
                              .messages_delivered = 5982,
                              .bytes_sent = 4369506};

TEST(GoldenReplay, Plain256) {
  for (const std::size_t k : kGoldenShardCounts) {
    SCOPED_TRACE("K=" + std::to_string(k));
    ExperimentConfig cfg;
    cfg.n = 256;
    cfg.seed = 42;
    cfg.shards = k;
    cfg.max_cycles = 40;
    apply_env_obs(cfg, "plain256");
    BootstrapExperiment exp(cfg);
    expect_golden(exp.run(), kPlain256);
  }
}

TEST(GoldenReplay, Drop256) {
  for (const std::size_t k : kGoldenShardCounts) {
    SCOPED_TRACE("K=" + std::to_string(k));
    ExperimentConfig cfg;
    cfg.n = 256;
    cfg.seed = 7;
    cfg.shards = k;
    cfg.max_cycles = 25;
    cfg.drop_probability = 0.2;
    cfg.stop_at_convergence = false;
    apply_env_obs(cfg, "drop256");
    BootstrapExperiment exp(cfg);
    const auto r = exp.run();
    expect_golden(r, {.hash = 0x5f9de6304a856be1ull,
                      .rows = 25,
                      .converged = 9,  // the first perfect cycle; the run goes on to 24
                      .messages_sent = 22940,
                      .messages_delivered = 18365,
                      .bytes_sent = 17504574});
    EXPECT_EQ(r.traffic_during_bootstrap.messages_dropped, 4544u);
  }
}

TEST(GoldenReplay, Churn256) {
  for (const std::size_t k : kGoldenShardCounts) {
    SCOPED_TRACE("K=" + std::to_string(k));
    ExperimentConfig cfg;
    cfg.n = 256;
    cfg.seed = 11;
    cfg.shards = k;
    cfg.max_cycles = 20;
    cfg.stop_at_convergence = false;
    cfg.churn_fail_rate = 0.01;
    cfg.churn_join_rate = 0.01;
    apply_env_obs(cfg, "churn256");
    BootstrapExperiment exp(cfg);
    expect_golden(exp.run(), {.hash = 0x7f5868c4473db2c8ull,
                              .rows = 20,
                              .converged = -1,
                              .messages_sent = 19580,
                              .messages_delivered = 18929,
                              .bytes_sent = 14905000});
  }
}

TEST(GoldenReplay, Plain256WithTracingAttached) {
  // The observability layer must be a pure observer: the Plain256 witness
  // holds bit-for-bit with a JSONL trace sink, a per-cycle sampler and the
  // exchange-span log attached for the whole run.
  for (const std::size_t k : kGoldenShardCounts) {
    SCOPED_TRACE("K=" + std::to_string(k));
    ExperimentConfig cfg;
    cfg.n = 256;
    cfg.seed = 42;
    cfg.shards = k;
    cfg.max_cycles = 40;
    cfg.sample_every_cycles = 1;
    cfg.spans = true;
    const std::string trace_path = ::testing::TempDir() + "/golden_plain256_traced_k" +
                                   std::to_string(k) + ".jsonl";
    cfg.trace_path = trace_path;
    BootstrapExperiment exp(cfg);
    const auto r = exp.run();
    expect_golden(r, kPlain256);
    EXPECT_FALSE(r.metric_series.empty());
    ASSERT_TRUE(r.has_spans);
    EXPECT_GT(r.span_summary.opened, 0u);
    EXPECT_EQ(r.span_summary.stray_closes, 0u);
    std::remove(trace_path.c_str());
  }
}

}  // namespace
}  // namespace bsvc
