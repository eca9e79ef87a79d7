// The observability layer: metrics registry semantics, engine trace hooks,
// the periodic sampler, and the determinism guarantees the layer advertises
// (installing sinks/samplers never perturbs the simulation; JSONL traces are
// byte-stable for a fixed seed whatever the bench thread count).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/parallel.hpp"
#include "core/experiment.hpp"
#include "obs/metrics.hpp"
#include "obs/sampler.hpp"
#include "obs/trace.hpp"
#include "sim/engine.hpp"

namespace bsvc {
namespace {

using obs::MetricsRegistry;
using obs::TraceKind;

// --- registry ----------------------------------------------------------

TEST(Metrics, CounterSemantics) {
  MetricsRegistry reg;
  obs::Counter& c = reg.counter("a.b");
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.add(4);
  EXPECT_EQ(c.value(), 5u);
  // Same name returns the same instance.
  reg.counter("a.b").inc();
  EXPECT_EQ(c.value(), 6u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Metrics, GaugeSemantics) {
  MetricsRegistry reg;
  obs::Gauge& g = reg.gauge("x");
  g.set(2.5);
  g.add(0.5);
  EXPECT_DOUBLE_EQ(g.value(), 3.0);
  EXPECT_DOUBLE_EQ(reg.gauge("x").value(), 3.0);
  g.reset();
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

TEST(Metrics, HistogramSemantics) {
  MetricsRegistry reg;
  obs::HistogramMetric& h = reg.histogram("hops", 0.0, 10.0, 10);
  h.add(0.5);
  h.add(3.5);
  h.add(3.6);
  h.add(99.0);  // clamped into the last bucket
  h.add(-5.0);  // clamped into the first bucket
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.bucket_count(0), 2u);
  EXPECT_EQ(h.bucket_count(3), 2u);
  EXPECT_EQ(h.bucket_count(9), 1u);
  EXPECT_DOUBLE_EQ(h.min(), -5.0);
  EXPECT_DOUBLE_EQ(h.max(), 99.0);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 3.5 + 3.6 + 99.0 - 5.0);
  EXPECT_DOUBLE_EQ(h.bucket_lo(3), 3.0);
  // First registration fixes the bounds; later bounds are ignored.
  EXPECT_EQ(&reg.histogram("hops", 0.0, 1000.0, 3), &h);
  EXPECT_EQ(h.buckets(), 10u);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.bucket_count(3), 0u);
}

TEST(Metrics, NameCollisionAcrossKindsAborts) {
  MetricsRegistry reg;
  reg.counter("clash");
  EXPECT_DEATH(reg.gauge("clash"), "different kind");
}

TEST(Metrics, RegistryResetPreservesRegistrations) {
  MetricsRegistry reg;
  obs::Counter& c = reg.counter("c");
  obs::Gauge& g = reg.gauge("g");
  c.add(7);
  g.set(1.5);
  reg.reset();
  EXPECT_EQ(reg.size(), 2u);
  EXPECT_TRUE(reg.has("c"));
  // Handed-out references survive and read zero.
  EXPECT_EQ(c.value(), 0u);
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

TEST(Metrics, SnapshotIsNameOrderedAndExpandsHistograms) {
  MetricsRegistry reg;
  reg.counter("b.count").add(3);
  reg.gauge("a.gauge").set(0.25);
  reg.histogram("c.hist", 0.0, 4.0, 4).add(1.0);
  reg.histogram("c.hist", 0.0, 4.0, 4).add(3.0);
  std::vector<std::pair<std::string, double>> seen;
  reg.snapshot([&](const std::string& name, double v) { seen.emplace_back(name, v); });
  ASSERT_EQ(seen.size(), 8u);
  EXPECT_EQ(seen[0].first, "a.gauge");
  EXPECT_DOUBLE_EQ(seen[0].second, 0.25);
  EXPECT_EQ(seen[1].first, "b.count");
  EXPECT_DOUBLE_EQ(seen[1].second, 3.0);
  EXPECT_EQ(seen[2].first, "c.hist.count");
  EXPECT_DOUBLE_EQ(seen[2].second, 2.0);
  EXPECT_EQ(seen[3].first, "c.hist.mean");
  EXPECT_DOUBLE_EQ(seen[3].second, 2.0);
  EXPECT_EQ(seen[4].first, "c.hist.max");
  EXPECT_DOUBLE_EQ(seen[4].second, 3.0);
  EXPECT_EQ(seen[5].first, "c.hist.p50");
  EXPECT_EQ(seen[6].first, "c.hist.p95");
  EXPECT_EQ(seen[7].first, "c.hist.p99");
}

TEST(Metrics, HistogramQuantiles) {
  // One sample per unit-wide bucket: the interpolated quantile is exact.
  obs::HistogramMetric h(0.0, 100.0, 100);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);  // empty histogram reads zero
  for (int i = 0; i < 100; ++i) h.add(static_cast<double>(i) + 0.5);
  EXPECT_DOUBLE_EQ(h.quantile(0.50), 50.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.95), 95.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 99.0);
  // The extremes clamp to the observed min/max, not to bucket edges.
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 0.5);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 99.5);
}

// --- engine hooks -------------------------------------------------------

class TaggedPayload final : public Payload {
 public:
  explicit TaggedPayload(bool request) : request_(request) {}
  std::size_t wire_bytes() const override { return 8; }
  const char* type_name() const override { return "tagged"; }
  const char* metric_tag() const override { return request_ ? "tagged.req" : "tagged.ans"; }

 private:
  bool request_;
};

class EchoProtocol final : public Protocol {
 public:
  void on_message(Context& ctx, Address from, const Payload& p) override {
    const auto& tp = dynamic_cast<const TaggedPayload&>(p);  // test-only checked cast
    if (tp.metric_tag() == std::string("tagged.req")) {
      ctx.send(from, std::make_unique<TaggedPayload>(false));
    }
  }
};

TEST(EngineTrace, HooksCoverMessageLifecycleAndNodeEvents) {
  Engine e(42);
  obs::MemoryTraceSink sink;
  e.set_trace_sink(&sink);
  const Address a = e.add_node(1);
  const Address b = e.add_node(2);
  e.attach(a, std::make_unique<EchoProtocol>());
  e.attach(b, std::make_unique<EchoProtocol>());
  e.start_node(a);
  e.start_node(b, 3);
  e.schedule_timer(a, 0, 7, 99);
  e.send_message(a, b, 0, std::make_unique<TaggedPayload>(true));
  e.run_all();
  e.kill_node(b);
  e.send_message(a, b, 0, std::make_unique<TaggedPayload>(true));
  e.run_all();

  EXPECT_EQ(sink.count(TraceKind::NodeStart), 2u);
  EXPECT_EQ(sink.count(TraceKind::NodeKill), 1u);
  EXPECT_EQ(sink.count(TraceKind::TimerFire), 1u);
  // Request + echoed answer, then the post-kill request.
  EXPECT_EQ(sink.count(TraceKind::Send), 3u);
  EXPECT_EQ(sink.count(TraceKind::Deliver), 2u);
  EXPECT_EQ(sink.count(TraceKind::DeadDest), 1u);
  EXPECT_EQ(sink.count(TraceKind::Drop), 0u);

  // Record fields: sends carry sender/peer/tag/bytes.
  for (const obs::TraceRecord& r : sink.records()) {
    if (r.kind != TraceKind::Send) continue;
    EXPECT_TRUE(r.node == a || r.node == b);
    EXPECT_EQ(r.aux, 8u + kUdpIpHeaderBytes);
    ASSERT_NE(r.tag, nullptr);
  }

  // Per-type counters follow metric_tag, not type_name.
  auto& m = e.metrics();
  EXPECT_EQ(m.counter("msg.sent.tagged.req").value(), 2u);
  EXPECT_EQ(m.counter("msg.sent.tagged.ans").value(), 1u);
  EXPECT_EQ(m.counter("msg.delivered.tagged.req").value(), 1u);
  EXPECT_EQ(m.counter("msg.delivered.tagged.ans").value(), 1u);
}

TEST(EngineTrace, DropsAreTraced) {
  TransportConfig t;
  t.drop_probability = 1.0;
  Engine e(7, t);
  obs::MemoryTraceSink sink;
  e.set_trace_sink(&sink);
  const Address a = e.add_node(1);
  const Address b = e.add_node(2);
  e.attach(a, std::make_unique<EchoProtocol>());
  e.attach(b, std::make_unique<EchoProtocol>());
  e.start_node(a);
  e.start_node(b);
  e.send_message(a, b, 0, std::make_unique<TaggedPayload>(true));
  e.run_all();
  EXPECT_EQ(sink.count(TraceKind::Send), 1u);
  EXPECT_EQ(sink.count(TraceKind::Drop), 1u);
  EXPECT_EQ(sink.count(TraceKind::Deliver), 0u);
  EXPECT_EQ(e.metrics().counter("msg.sent.tagged.req").value(), 1u);
  EXPECT_EQ(e.metrics().counter("msg.delivered.tagged.req").value(), 0u);
}

// --- sampler ------------------------------------------------------------

TEST(Sampler, SnapshotsOnCadenceWithProbes) {
  Engine e(5);
  obs::Sampler sampler(e);
  sampler.add_probe([](Engine& eng) {
    eng.metrics().gauge("probe.time").set(static_cast<double>(eng.now()));
  });
  sampler.start(/*first_delay=*/10, /*period=*/10);
  e.run_until(55);
  sampler.stop();
  e.run_until(200);  // further scheduled snapshots are no-ops after stop()

  EXPECT_EQ(sampler.samples(), 5u);
  const obs::MetricSeries& series = sampler.series();
  ASSERT_TRUE(series.by_name.count("probe.time"));
  const auto& points = series.by_name.at("probe.time");
  ASSERT_EQ(points.size(), 5u);
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(points[i].first, 10u * (i + 1));
    EXPECT_DOUBLE_EQ(points[i].second, static_cast<double>(points[i].first));
  }
}

TEST(Sampler, DestructionBeforeScheduledCallbackIsSafe) {
  Engine e(5);
  {
    obs::Sampler sampler(e);
    sampler.start(10, 10);
  }
  e.run_until(100);  // queued closures hold the shared state; must not crash
}

// --- experiment integration --------------------------------------------

ExperimentConfig small_config(std::uint64_t seed) {
  ExperimentConfig cfg;
  cfg.n = 128;
  cfg.seed = seed;
  cfg.max_cycles = 40;
  cfg.warmup_cycles = 3;
  return cfg;
}

TEST(ObsExperiment, SamplerExportsConvergenceSeries) {
  ExperimentConfig cfg = small_config(11);
  cfg.sample_every_cycles = 1;
  BootstrapExperiment exp(cfg);
  const ExperimentResult r = exp.run();
  ASSERT_FALSE(r.metric_series.empty());

  const auto& by_name = r.metric_series.by_name;
  ASSERT_TRUE(by_name.count("convergence.leaf_completeness"));
  ASSERT_TRUE(by_name.count("convergence.prefix_fill"));
  ASSERT_TRUE(by_name.count("msg.sent.bootstrap.request"));
  ASSERT_TRUE(by_name.count("msg.sent.newscast.request"));
  ASSERT_TRUE(by_name.count("bootstrap.requests"));
  ASSERT_TRUE(by_name.count("newscast.indegree_mean"));

  // The paper's Fig. 3 shape from registry data alone: completeness starts
  // below 1 and reaches 1 by the converged cycle; sent counters are
  // monotone.
  const auto& leaf = by_name.at("convergence.leaf_completeness");
  ASSERT_GE(leaf.size(), 2u);
  EXPECT_LT(leaf.front().second, 1.0);
  EXPECT_DOUBLE_EQ(leaf.back().second, 1.0);
  const auto& sent = by_name.at("msg.sent.bootstrap.request");
  for (std::size_t i = 1; i < sent.size(); ++i) {
    EXPECT_GE(sent[i].second, sent[i - 1].second);
  }
  // One sample per simulated cycle.
  EXPECT_EQ(leaf.size(), r.series.rows());
}

TEST(ObsExperiment, SamplingAndTracingDoNotPerturbResults) {
  const ExperimentResult plain = [] {
    BootstrapExperiment exp(small_config(23));
    return exp.run();
  }();
  ExperimentConfig cfg = small_config(23);
  cfg.sample_every_cycles = 1;
  cfg.trace_path = "/dev/null";
  BootstrapExperiment exp(cfg);
  const ExperimentResult observed = exp.run();

  EXPECT_EQ(plain.converged_cycle, observed.converged_cycle);
  EXPECT_EQ(plain.traffic_during_bootstrap.messages_sent,
            observed.traffic_during_bootstrap.messages_sent);
  EXPECT_EQ(plain.traffic_during_bootstrap.bytes_sent,
            observed.traffic_during_bootstrap.bytes_sent);
  EXPECT_EQ(plain.bootstrap_stats.requests_sent, observed.bootstrap_stats.requests_sent);
  ASSERT_EQ(plain.series.rows(), observed.series.rows());
  for (std::size_t r = 0; r < plain.series.rows(); ++r) {
    for (std::size_t c = 0; c < 6; ++c) {
      EXPECT_DOUBLE_EQ(plain.series.at(r, c), observed.series.at(r, c));
    }
  }
}

// --- exchange spans -----------------------------------------------------

TEST(Spans, EnablingSpansDoesNotPerturbTheRun) {
  const ExperimentResult plain = [] {
    BootstrapExperiment exp(small_config(29));
    return exp.run();
  }();
  ExperimentConfig cfg = small_config(29);
  cfg.spans = true;
  BootstrapExperiment exp(cfg);
  const ExperimentResult spanned = exp.run();

  EXPECT_EQ(plain.converged_cycle, spanned.converged_cycle);
  EXPECT_EQ(plain.traffic_during_bootstrap.messages_sent,
            spanned.traffic_during_bootstrap.messages_sent);
  EXPECT_EQ(plain.traffic_during_bootstrap.bytes_sent,
            spanned.traffic_during_bootstrap.bytes_sent);
  EXPECT_FALSE(plain.has_spans);
  ASSERT_TRUE(spanned.has_spans);
  EXPECT_GT(spanned.span_summary.opened, 0u);
}

// The lifecycle invariants every span must satisfy, checked on a summary.
void expect_span_invariants(const obs::SpanSummary& s, std::size_t n) {
  // Every close matched an open span: nothing closed twice or out of thin
  // air, and outcomes partition the closed set.
  EXPECT_EQ(s.stray_closes, 0u);
  EXPECT_EQ(s.answered + s.timeout + s.superseded + s.evicted, s.closed);
  ASSERT_GE(s.opened, s.closed);
  EXPECT_EQ(s.opened - s.closed, s.in_flight);
  // At most one exchange is open per node at any instant, so at run end at
  // most n spans can still be in flight.
  EXPECT_LE(s.in_flight, n);
  EXPECT_EQ(s.overflow_dropped, 0u);
  EXPECT_EQ(s.rtt_count, s.answered);
}

TEST(Spans, CleanRunClosesEverySpanAnswered) {
  ExperimentConfig cfg = small_config(31);
  cfg.spans = true;
  BootstrapExperiment exp(cfg);
  const ExperimentResult r = exp.run();
  ASSERT_TRUE(r.has_spans);
  const obs::SpanSummary& s = r.span_summary;
  expect_span_invariants(s, cfg.n);
  EXPECT_GT(s.answered, 0u);
  EXPECT_GT(s.rtt_mean, 0.0);
  EXPECT_GE(s.rtt_p95, s.rtt_p50);
  EXPECT_GE(s.rtt_max, s.rtt_p99);
}

TEST(Spans, EverySpanClosesExactlyOnceUnderFaults) {
  // The hostile mix: sustained loss drives per-exchange timeouts, a
  // crash–recover wave drives eviction of condemned peers, and unanswered
  // probes that roll over to a new cycle get superseded. The invariants
  // must hold through all of it.
  ExperimentConfig cfg = small_config(37);
  cfg.spans = true;
  cfg.max_cycles = 30;
  cfg.stop_at_convergence = false;
  cfg.bootstrap.liveness = LivenessPolicy::Evict;
  const SimTime delta = cfg.bootstrap.delta;
  const SimTime epoch = cfg.warmup_cycles * delta;
  const SimTime end = epoch + cfg.max_cycles * delta;
  cfg.fault_plan.link_loss.push_back({{epoch, end}, kNullAddress, kNullAddress, 0.3});
  cfg.fault_plan.crashes.push_back({{epoch + 4 * delta, epoch + 12 * delta},
                                    kNullAddress, 0.2});
  BootstrapExperiment exp(cfg);
  const ExperimentResult r = exp.run();
  ASSERT_TRUE(r.has_spans);
  const obs::SpanSummary& s = r.span_summary;
  expect_span_invariants(s, cfg.n);
  EXPECT_GT(s.answered, 0u);
  // 30% loss with timeouts on must kill some exchanges non-answered.
  EXPECT_GT(s.timeout + s.superseded + s.evicted, 0u);
  EXPECT_GT(s.drops, 0u);
}

TEST(Spans, SummaryIsIdenticalAcrossShardCounts) {
  // Span aggregation is commutative, so the summary must be byte-equal for
  // every K (same trajectory, different overlap).
  auto run_k = [](std::size_t k) {
    ExperimentConfig cfg = small_config(41);
    cfg.shards = k;
    cfg.spans = true;
    BootstrapExperiment exp(cfg);
    return exp.run();
  };
  const ExperimentResult k1 = run_k(1);
  ASSERT_TRUE(k1.has_spans);
  EXPECT_GT(k1.span_summary.opened, 0u);
  for (const std::size_t k : {2u, 4u}) {
    const ExperimentResult rk = run_k(k);
    ASSERT_TRUE(rk.has_spans);
    const obs::SpanSummary& a = k1.span_summary;
    const obs::SpanSummary& b = rk.span_summary;
    EXPECT_EQ(a.opened, b.opened) << "K=" << k;
    EXPECT_EQ(a.closed, b.closed) << "K=" << k;
    EXPECT_EQ(a.answered, b.answered) << "K=" << k;
    EXPECT_EQ(a.timeout, b.timeout) << "K=" << k;
    EXPECT_EQ(a.superseded, b.superseded) << "K=" << k;
    EXPECT_EQ(a.evicted, b.evicted) << "K=" << k;
    EXPECT_EQ(a.sends, b.sends) << "K=" << k;
    EXPECT_EQ(a.drops, b.drops) << "K=" << k;
    EXPECT_EQ(a.delivers, b.delivers) << "K=" << k;
    EXPECT_EQ(a.dead_letters, b.dead_letters) << "K=" << k;
    EXPECT_EQ(a.rtt_count, b.rtt_count) << "K=" << k;
    EXPECT_EQ(a.rtt_mean, b.rtt_mean) << "K=" << k;
    EXPECT_EQ(a.rtt_p50, b.rtt_p50) << "K=" << k;
    EXPECT_EQ(a.rtt_p95, b.rtt_p95) << "K=" << k;
    EXPECT_EQ(a.rtt_p99, b.rtt_p99) << "K=" << k;
    EXPECT_EQ(a.hops_mean, b.hops_mean) << "K=" << k;
    EXPECT_EQ(a.retries_mean, b.retries_mean) << "K=" << k;
  }
}

TEST(Sampler, SeriesIsIdenticalAcrossShardCounts) {
  // The sampled metric series must not depend on K either — shard.* gauges
  // are the one deliberate exception (they describe the engine itself).
  auto run_k = [](std::size_t k) {
    ExperimentConfig cfg = small_config(43);
    cfg.shards = k;
    cfg.sample_every_cycles = 1;
    BootstrapExperiment exp(cfg);
    return exp.run();
  };
  const ExperimentResult k1 = run_k(1);
  ASSERT_FALSE(k1.metric_series.empty());
  for (const std::size_t k : {2u, 4u}) {
    const ExperimentResult rk = run_k(k);
    ASSERT_EQ(k1.metric_series.by_name.size(), rk.metric_series.by_name.size());
    for (const auto& [name, points] : k1.metric_series.by_name) {
      if (name.rfind("shard.", 0) == 0) continue;
      const auto it = rk.metric_series.by_name.find(name);
      ASSERT_NE(it, rk.metric_series.by_name.end()) << name;
      ASSERT_EQ(points.size(), it->second.size()) << name;
      for (std::size_t p = 0; p < points.size(); ++p) {
        EXPECT_EQ(points[p].first, it->second[p].first) << name << " @" << p;
        EXPECT_EQ(points[p].second, it->second[p].second)
            << name << " @" << p << " K=" << k;
      }
    }
  }
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(ObsExperiment, TraceFilesAreByteIdenticalAcrossThreadCounts) {
  // The same seeds traced sequentially and across parallel_map lanes must
  // produce byte-identical JSONL (each replica owns its engine and its file).
  const std::string dir = ::testing::TempDir();
  const auto run_with = [&](const std::string& tag, std::size_t threads) {
    std::vector<std::uint64_t> seeds{31, 32, 33};
    std::vector<std::string> paths;
    for (std::size_t i = 0; i < seeds.size(); ++i) {
      paths.push_back(dir + "/trace_" + tag + "_" + std::to_string(i) + ".jsonl");
    }
    parallel_map(seeds, threads, [&](std::uint64_t seed, std::size_t i) {
      ExperimentConfig cfg = small_config(seed);
      cfg.max_cycles = 10;
      cfg.stop_at_convergence = false;
      cfg.trace_path = paths[i];
      BootstrapExperiment exp(cfg);
      exp.run();
      return 0;
    });
    return paths;
  };
  const auto seq = run_with("seq", 1);
  const auto par = run_with("par", 3);
  for (std::size_t i = 0; i < seq.size(); ++i) {
    const std::string a = slurp(seq[i]);
    const std::string b = slurp(par[i]);
    ASSERT_FALSE(a.empty());
    EXPECT_EQ(a, b) << "replica " << i;
    std::remove(seq[i].c_str());
    std::remove(par[i].c_str());
  }
}

TEST(JsonlSink, WritesParseableRecords) {
  const std::string path = ::testing::TempDir() + "/jsonl_records.jsonl";
  {
    obs::JsonlTraceSink sink(path);
    ASSERT_TRUE(sink.ok());
    obs::TraceRecord r;
    r.time = 12;
    r.kind = TraceKind::Send;
    r.node = 1;
    r.peer = 2;
    r.slot = 0;
    r.tag = "x.req";
    r.aux = 36;
    sink.record(r);
    r.kind = TraceKind::NodeKill;
    r.node = 7;
    sink.record(r);
  }
  const std::string text = slurp(path);
  EXPECT_EQ(text,
            "{\"t\":12,\"k\":\"send\",\"n\":1,\"p\":2,\"s\":0,\"m\":\"x.req\",\"b\":36}\n"
            "{\"t\":12,\"k\":\"kill\",\"n\":7}\n");
  std::remove(path.c_str());
}

TEST(JsonlSink, UnwritablePathDisablesSink) {
  obs::JsonlTraceSink sink("/nonexistent-dir-xyz/trace.jsonl");
  EXPECT_FALSE(sink.ok());
  obs::TraceRecord r;
  sink.record(r);  // must not crash
}

}  // namespace
}  // namespace bsvc
