#include "core/experiment.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/assert.hpp"
#include "common/logging.hpp"
#include "sampling/graph_metrics.hpp"
#include "sampling/oracle_sampler.hpp"

namespace bsvc {

namespace {

/// Initial Newscast view seeds per node.
constexpr std::size_t kBootstrapContacts = 10;

[[noreturn]] void config_error(const char* what, const std::string& detail) {
  std::fprintf(stderr, "error: invalid %s: %s\n", what, detail.c_str());
  std::exit(2);
}

}  // namespace

BootstrapExperiment::BootstrapExperiment(ExperimentConfig config) : config_(std::move(config)) {
  BSVC_CHECK(config_.n >= 2);
  TransportConfig transport;
  transport.drop_probability = config_.drop_probability;
  // Reject a bad transport or shard count here, before the Engine's
  // abort-based backstop: a bench typo (drop=1.2, min>max, shards=0) gets a
  // clear message and exit(2).
  if (const std::string err = transport.validate(); !err.empty()) {
    config_error("transport config", err);
  }
  if (config_.shards < 1) config_error("engine config", "shards must be >= 1");
  stats_blocks_.resize(config_.shards);
  engine_ = std::make_unique<Engine>(config_.seed, transport, config_.shards);
  if (!config_.trace_path.empty()) {
    trace_sink_ = std::make_unique<obs::JsonlTraceSink>(config_.trace_path);
    engine_->set_trace_sink(trace_sink_.get());
  }
  if (config_.spans) {
    span_log_ = std::make_unique<obs::SpanLog>();
    span_log_->bind_registry(engine_->metrics());
    engine_->set_span_log(span_log_.get());
  }
  if (!config_.profile_path.empty()) {
    profiler_ = std::make_unique<obs::EngineProfiler>(config_.shards);
    engine_->set_profiler(profiler_.get());
  }
  if (const std::string err = config_.fault_plan.validate(); !err.empty()) {
    config_error("fault plan", err);
  }
  injector_ = install_fault_plan(*engine_, config_.fault_plan);
  ids_ = std::make_unique<IdGenerator>(Rng(config_.seed ^ 0x1D8AF066EF5E2D3Cull));
  build_network();
}

Address BootstrapExperiment::make_node() {
  Engine& engine = *engine_;
  const Address addr = engine.add_node(ids_->next());

  PeerSampler* sampler = nullptr;
  if (config_.sampler == SamplerKind::Newscast) {
    NewscastConfig newscast_config;
    newscast_config.harden = config_.bootstrap.harden;  // one adversarial switch
    auto newscast = std::make_unique<NewscastProtocol>(newscast_config);
    sampler = newscast.get();
    engine.attach(addr, std::move(newscast));
  } else {
    auto oracle = std::make_unique<OracleSamplerProtocol>(engine, addr);
    sampler = oracle.get();
    engine.attach(addr, std::move(oracle));
  }

  // Initial network construction staggers bootstrap starts after the warmup;
  // later joiners (churn, merges) start within one cycle of being created.
  const SimTime window =
      std::max<SimTime>(1, static_cast<SimTime>(config_.start_window_cycles *
                                                static_cast<double>(config_.bootstrap.delta)));
  const SimTime start_delay =
      built_ ? engine.rng().below(config_.bootstrap.delta)
             : config_.warmup_cycles * config_.bootstrap.delta + engine.rng().below(window);
  BootstrapStats* stats = &stats_blocks_[engine.shard_of(addr)].stats;
  auto proto = std::make_unique<BootstrapProtocol>(config_.bootstrap, sampler, stats,
                                                   start_delay);
  bootstrap_ref_ = attach_typed(engine, addr, std::move(proto));

  // Joiners seed their Newscast view from random alive contacts (a joining
  // node knows some existing members, as in any deployment). Drawn at the
  // barrier from the engine stream.
  if (built_ && config_.sampler == SamplerKind::Newscast) {
    OracleSampler contacts(engine, addr, engine.rng());
    newscast_ref_.of(engine, addr).init_view(contacts.sample(kBootstrapContacts));
  }
  if (config_.node_extension) config_.node_extension(engine, addr);
  return addr;
}

void BootstrapExperiment::build_network() {
  Engine& engine = *engine_;
  for (std::size_t i = 0; i < config_.n; ++i) make_node();

  // Seed every Newscast view with random contacts (a functional-but-
  // arbitrary starting overlay; warmup randomizes it). A contact that a
  // partition in force at t = 0 cuts off is skipped, so each group starts
  // as an independent pool.
  if (config_.sampler == SamplerKind::Newscast) {
    for (Address addr = 0; addr < config_.n; ++addr) {
      DescriptorList seeds;
      seeds.reserve(kBootstrapContacts);
      std::size_t guard = 0;
      while (seeds.size() < kBootstrapContacts && guard < 64 * kBootstrapContacts) {
        ++guard;
        const auto peer = static_cast<Address>(engine.rng().below(config_.n));
        if (peer != addr && !config_.fault_plan.separated(0, addr, peer)) {
          seeds.push_back(engine.descriptor_of(peer));
        }
      }
      newscast_ref_.of(engine, addr).init_view(std::move(seeds));
    }
  }
  for (Address addr = 0; addr < config_.n; ++addr) engine.start_node(addr);
  bootstrap_epoch_ = config_.warmup_cycles * config_.bootstrap.delta;
  built_ = true;
}

ExperimentResult BootstrapExperiment::run(
    std::function<void(std::size_t, const ConvergenceMetrics&)> on_cycle) {
  Engine& engine = *engine_;
  const SimTime delta = config_.bootstrap.delta;

  engine.run_until(bootstrap_epoch_);
  engine.reset_traffic();
  reset_stats();

  const bool churn =
      config_.churn_fail_rate > 0.0 || config_.churn_join_rate > 0.0;
  if (churn) {
    ChurnConfig cc;
    cc.from = bootstrap_epoch_;
    cc.to = bootstrap_epoch_ + config_.max_cycles * delta;
    cc.period = delta;
    cc.fail_rate = config_.churn_fail_rate;
    cc.join_rate = config_.churn_join_rate;
    schedule_churn(engine, cc, [this](Engine&) { return make_node(); });
  }

  ExperimentResult result;
  result.n = config_.n;

  std::optional<ConvergenceOracle> oracle;
  oracle.emplace(engine, config_.bootstrap, bootstrap_ref_);

  if (config_.sample_every_cycles > 0) {
    sampler_ = std::make_unique<obs::Sampler>(engine);
    // Probes capture the local oracle by reference; the sampler is stopped
    // (and dropped) before run() returns, so no closure outlives it.
    sampler_->add_probe([&oracle, churn](Engine& e) {
      obs::MetricsRegistry& m = e.metrics();
      const ConvergenceMetrics cm = oracle->measure(churn);
      m.gauge("convergence.leaf_completeness").set(1.0 - cm.missing_leaf_fraction());
      m.gauge("convergence.prefix_fill").set(1.0 - cm.missing_prefix_fraction());
      m.gauge("net.alive_nodes").set(static_cast<double>(e.alive_count()));
      const TrafficStats& t = e.traffic();
      m.gauge("traffic.messages_sent").set(static_cast<double>(t.messages_sent));
      m.gauge("traffic.messages_dropped").set(static_cast<double>(t.messages_dropped));
      m.gauge("traffic.messages_delivered").set(static_cast<double>(t.messages_delivered));
      m.gauge("traffic.bytes_sent").set(static_cast<double>(t.bytes_sent));
    });
    if (config_.sampler == SamplerKind::Newscast) {
      const SlotRef<NewscastProtocol> nc_slot = newscast_slot();
      sampler_->add_probe([nc_slot](Engine& e) {
        const ViewGraphStats g = measure_view_graph(e, nc_slot);
        obs::MetricsRegistry& m = e.metrics();
        m.gauge("newscast.indegree_mean").set(g.indegree_mean);
        m.gauge("newscast.indegree_stddev").set(g.indegree_stddev);
        m.gauge("newscast.indegree_max").set(static_cast<double>(g.indegree_max));
        m.gauge("newscast.dead_entry_fraction").set(g.dead_entry_fraction);
      });
    }
    // First snapshot at the end of cycle 0, then every sample_every_cycles.
    sampler_->start(delta, delta * config_.sample_every_cycles);
  }

  for (std::size_t cycle = 0; cycle < config_.max_cycles; ++cycle) {
    engine.run_until(bootstrap_epoch_ + (cycle + 1) * delta);
    if (churn) oracle.emplace(engine, config_.bootstrap, bootstrap_ref_);
    const ConvergenceMetrics metrics = oracle->measure(churn);
    result.final_metrics = metrics;
    const auto& traffic = engine.traffic();
    result.series.add_row({static_cast<double>(cycle), metrics.missing_leaf_fraction(),
                           metrics.missing_prefix_fraction(),
                           static_cast<double>(engine.alive_count()),
                           static_cast<double>(traffic.messages_sent),
                           static_cast<double>(traffic.bytes_sent)});
    if (on_cycle) on_cycle(cycle, metrics);

    if (result.leaf_converged_cycle < 0 && metrics.leaf_converged()) {
      result.leaf_converged_cycle = static_cast<int>(cycle);
    }
    if (result.prefix_converged_cycle < 0 && metrics.prefix_converged()) {
      result.prefix_converged_cycle = static_cast<int>(cycle);
    }
    if (metrics.converged()) {
      if (result.converged_cycle < 0) result.converged_cycle = static_cast<int>(cycle);
      if (config_.stop_at_convergence && !churn) break;
    }
  }

  if (sampler_ != nullptr) {
    sampler_->stop();
    result.metric_series = sampler_->take_series();
    sampler_.reset();
  }
  if (trace_sink_ != nullptr) trace_sink_->flush();
  if (span_log_ != nullptr) {
    result.has_spans = true;
    result.span_summary = span_log_->summary();
  }
  if (profiler_ != nullptr) {
    result.has_profile = true;
    result.profile_summary = profiler_->summary();
    if (!profiler_->write_chrome_trace(config_.profile_path)) {
      BSVC_WARN("failed to write profile trace to %s", config_.profile_path.c_str());
    }
  }

  const BootstrapStats stats = merged_stats();
  result.bootstrap_stats = stats;
  result.traffic_during_bootstrap = engine.traffic();
  result.events_dispatched = engine.events_dispatched();
  const auto msgs = stats.requests_sent + stats.replies_sent;
  result.avg_message_bytes =
      msgs == 0 ? 0.0
                : static_cast<double>(stats.payload_bytes_sent) / static_cast<double>(msgs);
  result.max_message_bytes = stats.max_message_bytes;
  return result;
}

BootstrapStats BootstrapExperiment::merged_stats() const {
  BootstrapStats total;
  for (const StatsBlock& block : stats_blocks_) {
    const BootstrapStats& s = block.stats;
    total.requests_sent += s.requests_sent;
    total.replies_sent += s.replies_sent;
    total.messages_received += s.messages_received;
    total.entries_sent += s.entries_sent;
    total.payload_bytes_sent += s.payload_bytes_sent;
    total.max_message_bytes = std::max(total.max_message_bytes, s.max_message_bytes);
    total.select_peer_empty += s.select_peer_empty;
  }
  return total;
}

void BootstrapExperiment::reset_stats() {
  for (StatsBlock& block : stats_blocks_) block.stats = {};
}

const BootstrapProtocol& BootstrapExperiment::bootstrap_of(Address addr) const {
  return bootstrap_ref_.of(*engine_, addr);
}

}  // namespace bsvc
