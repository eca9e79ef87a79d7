// Fault-injection layer (src/fault): plan validation, partition
// symmetry, crash–recover semantics, duplication/reordering gating, the
// no-perturbation guarantee for inactive plans, cross-thread determinism of
// FaultPlan runs, and the bootstrap per-exchange timeout wiring.
#include "fault/fault_injector.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "bench/bench_common.hpp"
#include "core/experiment.hpp"
#include "fault/fault_plan.hpp"
#include "sim/engine.hpp"

namespace bsvc {
namespace {

TEST(FaultPlanValidate, RejectsMalformedSpecs) {
  FaultPlan plan;
  plan.link_loss.push_back({{10, 10}, kNullAddress, kNullAddress, 0.5});
  EXPECT_NE(plan.validate().find("empty"), std::string::npos);
  plan.link_loss.clear();

  plan.link_loss.push_back({{0, 10}, kNullAddress, kNullAddress, 1.5});
  EXPECT_NE(plan.validate().find("outside [0, 1]"), std::string::npos);
  plan.link_loss.clear();

  PartitionSpec mod;
  mod.window = {0, 10};
  mod.kind = PartitionSpec::Kind::Modulo;
  mod.value = 1;
  plan.partitions.push_back(mod);
  EXPECT_NE(plan.validate().find("at least 2"), std::string::npos);
  plan.partitions.clear();

  LatencySpec pareto;
  pareto.window = {0, 10};
  pareto.mode = LatencySpec::Mode::Pareto;
  pareto.scale = 0.0;
  plan.latency.push_back(pareto);
  EXPECT_NE(plan.validate().find("scale"), std::string::npos);
  plan.latency.clear();

  plan.crashes.push_back({{0, 10}, kNullAddress, 1.5});
  EXPECT_NE(plan.validate().find("(0, 1]"), std::string::npos);
  plan.crashes.clear();

  EXPECT_EQ(plan.validate(), "");
  EXPECT_TRUE(plan.empty());
}

// --- engine-level behavior ------------------------------------------------

/// Minimal payload for engine-level fault tests.
class IntPayload final : public Payload {
 public:
  explicit IntPayload(int v) : value(v) {}
  std::size_t wire_bytes() const override { return 4; }
  const char* type_name() const override { return "int"; }
  int value;
};

/// Records deliveries and timer fires.
class Recorder final : public Protocol {
 public:
  struct Event {
    SimTime time;
    int value;  // message value, or -1 for a timer
  };
  void on_start(Context&) override {}
  void on_timer(Context& ctx, std::uint64_t) override {
    events.push_back({ctx.now(), -1});
  }
  void on_message(Context& ctx, Address, const Payload& p) override {
    if (const auto* ip = dynamic_cast<const IntPayload*>(&p)) {  // test double
      events.push_back({ctx.now(), ip->value});
    }
  }
  std::vector<Event> events;
};

/// N-node engine with zero base drop and fixed latency 10.
struct FaultRig {
  explicit FaultRig(std::size_t n, std::uint64_t seed = 1)
      : engine(seed, TransportConfig{0.0, 10, 10}) {
    for (std::size_t i = 0; i < n; ++i) {
      const Address a = engine.add_node(100 + i);
      engine.attach(a, std::make_unique<Recorder>());
      engine.start_node(a);
    }
    engine.run_until(1);  // flush the starts
  }
  Recorder& at(Address a) { return dynamic_cast<Recorder&>(engine.protocol(a, 0)); }  // test-only checked cast
  Engine engine;
};

TEST(FaultInjection, PartitionBlocksBothDirectionsAndHeals) {
  FaultRig rig(4);
  FaultPlan plan;
  PartitionSpec cut;
  cut.window = {100, 200};
  cut.kind = PartitionSpec::Kind::Cut;
  cut.value = 2;  // groups {0,1} and {2,3}
  plan.partitions.push_back(cut);
  FaultInjector injector(plan);
  injector.install(rig.engine);

  // Cross-cut sends inside the window, both directions, plus a same-group
  // control; then the same cross-cut pair after the heal.
  rig.engine.schedule_call(150 - rig.engine.now(), [](Engine& e) {
    e.send_message(0, 2, 0, std::make_unique<IntPayload>(1));  // cross, a -> b
    e.send_message(2, 0, 0, std::make_unique<IntPayload>(2));  // cross, b -> a
    e.send_message(0, 1, 0, std::make_unique<IntPayload>(3));  // same group
  });
  rig.engine.schedule_call(250 - rig.engine.now(), [](Engine& e) {
    e.send_message(0, 2, 0, std::make_unique<IntPayload>(4));  // healed
  });
  rig.engine.run_until(1000);

  ASSERT_EQ(rig.at(2).events.size(), 1u);  // only the post-heal message
  EXPECT_EQ(rig.at(2).events[0].value, 4);
  EXPECT_TRUE(rig.at(0).events.empty());  // cross message never arrived
  ASSERT_EQ(rig.at(1).events.size(), 1u);  // same-group unaffected
  EXPECT_EQ(rig.at(1).events[0].value, 3);
  EXPECT_EQ(rig.engine.metrics().counter("fault.partition.dropped").value(), 2u);
  // The gauge flipped up at 100 and back down at 200.
  EXPECT_DOUBLE_EQ(rig.engine.metrics().gauge("fault.partition.active").value(), 0.0);
}

TEST(FaultInjection, CrashRecoverKeepsStateAndDefersTimers) {
  FaultRig rig(2);
  FaultPlan plan;
  plan.crashes.push_back({{100, 300}, 1, 0.0});  // node 1 dark for [100, 300)
  FaultInjector injector(plan);
  injector.install(rig.engine);

  // Delivered before the window; lost during it; delivered after recovery.
  rig.engine.schedule_call(50 - rig.engine.now(), [](Engine& e) {
    e.send_message(0, 1, 0, std::make_unique<IntPayload>(1));
  });
  rig.engine.schedule_call(150 - rig.engine.now(), [](Engine& e) {
    e.send_message(0, 1, 0, std::make_unique<IntPayload>(2));
    // A timer due at 180 — deferred to the recovery time, not discarded.
    e.schedule_timer(1, 0, 20, 7);
  });
  rig.engine.schedule_call(400 - rig.engine.now(), [](Engine& e) {
    e.send_message(0, 1, 0, std::make_unique<IntPayload>(3));
  });
  rig.engine.run_until(1000);

  // Still alive the whole time (crash–recover, not kill), and the recorder's
  // pre-crash state survived.
  EXPECT_TRUE(rig.engine.is_alive(1));
  const auto& ev = rig.at(1).events;
  ASSERT_EQ(ev.size(), 3u);
  EXPECT_EQ(ev[0].value, 1);       // pre-crash delivery retained
  EXPECT_EQ(ev[1].value, -1);      // the deferred timer...
  EXPECT_EQ(ev[1].time, 300u);     // ...fired exactly at recovery
  EXPECT_EQ(ev[2].value, 3);       // post-recovery delivery
  EXPECT_EQ(rig.engine.metrics().counter("fault.dark.dropped").value(), 1u);
  EXPECT_EQ(rig.engine.metrics().counter("fault.dark.deferred").value(), 1u);
  EXPECT_EQ(rig.engine.metrics().counter("fault.crash").value(), 1u);
  EXPECT_EQ(rig.engine.metrics().counter("fault.recover").value(), 1u);
  EXPECT_EQ(rig.engine.metrics().histogram("fault.dark_time", 0, 1, 1).count(), 1u);
}

TEST(FaultInjection, DuplicationOnlyInWindow) {
  FaultRig rig(2);
  FaultPlan plan;
  plan.duplicates.push_back({{100, 200}, 1.0, 0});  // p=1, zero jitter
  FaultInjector injector(plan);
  injector.install(rig.engine);

  rig.engine.schedule_call(150 - rig.engine.now(), [](Engine& e) {
    e.send_message(0, 1, 0, std::make_unique<IntPayload>(1));
    e.send_message(0, 1, 0, std::make_unique<IntPayload>(2));
  });
  rig.engine.schedule_call(300 - rig.engine.now(), [](Engine& e) {
    e.send_message(0, 1, 0, std::make_unique<IntPayload>(3));  // window closed
  });
  rig.engine.run_until(1000);

  // values 1 and 2 twice each (original + duplicate), 3 once.
  int ones = 0, twos = 0, threes = 0;
  for (const auto& ev : rig.at(1).events) {
    ones += ev.value == 1;
    twos += ev.value == 2;
    threes += ev.value == 3;
  }
  EXPECT_EQ(ones, 2);
  EXPECT_EQ(twos, 2);
  EXPECT_EQ(threes, 1);
  EXPECT_EQ(rig.engine.traffic().messages_duplicated, 2u);
  EXPECT_EQ(rig.engine.metrics().counter("msg.dup").value(), 2u);
}

TEST(FaultInjection, ReorderingOnlyUnderActiveWindow) {
  FaultRig rig(2);
  FaultPlan plan;
  plan.reorders.push_back({{100, 200}, 1.0, 500});
  FaultInjector injector(plan);
  injector.install(rig.engine);

  rig.engine.schedule_call(50 - rig.engine.now(), [](Engine& e) {
    e.send_message(0, 1, 0, std::make_unique<IntPayload>(1));  // before window
  });
  rig.engine.run_until(99);
  EXPECT_EQ(rig.engine.metrics().counter("msg.reordered").value(), 0u);

  rig.engine.schedule_call(150 - rig.engine.now(), [](Engine& e) {
    e.send_message(0, 1, 0, std::make_unique<IntPayload>(2));  // inside
  });
  rig.engine.run_until(299);
  EXPECT_EQ(rig.engine.metrics().counter("msg.reordered").value(), 1u);

  rig.engine.schedule_call(300 - rig.engine.now(), [](Engine& e) {
    e.send_message(0, 1, 0, std::make_unique<IntPayload>(3));  // after
  });
  rig.engine.run_until(2000);
  EXPECT_EQ(rig.engine.metrics().counter("msg.reordered").value(), 1u);
  EXPECT_EQ(rig.at(1).events.size(), 3u);  // held back, never lost
}

// --- no-perturbation and determinism -------------------------------------

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

TEST(FaultDeterminism, InactivePlanDoesNotPerturbTheRun) {
  // A plan whose windows never open draws nothing from any RNG: the run must
  // be bit-identical to one with no fault model at all.
  ExperimentConfig base;
  base.n = 128;
  base.seed = 9;
  base.max_cycles = 8;
  base.stop_at_convergence = false;
  base.drop_probability = 0.2;

  ExperimentConfig planned = base;
  const SimTime far = 1'000'000'000;
  planned.fault_plan.partitions.push_back({{far, far + 100}, PartitionSpec::Kind::Cut, 64});
  planned.fault_plan.link_loss.push_back({{far, far + 100}, kNullAddress, kNullAddress, 1.0});
  planned.fault_plan.duplicates.push_back({{far, far + 100}, 1.0, 10});
  planned.fault_plan.reorders.push_back({{far, far + 100}, 1.0, 10});

  BootstrapExperiment a(base);
  BootstrapExperiment b(planned);
  EXPECT_NE(b.engine().fault_model(), nullptr);  // the hook IS installed
  const auto ra = a.run();
  const auto rb = b.run();
  EXPECT_EQ(series_hash(ra), series_hash(rb));
  EXPECT_EQ(ra.traffic_during_bootstrap.messages_sent,
            rb.traffic_during_bootstrap.messages_sent);
  EXPECT_EQ(ra.traffic_during_bootstrap.bytes_sent,
            rb.traffic_during_bootstrap.bytes_sent);
}

ExperimentConfig hostile_config(std::uint64_t seed) {
  ExperimentConfig cfg;
  cfg.n = 128;
  cfg.seed = seed;
  cfg.max_cycles = 12;
  cfg.stop_at_convergence = false;
  cfg.bootstrap.liveness = LivenessPolicy::Evict;
  cfg.bootstrap.tombstone_ttl_cycles = 4;
  const SimTime epoch = cfg.warmup_cycles * cfg.bootstrap.delta;
  const SimTime delta = cfg.bootstrap.delta;
  FaultPlan& plan = cfg.fault_plan;
  plan.partitions.push_back({{epoch + 2 * delta, epoch + 6 * delta},
                             PartitionSpec::Kind::Cut, 64});
  plan.link_loss.push_back({{epoch, epoch + 12 * delta}, kNullAddress, kNullAddress, 0.1});
  plan.duplicates.push_back({{epoch, epoch + 12 * delta}, 0.1, 100});
  plan.reorders.push_back({{epoch, epoch + 12 * delta}, 0.3, 300});
  plan.crashes.push_back({{epoch + 3 * delta, epoch + 8 * delta}, kNullAddress, 0.2});
  return cfg;
}

TEST(FaultDeterminism, PlanRunIsIdenticalAcrossThreadCounts) {
  // Four replicas with hostile plans, fanned out over 1 vs 4 worker threads:
  // byte-identical series either way (per-replica engines own everything,
  // including their injectors).
  std::vector<bench::ReplicaSpec> specs;
  for (std::size_t i = 0; i < 4; ++i) {
    bench::ReplicaSpec spec;
    spec.cfg = hostile_config(bench::replica_seed(21, i));
    spec.label = "replica " + std::to_string(i);
    specs.push_back(std::move(spec));
  }
  const auto seq = bench::run_replicas(specs, 1);
  const auto par = bench::run_replicas(specs, 4);
  ASSERT_EQ(seq.size(), par.size());
  for (std::size_t i = 0; i < seq.size(); ++i) {
    EXPECT_EQ(series_hash(seq[i].result), series_hash(par[i].result)) << "replica " << i;
    EXPECT_EQ(seq[i].result.traffic_during_bootstrap.messages_sent,
              par[i].result.traffic_during_bootstrap.messages_sent);
  }
  // And the same spec re-run is reproducible at all (not merely consistent).
  const auto again = bench::run_replicas({specs[0]}, 2);
  EXPECT_EQ(series_hash(again[0].result), series_hash(seq[0].result));
}

// --- bootstrap exchange timeout -------------------------------------------

TEST(ExchangeTimeout, FiresOnRealNonAnswersAndDemotes) {
  // Half the network goes dark mid-bootstrap: unanswered exchanges must trip
  // the per-exchange timeout and push the silent peers into the probe path.
  ExperimentConfig cfg;
  cfg.n = 64;
  cfg.seed = 5;
  cfg.max_cycles = 10;
  cfg.stop_at_convergence = false;
  cfg.bootstrap.liveness = LivenessPolicy::Evict;
  const SimTime epoch = cfg.warmup_cycles * cfg.bootstrap.delta;
  cfg.fault_plan.crashes.push_back(
      {{epoch + 2 * cfg.bootstrap.delta, epoch + 7 * cfg.bootstrap.delta}, kNullAddress, 0.5});
  BootstrapExperiment exp(cfg);
  exp.run();
  obs::MetricsRegistry& m = exp.engine().metrics();
  EXPECT_GT(m.counter("bootstrap.exchange_timeout").value(), 0u);
  // Timeouts feed the demotion path: the silent peers actually got probed.
  EXPECT_GT(m.counter("msg.sent.probe.request").value(), 0u);
}

TEST(ExchangeTimeout, SilentWithoutEviction) {
  // The timeout machinery belongs to the liveness policies: with liveness
  // Off, no timeout timers are scheduled even under heavy faults (the
  // golden-replay witnesses depend on this).
  ExperimentConfig cfg;
  cfg.n = 64;
  cfg.seed = 5;
  cfg.max_cycles = 8;
  cfg.stop_at_convergence = false;
  const SimTime epoch = cfg.warmup_cycles * cfg.bootstrap.delta;
  cfg.fault_plan.crashes.push_back(
      {{epoch + 2 * cfg.bootstrap.delta, epoch + 6 * cfg.bootstrap.delta}, kNullAddress, 0.5});
  BootstrapExperiment exp(cfg);
  exp.run();
  EXPECT_EQ(exp.engine().metrics().counter("bootstrap.exchange_timeout").value(), 0u);
}

TEST(FaultInteraction, EvictedCrashRecoverNodeIsReadmittedAfterProbe) {
  // Eviction composed with a crash–recover plan: the dark node stops
  // answering, gets condemned and tombstoned out of the overlay, and — once
  // it recovers and the tombstone expires — answers its next probe and is
  // re-admitted, so the network ends fully converged around it again.
  ExperimentConfig cfg;
  cfg.n = 64;
  cfg.seed = 7;
  cfg.max_cycles = 24;
  cfg.stop_at_convergence = false;
  cfg.bootstrap.liveness = LivenessPolicy::Evict;
  cfg.bootstrap.tombstone_ttl_cycles = 3;
  const SimTime delta = cfg.bootstrap.delta;
  const SimTime epoch = cfg.warmup_cycles * delta;
  const Address victim = 3;
  cfg.fault_plan.crashes.push_back({{epoch + 2 * delta, epoch + 8 * delta}, victim, 0.0});

  BootstrapExperiment exp(cfg);
  const auto result = exp.run();
  obs::MetricsRegistry& m = exp.engine().metrics();
  // The dark node was condemned while unresponsive...
  EXPECT_GT(m.counter("bootstrap.condemned").value(), 0u);
  // ...and after recovery it answered probes again.
  EXPECT_GT(m.counter("msg.sent.probe.reply").value(), 0u);
  EXPECT_TRUE(exp.engine().is_alive(victim));

  // Re-admission is visible in the others' leaf sets and in the oracle.
  std::size_t appearances = 0;
  for (Address a = 0; a < cfg.n; ++a) {
    if (a == victim) continue;
    for (const auto& d : exp.bootstrap_of(a).leaf_set().all()) {
      appearances += d.addr == victim;
    }
  }
  EXPECT_GT(appearances, 0u);
  EXPECT_LT(result.final_metrics.missing_leaf_fraction(), 0.01);
}

/// Runs a converged network through a 6-cycle latency spike that delays
/// every answer by `spike_cycles` Δ, under the given liveness policy;
/// returns the number of condemnations.
std::uint64_t condemned_under_spike(LivenessPolicy liveness, SimTime spike_cycles,
                                    double* missing_leaf) {
  ExperimentConfig cfg;
  cfg.n = 64;
  cfg.seed = 7;
  cfg.max_cycles = 24;
  cfg.stop_at_convergence = false;
  cfg.bootstrap.liveness = liveness;
  cfg.bootstrap.tombstone_ttl_cycles = 3;
  const SimTime delta = cfg.bootstrap.delta;
  const SimTime epoch = cfg.warmup_cycles * delta;
  LatencySpec spike;
  spike.window = {epoch + 4 * delta, epoch + 10 * delta};
  spike.mode = LatencySpec::Mode::Spike;
  spike.add = spike_cycles * delta;
  cfg.fault_plan.latency.push_back(spike);
  BootstrapExperiment exp(cfg);
  const auto result = exp.run();
  *missing_leaf = result.final_metrics.missing_leaf_fraction();
  return exp.engine().metrics().counter("bootstrap.condemned").value();
}

TEST(Suspicion, AdaptiveCondemnsNoMoreThanEvictUnderLatencySpikes) {
  // Every peer is slow but alive during the spike. Up to 2Δ late, answers
  // land before either policy gives up, so nobody is condemned. From 3Δ on
  // both policies condemn live peers: Evict after kProbeAttempts silent
  // probe rounds, Adaptive once suspicion reaches its threshold of 3 —
  // accrual only trims the count (147 vs 153 at 3Δ, 305 vs 320 at 4Δ for
  // this seed). Either way the overlay heals once the spike ends.
  for (const SimTime depth : {SimTime{1}, SimTime{2}, SimTime{3}, SimTime{4}}) {
    double missing_evict = 1.0, missing_adaptive = 1.0;
    const std::uint64_t evict =
        condemned_under_spike(LivenessPolicy::Evict, depth, &missing_evict);
    const std::uint64_t adaptive =
        condemned_under_spike(LivenessPolicy::Adaptive, depth, &missing_adaptive);
    if (depth <= 2) {
      EXPECT_EQ(evict, 0u) << "spike " << depth << " delta";
      EXPECT_EQ(adaptive, 0u) << "spike " << depth << " delta";
    } else {
      EXPECT_GT(evict, 0u) << "spike " << depth << " delta";  // the spike trips eviction
    }
    EXPECT_LE(adaptive, evict) << "spike " << depth << " delta";
    EXPECT_EQ(missing_evict, 0.0) << "spike " << depth << " delta";
    EXPECT_EQ(missing_adaptive, 0.0) << "spike " << depth << " delta";
  }
}

TEST(Suspicion, LevelsDecayOnAnswersAndAreObservable) {
  // A mild spike (answers two cycles late): silent rounds mark suspicion,
  // the late answers decay it back down, and nobody reaches the threshold.
  ExperimentConfig cfg;
  cfg.n = 64;
  cfg.seed = 7;
  cfg.max_cycles = 20;
  cfg.stop_at_convergence = false;
  cfg.bootstrap.liveness = LivenessPolicy::Adaptive;
  const SimTime delta = cfg.bootstrap.delta;
  const SimTime epoch = cfg.warmup_cycles * delta;
  LatencySpec spike;
  spike.window = {epoch + 4 * delta, epoch + 8 * delta};
  spike.mode = LatencySpec::Mode::Spike;
  spike.add = 2 * delta;
  cfg.fault_plan.latency.push_back(spike);
  BootstrapExperiment exp(cfg);
  exp.run();
  obs::MetricsRegistry& m = exp.engine().metrics();
  EXPECT_GT(m.counter("suspect.marked").value(), 0u);
  EXPECT_GT(m.counter("suspect.decayed").value(), 0u);
  EXPECT_EQ(m.counter("suspect.evicted").value(), 0u);
}

// --- TransportConfig validation -------------------------------------------

TEST(TransportValidation, ValidateCatchesBadConfigs) {
  TransportConfig ok;
  EXPECT_EQ(ok.validate(), "");
  TransportConfig bad_drop;
  bad_drop.drop_probability = 1.5;
  EXPECT_NE(bad_drop.validate().find("drop_probability"), std::string::npos);
  bad_drop.drop_probability = -0.1;
  EXPECT_NE(bad_drop.validate().find("drop_probability"), std::string::npos);
  TransportConfig bad_latency;
  bad_latency.min_latency = 200;
  bad_latency.max_latency = 100;
  EXPECT_NE(bad_latency.validate().find("max_latency"), std::string::npos);
  TransportConfig zero_lookahead;
  zero_lookahead.min_latency = 0;
  EXPECT_NE(zero_lookahead.validate().find("min_latency"), std::string::npos);
}

TEST(TransportValidationDeathTest, ExperimentSetupRejectsBadDrop) {
  ExperimentConfig cfg;
  cfg.n = 8;
  cfg.drop_probability = 1.5;
  EXPECT_EXIT({ BootstrapExperiment exp(cfg); }, ::testing::ExitedWithCode(2),
              "drop_probability");
}

TEST(TransportValidationDeathTest, ExperimentSetupRejectsInvalidPlan) {
  ExperimentConfig cfg;
  cfg.n = 8;
  LinkLossSpec loss;
  loss.window = {0, 1000};
  loss.drop_probability = 1.5;
  cfg.fault_plan.link_loss.push_back(loss);
  EXPECT_EXIT({ BootstrapExperiment exp(cfg); }, ::testing::ExitedWithCode(2),
              "invalid fault plan: loss p=1\\.5.* outside \\[0, 1\\]");
}

}  // namespace
}  // namespace bsvc
