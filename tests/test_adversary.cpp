// Adversary subsystem (src/adversary): plan validation, null-model golden
// safety (no plan / inactive plan perturbs nothing), deterministic replay,
// Byzantine behavior counters, composition with the fault injector, and the
// hardened bootstrap's recovery from poisoning and eclipse floods.
#include "adversary/byzantine_model.hpp"

#include <gtest/gtest.h>

#include <cstring>

#include "core/bootstrap.hpp"
#include "core/experiment.hpp"
#include "sim/engine.hpp"

namespace bsvc {
namespace {

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

ExperimentConfig small_config(std::uint64_t seed, std::size_t cycles,
                              bool hardened) {
  ExperimentConfig cfg;
  cfg.n = 128;
  cfg.seed = seed;
  cfg.max_cycles = cycles;
  cfg.stop_at_convergence = false;
  cfg.bootstrap.liveness = LivenessPolicy::Evict;
  cfg.bootstrap.tombstone_ttl_cycles = 6;
  cfg.bootstrap.harden = hardened;
  return cfg;
}

AdversaryPlan full_mix_plan(const ExperimentConfig& cfg, double fraction) {
  AdversaryPlan plan;
  plan.fraction = fraction;
  plan.window.start = cfg.warmup_cycles * cfg.bootstrap.delta;
  plan.poison = true;
  plan.pool_size = 8;
  plan.eclipse = true;
  plan.spoof = true;
  plan.suppress_probability = 0.3;
  plan.corrupt_probability = 0.05;
  return plan;
}

// --- plan validation -------------------------------------------------------

TEST(AdversaryPlanValidate, RejectsMalformedPlans) {
  AdversaryPlan plan;
  EXPECT_EQ(plan.validate(), "");
  EXPECT_TRUE(plan.empty());

  plan.fraction = 1.5;
  EXPECT_NE(plan.validate().find("fraction"), std::string::npos);
  plan.fraction = 0.1;

  plan.suppress_probability = -0.5;
  EXPECT_NE(plan.validate().find("suppress"), std::string::npos);
  plan.suppress_probability = 0.0;

  plan.corrupt_probability = 2.0;
  EXPECT_NE(plan.validate().find("corrupt"), std::string::npos);
  plan.corrupt_probability = 0.0;

  plan.window = {100, 50};
  EXPECT_NE(plan.validate().find("window"), std::string::npos);
  plan.window = {100, 0};  // end == 0: open-ended, valid
  EXPECT_EQ(plan.validate(), "");

  plan.poison = true;
  plan.pool_size = 0;
  EXPECT_NE(plan.validate().find("pool"), std::string::npos);
  plan.pool_size = 4;
  EXPECT_EQ(plan.validate(), "");
  EXPECT_FALSE(plan.empty());
}

TEST(AdversaryPlanValidate, ActiveWindowSemantics) {
  AdversaryPlan plan;
  plan.window = {100, 200};
  EXPECT_FALSE(plan.active_at(99));
  EXPECT_TRUE(plan.active_at(100));
  EXPECT_TRUE(plan.active_at(199));
  EXPECT_FALSE(plan.active_at(200));
  plan.window = {100, 0};  // open-ended
  EXPECT_TRUE(plan.active_at(1'000'000'000));
}

// --- null-model safety -----------------------------------------------------

TEST(AdversaryNullModel, EmptyPlanInstallsNothing) {
  ExperimentConfig cfg = small_config(3, 4, false);
  BootstrapExperiment exp(cfg);
  ASSERT_EQ(exp.engine().fault_model(), nullptr);
  const auto model = install_adversary_plan(exp.engine(), AdversaryPlan{});
  EXPECT_EQ(model, nullptr);
  EXPECT_EQ(exp.engine().fault_model(), nullptr);
}

TEST(AdversaryNullModel, InactivePlanDoesNotPerturbTheRun) {
  // A model whose window never opens mutates nothing: the run must be
  // bit-identical to one with no adversary at all (the tamper hook and the
  // oracle's lie-aware slow path are both behavior-neutral for honest runs).
  ExperimentConfig cfg = small_config(9, 8, false);

  BootstrapExperiment plain(cfg);
  const auto plain_result = plain.run();

  BootstrapExperiment laced(cfg);
  AdversaryPlan plan = full_mix_plan(cfg, 0.10);
  plan.window.start = 1'000'000'000;  // far beyond the run
  const auto model = install_adversary_plan(laced.engine(), plan);
  ASSERT_NE(model, nullptr);
  EXPECT_EQ(laced.engine().fault_model(), model.get());
  const auto laced_result = laced.run();

  EXPECT_EQ(series_hash(plain_result), series_hash(laced_result));
  EXPECT_EQ(plain_result.traffic_during_bootstrap.messages_sent,
            laced_result.traffic_during_bootstrap.messages_sent);
  EXPECT_EQ(plain_result.traffic_during_bootstrap.bytes_sent,
            laced_result.traffic_during_bootstrap.bytes_sent);
  EXPECT_EQ(laced.engine().metrics().counter("adv.poisoned").value(), 0u);
}

// --- adversary set ---------------------------------------------------------

TEST(AdversarySet, FractionalPickIsSeededAndExplicitNodesJoin) {
  ExperimentConfig cfg = small_config(4, 2, false);
  AdversaryPlan plan = full_mix_plan(cfg, 0.05);
  plan.nodes = {7, 9};

  BootstrapExperiment a(cfg);
  const auto ma = install_adversary_plan(a.engine(), plan);
  ASSERT_NE(ma, nullptr);
  // round(0.05 * 128) = 6 fractional picks, plus the two explicit nodes
  // (minus any overlap).
  EXPECT_GE(ma->adversaries().size(), 6u);
  EXPECT_LE(ma->adversaries().size(), 8u);
  EXPECT_TRUE(ma->is_adversary(7));
  EXPECT_TRUE(ma->is_adversary(9));
  EXPECT_FALSE(ma->is_adversary(static_cast<Address>(cfg.n + 100)));

  // The same plan over a fresh engine picks the same set.
  BootstrapExperiment b(cfg);
  const auto mb = install_adversary_plan(b.engine(), plan);
  EXPECT_EQ(ma->adversaries(), mb->adversaries());
}

TEST(AdversarySet, ControlledFractionDetectsFabricatedBindings) {
  ExperimentConfig cfg = small_config(4, 2, false);
  BootstrapExperiment exp(cfg);
  AdversaryPlan plan;
  plan.nodes = {5};
  plan.poison = true;
  const auto model = install_adversary_plan(exp.engine(), plan);
  ASSERT_NE(model, nullptr);

  const Address honest = 11;
  ASSERT_FALSE(model->is_adversary(honest));
  const NodeId honest_id = exp.engine().id_of(honest);
  const DescriptorList entries = {
      {honest_id, honest},                  // truthful binding: not controlled
      {honest_id ^ 1, honest},              // fabricated binding: controlled
      {exp.engine().id_of(5), 5},           // adversary address: controlled
  };
  EXPECT_DOUBLE_EQ(model->controlled_fraction(entries), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(model->controlled_fraction({}), 0.0);
}

// --- behavior and replay ---------------------------------------------------

TEST(AdversaryCow, TamperCopiesSharedPayloadInsteadOfMutatingIt) {
  // Fault-layer duplication shares one immutable payload between two queued
  // deliveries (a refcount bump). When the adversary then tampers with one
  // delivery, it must copy-on-write a fresh message; the sibling delivery
  // keeps reading the untouched original.
  Engine engine(7);
  for (std::uint64_t i = 0; i < 8; ++i) engine.add_node(1000 + i * 7);
  AdversaryPlan plan;
  plan.nodes = {0};
  plan.eclipse = true;  // always rewrites bootstrap payloads
  const auto model = install_adversary_plan(engine, plan);
  ASSERT_NE(model, nullptr);

  auto fresh = std::make_unique<BootstrapMessage>(engine.descriptor_of(0), true);
  fresh->reserve_entries(3);
  for (Address a = 2; a <= 4; ++a) fresh->append_ring_entry(engine.descriptor_of(a));
  const DescriptorList before(fresh->all_entries().begin(), fresh->all_entries().end());

  PayloadRef first = std::move(fresh);  // publish
  PayloadRef second = first;            // the duplicate delivery's handle
  ASSERT_EQ(first.get(), second.get());
  ASSERT_EQ(first.use_count(), 2u);

  Rng sender_stream(3);  // stands in for the sender's transport stream
  const auto verdict =
      model->on_payload(/*now=*/0, /*from=*/0, /*to=*/1, *first, sender_stream);
  ASSERT_EQ(verdict.action, FaultModel::TamperVerdict::Action::Replace);
  ASSERT_TRUE(verdict.replacement);
  EXPECT_NE(verdict.replacement.get(), first.get());

  const auto* untouched = payload_cast<BootstrapMessage>(second.get());
  ASSERT_NE(untouched, nullptr);
  ASSERT_EQ(untouched->entry_count(), before.size());
  const auto entries = untouched->all_entries();
  for (std::size_t i = 0; i < before.size(); ++i) EXPECT_EQ(entries[i], before[i]);
  // The replacement owns its own message: the shared original is still held
  // by exactly the two delivery handles.
  EXPECT_EQ(first.use_count(), 2u);
}

TEST(AdversaryBehavior, CountersTickAndReplayIsDeterministic) {
  const auto run_once = [](std::uint64_t* adv_counters, std::size_t n_counters) {
    ExperimentConfig cfg = small_config(21, 12, true);
    BootstrapExperiment exp(cfg);
    const AdversaryPlan plan = full_mix_plan(cfg, 0.10);
    const auto model = install_adversary_plan(exp.engine(), plan);
    const auto result = exp.run();
    const char* names[] = {"adv.poisoned",   "adv.eclipsed", "adv.spoofed",
                           "adv.suppressed", "adv.corrupted", "msg.corrupt"};
    for (std::size_t i = 0; i < n_counters; ++i) {
      adv_counters[i] = exp.engine().metrics().counter(names[i]).value();
    }
    return series_hash(result);
  };

  std::uint64_t first[6] = {0};
  std::uint64_t second[6] = {0};
  const auto h1 = run_once(first, 6);
  const auto h2 = run_once(second, 6);

  // Every behavior in the mix actually fired...
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_GT(first[i], 0u) << "counter index " << i;
  }
  // ...and the whole run replays bit-identically: same series, same counts.
  EXPECT_EQ(h1, h2);
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(first[i], second[i]) << "counter index " << i;
  }
}

TEST(AdversaryBehavior, ComposesWithFaultInjectorCrashPlan) {
  // A crash plan installed by the experiment, then the adversary layered on
  // top: the Byzantine model must delegate to the inner injector, so the
  // crash still happens while the adversary keeps attacking.
  ExperimentConfig cfg = small_config(31, 10, true);
  const SimTime epoch = cfg.warmup_cycles * cfg.bootstrap.delta;
  cfg.fault_plan.crashes.push_back(
      {{epoch + 2 * cfg.bootstrap.delta, epoch + 5 * cfg.bootstrap.delta}, 3, 0.0});

  BootstrapExperiment exp(cfg);
  ASSERT_NE(exp.engine().fault_model(), nullptr);  // the injector
  const auto model = install_adversary_plan(exp.engine(), full_mix_plan(cfg, 0.05));
  ASSERT_NE(model, nullptr);
  EXPECT_EQ(exp.engine().fault_model(), model.get());  // adversary on top
  exp.run();

  obs::MetricsRegistry& m = exp.engine().metrics();
  EXPECT_EQ(m.counter("fault.crash").value(), 1u);    // inner still fires
  EXPECT_EQ(m.counter("fault.recover").value(), 1u);
  EXPECT_GT(m.counter("adv.poisoned").value(), 0u);   // outer still attacks
}

// --- hardening -------------------------------------------------------------

TEST(AdversaryHardening, HardenedRunRecoversWhereUnhardenedDoesNot) {
  // f = 5% full mix, same engine seed: the unhardened run must end visibly
  // degraded, the hardened run must detect the attack (sanity rejections,
  // pin mismatches, quarantine) and end materially healthier.
  const auto run_with = [](bool hardened) {
    ExperimentConfig cfg = small_config(5, 30, hardened);
    BootstrapExperiment exp(cfg);
    const auto model = install_adversary_plan(exp.engine(), full_mix_plan(cfg, 0.05));
    const auto result = exp.run();
    struct Out {
      double missing_leaf;
      std::uint64_t sanity, pins, quarantined;
    } out;
    out.missing_leaf = result.final_metrics.missing_leaf_fraction();
    obs::MetricsRegistry& m = exp.engine().metrics();
    out.sanity = m.counter("bootstrap.sanity_rejected").value();
    out.pins = m.counter("bootstrap.pin_mismatch").value();
    out.quarantined = m.counter("quarantine.held").value();
    return out;
  };

  const auto unhardened = run_with(false);
  const auto hardened = run_with(true);

  // The unhardened network is badly damaged by the eclipse floods.
  EXPECT_GT(unhardened.missing_leaf, 0.5);
  EXPECT_EQ(unhardened.sanity, 0u);  // defenses off: nothing rejected

  // The hardened one fights back and ends far healthier.
  EXPECT_GT(hardened.sanity, 0u);
  EXPECT_GT(hardened.pins, 0u);
  EXPECT_GT(hardened.quarantined, 0u);
  EXPECT_LT(hardened.missing_leaf, unhardened.missing_leaf / 2.0);
}

TEST(AdversaryHardening, HardeningNeverRejectsHonestTraffic) {
  // With no adversary, the validation layer rejects nothing and convergence
  // is not slowed. (The trajectories need not be identical: probe echoes
  // carry the responder's true descriptor, which the hardened run adopts.)
  ExperimentConfig plain_cfg = small_config(13, 40, false);
  plain_cfg.stop_at_convergence = true;
  ExperimentConfig hard_cfg = small_config(13, 40, true);
  hard_cfg.stop_at_convergence = true;

  BootstrapExperiment plain(plain_cfg);
  BootstrapExperiment hard(hard_cfg);
  const auto plain_result = plain.run();
  const auto hard_result = hard.run();
  ASSERT_GE(plain_result.converged_cycle, 0);
  ASSERT_GE(hard_result.converged_cycle, 0);
  EXPECT_LE(hard_result.converged_cycle, plain_result.converged_cycle + 1);
  obs::MetricsRegistry& m = hard.engine().metrics();
  EXPECT_EQ(m.counter("bootstrap.sanity_rejected").value(), 0u);
  EXPECT_EQ(m.counter("bootstrap.pin_mismatch").value(), 0u);
  EXPECT_EQ(m.counter("quarantine.held").value(), 0u);
  EXPECT_EQ(m.counter("quarantine.rejected").value(), 0u);
  EXPECT_EQ(m.counter("newscast.rejected").value(), 0u);
}

}  // namespace
}  // namespace bsvc
