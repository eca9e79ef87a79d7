#include "adversary/byzantine_model.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "core/bootstrap.hpp"
#include "sampling/newscast.hpp"
#include "sim/engine.hpp"
#include "wire/message_codec.hpp"

namespace bsvc {

namespace {
/// Minimum number of flood descriptors per eclipse reply (early messages may
/// carry few entries; the adversary pads to keep the flood effective).
constexpr std::size_t kEclipseFloor = 10;
/// Per-descriptor swap probability under poisoning: half the payload stays
/// truthful, so poisoned messages pass casual plausibility checks.
constexpr double kPoisonSwapProbability = 0.5;
}  // namespace

ByzantineModel::ByzantineModel(AdversaryPlan plan)
    : plan_(std::move(plan)), rng_(plan_.seed) {}

void ByzantineModel::install(Engine& engine) {
  const auto problem = plan_.validate();
  BSVC_CHECK_MSG(problem.empty(), "invalid adversary plan");
  engine_ = &engine;

  const auto n = engine.node_count();
  adversary_mask_.assign(n, 0);
  adversaries_.clear();
  for (const auto a : plan_.nodes) {
    if (a < n && adversary_mask_[a] == 0) {
      adversary_mask_[a] = 1;
      adversaries_.push_back(a);
    }
  }
  if (plan_.fraction > 0.0 && n > 0) {
    const auto universe = static_cast<std::uint32_t>(n);
    auto want = static_cast<std::uint32_t>(plan_.fraction * static_cast<double>(n) + 0.5);
    want = std::min(want, universe);
    for (const auto idx : rng_.distinct_indices(want, universe)) {
      if (adversary_mask_[idx] == 0) {
        adversary_mask_[idx] = 1;
        adversaries_.push_back(idx);
      }
    }
  }
  std::sort(adversaries_.begin(), adversaries_.end());

  // Fixed sybil pools: fabricated IDs at colluder addresses, round-robin so
  // every colluder fronts for a share of the fake identities. The RNG draw
  // order (one next_u64 per pooled identity, grouped by adversary) is pinned
  // by golden replays and must not change with the storage layout.
  sybil_pool_.clear();
  pool_base_.assign(n, 0);
  if (plan_.poison && !adversaries_.empty()) {
    std::size_t rr = 0;
    sybil_pool_.reserve(adversaries_.size() * plan_.pool_size);
    for (const auto a : adversaries_) {
      pool_base_[a] = sybil_pool_.size();
      for (std::size_t i = 0; i < plan_.pool_size; ++i) {
        sybil_pool_.push_back({rng_.next_u64(), adversaries_[rr++ % adversaries_.size()]});
      }
    }
  }

  auto& m = engine.metrics();
  poisoned_ = &m.counter("adv.poisoned");
  eclipsed_ = &m.counter("adv.eclipsed");
  spoofed_ = &m.counter("adv.spoofed");
  suppressed_ = &m.counter("adv.suppressed");
  corrupted_ = &m.counter("adv.corrupted");
  m.gauge("adv.nodes").set(static_cast<double>(adversaries_.size()));

  inner_ = engine.fault_model();
  engine.set_fault_model(this);
}

double ByzantineModel::controlled_fraction(const DescriptorList& entries) const {
  if (entries.empty()) return 0.0;
  std::size_t controlled = 0;
  for (const auto& d : entries) {
    if (d.addr >= engine_->node_count() || is_adversary(d.addr) ||
        engine_->id_of(d.addr) != d.id) {
      ++controlled;
    }
  }
  return static_cast<double>(controlled) / static_cast<double>(entries.size());
}

FaultModel::SendDecision ByzantineModel::on_send(SimTime now, Address from, Address to,
                                                 Rng& rng) {
  return inner_ != nullptr ? inner_->on_send(now, from, to, rng) : SendDecision{};
}

SimTime ByzantineModel::dark_until(SimTime now, Address addr) const {
  return inner_ != nullptr ? inner_->dark_until(now, addr) : 0;
}

NodeId ByzantineModel::near_id(NodeId victim, Rng& rng) {
  // Keep the top 44 bits (11 of 16 digits at b = 4): close enough that the
  // fake lands deep in the victim's prefix table and near it on the ring.
  constexpr int kLowBits = 20;
  constexpr NodeId kMask = (NodeId{1} << kLowBits) - 1;
  NodeId fake = victim;
  while (fake == victim) fake = (victim & ~kMask) | (rng.next_u64() & kMask);
  return fake;
}

bool ByzantineModel::addresses_deliverable(const Payload& payload) const {
  const auto n = engine_->node_count();
  const auto ok = [n](Address a) { return a < n; };
  if (const auto* b = payload_cast<BootstrapMessage>(&payload)) {
    if (!ok(b->sender.addr)) return false;
    for (const auto& d : b->all_entries()) {
      if (!ok(d.addr)) return false;
    }
    return true;
  }
  if (const auto* nw = payload_cast<NewscastMessage>(&payload)) {
    for (const auto& e : nw->entries) {
      if (!ok(e.descriptor.addr)) return false;
    }
    return true;
  }
  if (payload_cast<ProbeMessage>(&payload) != nullptr) return true;
  // A mutant of a type we cannot scan could smuggle an undeliverable
  // address; drop it instead.
  return false;
}

FaultModel::TamperVerdict ByzantineModel::corrupt_frame(const Payload& payload, Rng& rng) {
  TamperVerdict v;
  auto bytes = encode_message(payload);
  if (!bytes.has_value() || bytes->empty()) return v;  // no wire form
  const auto flips = 1 + rng.below(3);
  for (std::uint64_t i = 0; i < flips; ++i) {
    auto& b = (*bytes)[rng.below(bytes->size())];
    b = static_cast<std::uint8_t>(b ^ (1u << rng.below(8)));
  }
  corrupted_->inc();
  auto decoded = decode_message(*bytes);
  if (decoded != nullptr && addresses_deliverable(*decoded)) {
    v.action = TamperVerdict::Action::Replace;
    v.replacement = std::move(decoded);
  } else {
    v.action = TamperVerdict::Action::Corrupt;
  }
  return v;
}

FaultModel::TamperVerdict ByzantineModel::on_payload(SimTime now, Address from, Address to,
                                                     const Payload& payload, Rng& rng) {
  if (inner_ != nullptr) {
    auto v = inner_->on_payload(now, from, to, payload, rng);
    if (v.action != TamperVerdict::Action::Deliver) return v;
  }
  return tamper(now, from, to, payload, rng);
}

FaultModel::TamperVerdict ByzantineModel::tamper(SimTime now, Address from, Address to,
                                                 const Payload& payload, Rng& rng) {
  // Adversaries coordinate: traffic among colluders stays truthful.
  if (!plan_.active_at(now) || !is_adversary(from) || is_adversary(to)) return {};

  const auto* boot = payload_cast<BootstrapMessage>(&payload);
  const auto* news = payload_cast<NewscastMessage>(&payload);

  if (plan_.corrupt_probability > 0.0 && rng.chance(plan_.corrupt_probability)) {
    return corrupt_frame(payload, rng);
  }

  const bool is_answer = (boot != nullptr && !boot->is_request) ||
                         (news != nullptr && !news->is_request);
  if (is_answer && plan_.suppress_probability > 0.0 &&
      rng.chance(plan_.suppress_probability)) {
    suppressed_->inc();
    TamperVerdict v;
    v.action = TamperVerdict::Action::Suppress;
    return v;
  }

  if (boot != nullptr && (plan_.eclipse || plan_.poison || plan_.spoof)) {
    std::unique_ptr<BootstrapMessage> mutated;
    bool changed = false;
    if (plan_.eclipse) {
      // Hub attack: rebuild the payload as a flood of descriptors crafted
      // prefix-close to the victim, all fronted by colluders, so the
      // victim's leaf set and deep prefix cells fill with adversaries.
      const NodeId victim = engine_->id_of(to);
      const std::size_t fill = std::max(boot->entry_count(), kEclipseFloor);
      mutated = std::make_unique<BootstrapMessage>(boot->sender, boot->is_request);
      mutated->tombstones = boot->tombstones;
      mutated->reserve_entries(fill);
      for (std::size_t i = 0; i < fill; ++i) {
        mutated->append_ring_entry(
            {near_id(victim, rng),
             adversaries_[static_cast<std::size_t>(rng.below(adversaries_.size()))]});
      }
      eclipsed_->add(fill);
      changed = true;
    } else if (plan_.poison) {
      const std::size_t base = pool_base_[from];
      const auto entries = boot->all_entries();
      std::uint64_t swapped = 0;
      // Flat buffer is ring-then-prefix, so this walks the same descriptor
      // order (and draws the same randomness) as the old two-list sweep.
      // The clone is lazy — materialized on the first swap — so a delivery
      // the dice leave untouched never copies the descriptor set at all;
      // the swapped-in identities read from the sybil pool.
      for (std::size_t i = 0; i < entries.size(); ++i) {
        if (rng.chance(kPoisonSwapProbability)) {
          if (mutated == nullptr) mutated = std::make_unique<BootstrapMessage>(*boot);
          mutated->mutable_entries()[i] = sybil_pool_[base + rng.below(plan_.pool_size)];
          ++swapped;
        }
      }
      if (swapped != 0) {
        poisoned_->add(swapped);
        changed = true;
      }
    }
    if (plan_.spoof) {
      // Keep the truthful (unforgeable) address but claim an ID next to the
      // victim — the classic ID-spoofing wedge into its near-ring.
      if (mutated == nullptr) mutated = std::make_unique<BootstrapMessage>(*boot);
      mutated->sender.id = near_id(engine_->id_of(to), rng);
      spoofed_->inc();
      changed = true;
    }
    if (changed) {
      TamperVerdict v;
      v.action = TamperVerdict::Action::Replace;
      v.replacement = std::move(mutated);
      return v;
    }
    return {};
  }

  if (news != nullptr && plan_.poison) {
    const std::size_t base = pool_base_[from];
    std::unique_ptr<NewscastMessage> mutated;  // lazy, like the bootstrap path
    std::uint64_t swapped = 0;
    for (std::size_t i = 0; i < news->entries.size(); ++i) {
      if (rng.chance(kPoisonSwapProbability)) {
        if (mutated == nullptr) mutated = std::make_unique<NewscastMessage>(*news);
        auto& e = mutated->entries[i];
        e.descriptor = sybil_pool_[base + rng.below(plan_.pool_size)];
        // Freshness forgery: a future timestamp wins every dedupe, so the
        // fake sticks in unhardened views (hardened merges reject it).
        e.timestamp = now + kDelta;
        ++swapped;
      }
    }
    if (swapped != 0) {
      poisoned_->add(swapped);
      TamperVerdict v;
      v.action = TamperVerdict::Action::Replace;
      v.replacement = std::move(mutated);
      return v;
    }
  }

  return {};
}

std::unique_ptr<ByzantineModel> install_adversary_plan(Engine& engine,
                                                       const AdversaryPlan& plan) {
  if (plan.empty()) return nullptr;
  auto model = std::make_unique<ByzantineModel>(plan);
  model->install(engine);
  return model;
}

}  // namespace bsvc
