// ByzantineModel: the scripted adversary, built on the engine's FaultModel
// tamper hook.
//
// Executes an AdversaryPlan: a seeded subset of nodes misbehaves by
// poisoning gossip with fabricated ID/address bindings, flooding replies
// with colluder descriptors prefix-close to the victim (eclipse / hub
// attack), spoofing the sender ID, suppressing answers, and flipping bits
// on the wire. The model mutates *content* only — it never invents
// addresses the transport cannot deliver to (fabricated bindings pair fake
// IDs with real colluder addresses, exactly the attack a probe echo can
// expose) and it scans bit-flipped frames before delivery so a mutant that
// happens to parse can never smuggle an out-of-range address into a
// victim's tables.
//
// Tamper decisions draw from the sending node's transport stream (see
// FaultModel), so they are identical for every shard count; the plan-seeded
// private Rng only picks the adversary set and the sybil pools at install
// time. The same plan therefore replays identically over any base
// trajectory and across bench --threads settings. With no plan installed
// the engine's tamper hook is a no-op and the simulation stays
// bit-identical — the golden replays pin this down. Chains an
// already-installed FaultModel (e.g. a FaultInjector): on_send, on_payload
// and dark_until delegate, so crash plans compose with adversaries.
#pragma once

#include <memory>
#include <vector>

#include "adversary/adversary_plan.hpp"
#include "common/rng.hpp"
#include "fault/fault_model.hpp"
#include "id/descriptor.hpp"
#include "obs/metrics.hpp"

namespace bsvc {

class Engine;

class ByzantineModel : public FaultModel {
 public:
  explicit ByzantineModel(AdversaryPlan plan);

  /// Binds the model to `engine`: picks the adversary set (explicit
  /// addresses plus a seeded fraction of the population), builds the sybil
  /// pools, registers the adv.* metrics, captures any previously installed
  /// fault model as the inner delegate, and installs itself. Call once,
  /// before running; the model must outlive the engine's use of it.
  void install(Engine& engine);

  const AdversaryPlan& plan() const { return plan_; }
  const std::vector<Address>& adversaries() const { return adversaries_; }
  bool is_adversary(Address a) const {
    return a < adversary_mask_.size() && adversary_mask_[a] != 0;
  }

  /// Fraction of `entries` the adversary controls: the address belongs to
  /// the adversary set, or the ID is not the true ID of the node at that
  /// address (a fabricated binding). Benches aggregate this per honest node
  /// into the eclipse-rate series.
  double controlled_fraction(const DescriptorList& entries) const;

  // --- FaultModel ---------------------------------------------------------
  SendDecision on_send(SimTime now, Address from, Address to, Rng& rng) override;
  SimTime dark_until(SimTime now, Address addr) const override;
  /// The chained inner model gets the first verdict; an undisturbed message
  /// then faces the tamper logic. The model's own state stays read-only
  /// inside windows.
  TamperVerdict on_payload(SimTime now, Address from, Address to, const Payload& payload,
                           Rng& rng) override;

 private:
  /// The tamper logic proper; `rng` is the sender's transport stream.
  TamperVerdict tamper(SimTime now, Address from, Address to, const Payload& payload,
                       Rng& rng);
  /// An ID sharing a long prefix with `victim` (low bits re-randomized).
  NodeId near_id(NodeId victim, Rng& rng);
  /// 1–3 bit flips on the encoded frame; Corrupt when the mutant no longer
  /// parses or would carry an undeliverable address, Replace otherwise.
  TamperVerdict corrupt_frame(const Payload& payload, Rng& rng);
  /// True when every address the payload carries is deliverable.
  bool addresses_deliverable(const Payload& payload) const;

  AdversaryPlan plan_;
  // Install-time only: picks the adversary set and the sybil pools.
  Rng rng_;
  Engine* engine_ = nullptr;
  FaultModel* inner_ = nullptr;  // chained benign model (may be null)
  std::vector<Address> adversaries_;
  std::vector<std::uint8_t> adversary_mask_;
  // Fixed sybil pools: fabricated IDs bound to colluder addresses (see
  // AdversaryPlan::pool_size), built once at install and read-only after.
  // Adversary a's i-th fabricated identity is sybil_pool_[pool_base_[a] + i];
  // pool_base_ is indexed by address, like adversary_mask_.
  std::vector<NodeDescriptor> sybil_pool_;
  std::vector<std::size_t> pool_base_;

  // Metric handles, bound at install().
  obs::Counter* poisoned_ = nullptr;    // adv.poisoned (descriptors swapped)
  obs::Counter* eclipsed_ = nullptr;    // adv.eclipsed (flood descriptors)
  obs::Counter* spoofed_ = nullptr;     // adv.spoofed (sender rewrites)
  obs::Counter* suppressed_ = nullptr;  // adv.suppressed (answers withheld)
  obs::Counter* corrupted_ = nullptr;   // adv.corrupted (frames bit-flipped)
};

/// Convenience: builds a model for `plan` and installs it into `engine`.
/// Returns nullptr (and installs nothing) when the plan is empty, so callers
/// can thread an optional plan straight through. Aborts on an invalid plan —
/// validate earlier for a recoverable error.
std::unique_ptr<ByzantineModel> install_adversary_plan(Engine& engine,
                                                       const AdversaryPlan& plan);

}  // namespace bsvc
