// Chord on demand: bootstrapping a Chord ring + finger tables from scratch.
//
// The paper (§4) contrasts its prefix-table protocol with the authors'
// earlier work on jump-starting CHORD [9], whose routing state is defined by
// *distance in the ID space* instead of prefixes: finger i of node p is the
// first node at or past p + 2^i on the ring. This module implements that
// second instantiation of the bootstrapping service over the same
// architecture (peer sampling below, T-Man-style ring gossip, targeted
// finger candidates piggybacked on the exchanged messages), so the two
// designs can be compared under identical conditions (bench/chord_on_demand).
#pragma once

#include <cstdint>
#include <optional>

#include "core/config.hpp"
#include "core/leaf_set.hpp"
#include "core/perfect_tables.hpp"
#include "sampling/peer_sampler.hpp"
#include "sim/engine.hpp"
#include "sim/protocol.hpp"
#include "sim/slot_ref.hpp"

namespace bsvc {

/// Chord finger table: for each i in [0, 64), the first known node at ring
/// position >= own + 2^i (the "successor of own + 2^i"). Slots for small i
/// collapse onto the immediate successor; only distinct fingers are stored.
class FingerTable {
 public:
  explicit FingerTable(NodeId own);

  /// Offers a candidate: keeps it for every finger slot i where it lies in
  /// [own + 2^i, current best for i) — i.e. improves the slot toward the
  /// true successor of own + 2^i. Returns whether any slot improved.
  bool offer(const NodeDescriptor& d);

  /// Bulk offer; returns the number of slots improved.
  std::size_t offer_all(const DescriptorList& ds);

  /// Removes a node from every slot that holds it (dead-peer cleanup).
  bool remove(NodeId id);

  /// Current best for finger i (nullopt if no candidate yet).
  std::optional<NodeDescriptor> finger(int i) const;

  /// All distinct finger entries, deduplicated.
  DescriptorList entries() const;

  /// Number of filled slots (out of 64).
  std::size_t filled() const;

  NodeId own_id() const { return own_; }
  static constexpr int kBits = 64;

 private:
  NodeId own_;
  // best_[i].addr == kNullAddress means empty.
  std::array<NodeDescriptor, kBits> best_{};
};

/// Message of the Chord bootstrap: ring part + finger candidates for the
/// peer (nodes lying just past the peer's finger targets).
class ChordMessage final : public Payload {
 public:
  static constexpr PayloadKind kKind = PayloadKind::Chord;

  ChordMessage(NodeDescriptor sender, DescriptorList ring_part, DescriptorList finger_part,
               bool is_request)
      : Payload(kKind),
        sender(sender),
        ring_part(std::move(ring_part)),
        finger_part(std::move(finger_part)),
        is_request(is_request) {}

  std::size_t wire_bytes() const override;
  const char* type_name() const override { return "chord"; }
  const char* metric_tag() const override {
    return is_request ? "chord.request" : "chord.answer";
  }
  NodeDescriptor sender;
  DescriptorList ring_part;
  DescriptorList finger_part;
  bool is_request;
};

/// Per-node Chord bootstrap instance (mirrors BootstrapProtocol's shape,
/// with the paper's c = 20, cr = 30 and Δ).
class ChordBootstrapProtocol final : public Protocol {
 public:
  ChordBootstrapProtocol(PeerSampler* sampler, SimTime start_delay);

  void on_start(Context& ctx) override;
  void on_timer(Context& ctx, std::uint64_t timer_id) override;
  void on_message(Context& ctx, Address from, const Payload& payload) override;

  bool active() const { return leaf_.has_value(); }
  const LeafSet& leaf_set() const;
  const FingerTable& fingers() const;

  /// Builds the message for `peer_id` (public for tests/benches).
  std::unique_ptr<ChordMessage> create_message(NodeId peer_id, bool is_request);

 private:
  void init_tables();
  void active_step(Context& ctx);
  std::optional<NodeDescriptor> select_peer(Context& ctx);
  void update_from(const ChordMessage& msg);

  PeerSampler* sampler_;
  SimTime start_delay_;
  NodeDescriptor self_{};
  std::optional<LeafSet> leaf_;
  std::optional<FingerTable> fingers_;
  bool chain_started_ = false;
  int probe_cursor_ = 0;  // fix_fingers sweep position (0 = topmost slot)
};

/// Convergence metric for Chord: fraction of finger slots (over all nodes,
/// counting only slots whose true target exists and is distinct per node's
/// perfect table) not yet holding the exact successor of own + 2^i, plus
/// the leaf metric shared with the prefix experiments.
struct ChordMetrics {
  std::uint64_t finger_perfect = 0;
  std::uint64_t finger_present = 0;
  double missing_finger_fraction() const {
    return finger_perfect == 0
               ? 0.0
               : 1.0 - static_cast<double>(finger_present) / static_cast<double>(finger_perfect);
  }
  bool fingers_converged() const { return finger_present == finger_perfect; }
};

/// Measures finger correctness against the true membership.
class ChordOracle {
 public:
  ChordOracle(const Engine& engine, SlotRef<ChordBootstrapProtocol> chord_slot);

  ChordMetrics measure() const;

  /// True finger i of the given member: successor of id + 2^i.
  NodeDescriptor true_finger(NodeId id, int i) const;

 private:
  const Engine& engine_;
  SlotRef<ChordBootstrapProtocol> slot_;
  std::vector<NodeDescriptor> members_;  // sorted by id
};

}  // namespace bsvc
