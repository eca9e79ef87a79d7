#include "overlay/chord.hpp"

#include <algorithm>
#include <unordered_set>

#include "common/assert.hpp"
#include "common/logging.hpp"
#include "id/descriptor.hpp"

namespace bsvc {

namespace {
constexpr std::uint64_t kInitTimer = 1;
constexpr std::uint64_t kActiveTimer = 2;

/// Ring neighbourhood size c (successor list + predecessor list).
constexpr std::size_t kRingSize = 20;
/// Random samples cr mixed into each message.
constexpr std::size_t kRandomSamples = 30;
/// A fix_fingers-style probe runs alongside each ring exchange: every cycle
/// the node also exchanges with its current best candidate for one high
/// finger slot, sweeping kProbeSpan slots from the top. Targets of the high
/// slots land in far, uniformly random regions that ring gossip never
/// covers; the candidate sits just past the target, so its reply — with its
/// own predecessor list in the union — corrects the slot to the exact
/// successor. Low slots resolve through ring knowledge alone. Costs one
/// extra message pair per node per cycle.
constexpr int kProbeSpan = 16;

bool id_less(const NodeDescriptor& d, NodeId id) { return d.id < id; }

/// First descriptor at ring position >= target (wrapping), in an id-sorted
/// list; nullopt for an empty list.
std::optional<NodeDescriptor> first_at_or_after(const std::vector<NodeDescriptor>& sorted,
                                                NodeId target) {
  if (sorted.empty()) return std::nullopt;
  const auto it = std::lower_bound(sorted.begin(), sorted.end(), target, id_less);
  return it == sorted.end() ? sorted.front() : *it;
}
}  // namespace

// --- FingerTable ---------------------------------------------------------

FingerTable::FingerTable(NodeId own) : own_(own) {
  for (auto& slot : best_) slot = {0, kNullAddress};
}

bool FingerTable::offer(const NodeDescriptor& d) {
  if (d.id == own_ || d.addr == kNullAddress) return false;
  bool improved = false;
  for (int i = 0; i < kBits; ++i) {
    const NodeId target = own_ + (NodeId{1} << i);  // wraps
    const NodeId dist = successor_distance(target, d.id);
    if (best_[static_cast<std::size_t>(i)].addr == kNullAddress ||
        dist < successor_distance(target, best_[static_cast<std::size_t>(i)].id)) {
      best_[static_cast<std::size_t>(i)] = d;
      improved = true;
    }
  }
  return improved;
}

std::size_t FingerTable::offer_all(const DescriptorList& ds) {
  std::size_t improved = 0;
  for (const auto& d : ds) {
    if (offer(d)) ++improved;
  }
  return improved;
}

bool FingerTable::remove(NodeId id) {
  bool removed = false;
  for (auto& slot : best_) {
    if (slot.addr != kNullAddress && slot.id == id) {
      slot = {0, kNullAddress};
      removed = true;
    }
  }
  return removed;
}

std::optional<NodeDescriptor> FingerTable::finger(int i) const {
  BSVC_CHECK(i >= 0 && i < kBits);
  const auto& slot = best_[static_cast<std::size_t>(i)];
  if (slot.addr == kNullAddress) return std::nullopt;
  return slot;
}

DescriptorList FingerTable::entries() const {
  DescriptorList out;
  for (const auto& slot : best_) {
    if (slot.addr == kNullAddress) continue;
    bool seen = false;
    for (const auto& e : out) seen |= e.id == slot.id;
    if (!seen) out.push_back(slot);
  }
  return out;
}

std::size_t FingerTable::filled() const {
  std::size_t n = 0;
  for (const auto& slot : best_) n += slot.addr != kNullAddress ? 1 : 0;
  return n;
}

// --- ChordMessage --------------------------------------------------------

std::size_t ChordMessage::wire_bytes() const {
  return kDescriptorWireBytes + 1 + descriptor_list_wire_bytes(ring_part.size()) +
         descriptor_list_wire_bytes(finger_part.size());
}

// --- ChordBootstrapProtocol ----------------------------------------------

ChordBootstrapProtocol::ChordBootstrapProtocol(PeerSampler* sampler, SimTime start_delay)
    : sampler_(sampler), start_delay_(start_delay) {
  BSVC_CHECK(sampler_ != nullptr);
}

void ChordBootstrapProtocol::on_start(Context& ctx) {
  self_ = {ctx.self_id(), ctx.self()};
  ctx.schedule_timer(start_delay_, kInitTimer);
}

void ChordBootstrapProtocol::on_timer(Context& ctx, std::uint64_t timer_id) {
  switch (timer_id) {
    case kInitTimer:
      init_tables();
      active_step(ctx);
      if (!chain_started_) {
        chain_started_ = true;
        ctx.schedule_timer(kDelta, kActiveTimer);
      }
      break;
    case kActiveTimer:
      active_step(ctx);
      ctx.schedule_timer(kDelta, kActiveTimer);
      break;
    default:
      BSVC_CHECK_MSG(false, "unknown timer");
  }
}

void ChordBootstrapProtocol::init_tables() {
  leaf_.emplace(self_.id, kRingSize);
  fingers_.emplace(self_.id);
  leaf_->update(sampler_->sample(kRingSize));
}

void ChordBootstrapProtocol::active_step(Context& ctx) {
  if (leaf_->empty()) {
    leaf_->update(sampler_->sample(kRingSize));
    if (leaf_->empty()) return;
  }
  const auto peer = select_peer(ctx);
  if (!peer) return;
  ctx.send(peer->addr, create_message(peer->id, /*is_request=*/true));

  const int slot = FingerTable::kBits - 1 - probe_cursor_;
  probe_cursor_ = (probe_cursor_ + 1) % kProbeSpan;
  const auto candidate = fingers_->finger(slot);
  if (candidate && candidate->id != self_.id && candidate->addr != peer->addr) {
    ctx.send(candidate->addr, create_message(candidate->id, /*is_request=*/true));
  }
}

std::optional<NodeDescriptor> ChordBootstrapProtocol::select_peer(Context& ctx) {
  // Same directional near-half selection as the prefix-table protocol (see
  // BootstrapProtocol::select_peer for why per-direction matters).
  const auto& succ = leaf_->successors();
  const auto& pred = leaf_->predecessors();
  const std::size_t ns = succ.empty() ? 0 : std::max<std::size_t>(1, succ.size() / 2);
  const std::size_t np = pred.empty() ? 0 : std::max<std::size_t>(1, pred.size() / 2);
  if (ns + np == 0) return std::nullopt;
  const std::size_t pick = ctx.rng().below(ns + np);
  return pick < ns ? succ[pick] : pred[pick - ns];
}

std::unique_ptr<ChordMessage> ChordBootstrapProtocol::create_message(NodeId peer_id,
                                                                     bool is_request) {
  DescriptorList un = leaf_->all();
  const DescriptorList samples = sampler_->sample(kRandomSamples);
  un.insert(un.end(), samples.begin(), samples.end());
  const DescriptorList finger_entries = fingers_->entries();
  un.insert(un.end(), finger_entries.begin(), finger_entries.end());
  un.push_back(self_);

  std::sort(un.begin(), un.end(),
            [](const NodeDescriptor& a, const NodeDescriptor& b) { return a.id < b.id; });
  un.erase(std::unique(un.begin(), un.end(),
                       [](const NodeDescriptor& a, const NodeDescriptor& b) {
                         return a.id == b.id;
                       }),
           un.end());
  un.erase(std::remove_if(un.begin(), un.end(),
                          [peer_id](const NodeDescriptor& d) { return d.id == peer_id; }),
           un.end());

  // Ring part: the peer's would-be leaf set (directional halves + top-up).
  DescriptorList succ, pred;
  for (const auto& d : un) (is_successor(peer_id, d.id) ? succ : pred).push_back(d);
  std::sort(succ.begin(), succ.end(),
            [peer_id](const NodeDescriptor& a, const NodeDescriptor& b) {
              return successor_distance(peer_id, a.id) < successor_distance(peer_id, b.id);
            });
  std::sort(pred.begin(), pred.end(),
            [peer_id](const NodeDescriptor& a, const NodeDescriptor& b) {
              return predecessor_distance(peer_id, a.id) < predecessor_distance(peer_id, b.id);
            });
  const std::size_t half = kRingSize / 2;
  std::size_t take_s = std::min(succ.size(), half);
  std::size_t take_p = std::min(pred.size(), half);
  std::size_t spare = kRingSize - take_s - take_p;
  const std::size_t extra_s = std::min(succ.size() - take_s, spare);
  take_s += extra_s;
  spare -= extra_s;
  take_p += std::min(pred.size() - take_p, spare);
  DescriptorList ring_part;
  ring_part.reserve(take_s + take_p);
  ring_part.insert(ring_part.end(), succ.begin(),
                   succ.begin() + static_cast<std::ptrdiff_t>(take_s));
  ring_part.insert(ring_part.end(), pred.begin(),
                   pred.begin() + static_cast<std::ptrdiff_t>(take_p));

  // Finger part: for each of the peer's finger targets, the best local
  // candidate (first at or past peer + 2^i). `un` is already id-sorted.
  DescriptorList finger_part;
  std::unordered_set<NodeId> shipped;
  for (const auto& d : ring_part) shipped.insert(d.id);
  for (int i = 0; i < FingerTable::kBits; ++i) {
    const NodeId target = peer_id + (NodeId{1} << i);
    const auto best = first_at_or_after(un, target);
    if (!best) break;
    if (shipped.insert(best->id).second) finger_part.push_back(*best);
  }

  return std::make_unique<ChordMessage>(self_, std::move(ring_part), std::move(finger_part),
                                        is_request);
}

void ChordBootstrapProtocol::on_message(Context& ctx, Address from, const Payload& payload) {
  const auto* msg = payload_cast<ChordMessage>(payload);
  if (msg == nullptr) {
    BSVC_WARN("chord: unexpected payload type %s", payload.type_name());
    return;
  }
  if (!active()) return;
  if (msg->is_request) {
    ctx.send(from, create_message(msg->sender.id, /*is_request=*/false));
  }
  update_from(*msg);
}

void ChordBootstrapProtocol::update_from(const ChordMessage& msg) {
  DescriptorList combined;
  combined.reserve(msg.ring_part.size() + msg.finger_part.size() + 1);
  combined.insert(combined.end(), msg.ring_part.begin(), msg.ring_part.end());
  combined.insert(combined.end(), msg.finger_part.begin(), msg.finger_part.end());
  combined.push_back(msg.sender);
  leaf_->update(combined);
  fingers_->offer_all(combined);
}

const LeafSet& ChordBootstrapProtocol::leaf_set() const {
  BSVC_CHECK_MSG(leaf_.has_value(), "protocol not yet activated");
  return *leaf_;
}

const FingerTable& ChordBootstrapProtocol::fingers() const {
  BSVC_CHECK_MSG(fingers_.has_value(), "protocol not yet activated");
  return *fingers_;
}

// --- ChordOracle ---------------------------------------------------------

ChordOracle::ChordOracle(const Engine& engine, SlotRef<ChordBootstrapProtocol> chord_slot)
    : engine_(engine), slot_(chord_slot) {
  for (const Address addr : engine.alive_addresses()) {
    members_.push_back(engine.descriptor_of(addr));
  }
  std::sort(members_.begin(), members_.end(),
            [](const NodeDescriptor& a, const NodeDescriptor& b) { return a.id < b.id; });
}

NodeDescriptor ChordOracle::true_finger(NodeId id, int i) const {
  BSVC_CHECK(!members_.empty());
  const NodeId target = id + (NodeId{1} << i);
  const auto hit = first_at_or_after(members_, target);
  return *hit;
}

ChordMetrics ChordOracle::measure() const {
  ChordMetrics metrics;
  for (const auto& m : members_) {
    const auto& proto = slot_.of(engine_, m.addr);
    for (int i = 0; i < FingerTable::kBits; ++i) {
      const NodeDescriptor truth = true_finger(m.id, i);
      if (truth.id == m.id) continue;  // degenerate slot (self)
      ++metrics.finger_perfect;
      if (!proto.active()) continue;
      const auto got = proto.fingers().finger(i);
      if (got && got->id == truth.id) ++metrics.finger_present;
    }
  }
  return metrics;
}

}  // namespace bsvc
