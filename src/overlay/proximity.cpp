#include "overlay/proximity.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"

namespace bsvc {

CoordinateSpace::CoordinateSpace(std::size_t node_count, Rng rng, double side,
                                 double base_latency)
    : side_(side), base_latency_(base_latency) {
  BSVC_CHECK(side > 0.0);
  points_.reserve(node_count);
  for (std::size_t i = 0; i < node_count; ++i) {
    points_.push_back({rng.uniform(0.0, side_), rng.uniform(0.0, side_)});
  }
}

SimTime CoordinateSpace::latency(Address a, Address b) const {
  BSVC_CHECK(a < points_.size() && b < points_.size());
  const double dx = points_[a].x - points_[b].x;
  const double dy = points_[a].y - points_[b].y;
  return static_cast<SimTime>(base_latency_ + std::sqrt(dx * dx + dy * dy));
}

ProximityRouter::ProximityRouter(const Engine& engine, SlotRef<BootstrapProtocol> bootstrap_slot,
                                 const CoordinateSpace& space, HopSelection selection)
    : engine_(engine), slot_(bootstrap_slot), space_(space), selection_(selection) {}

Address ProximityRouter::next_hop(Address node, NodeId key) const {
  const auto& proto = slot_.of(engine_, node);
  if (!proto.active()) return node;
  const NodeId own = engine_.id_of(node);
  const auto& prefix = proto.prefix_table();

  if (selection_ == HopSelection::Proximity && key != own && !proto.leaf_set().empty()) {
    // Apply proximity selection only on the prefix-table step (the leaf-set
    // delivery step has a unique correct target); fall through to the
    // default decision when the cell is empty.
    const auto& leaf = proto.leaf_set();
    const auto& succ = leaf.successors();
    const auto& pred = leaf.predecessors();
    const bool in_leaf_range =
        (!succ.empty() &&
         successor_distance(own, key) <= successor_distance(own, succ.back().id)) ||
        (!pred.empty() &&
         predecessor_distance(own, key) <= predecessor_distance(own, pred.back().id));
    if (!in_leaf_range) {
      const int l = common_prefix_digits(own, key, prefix.digits());
      const int j = digit(key, l, prefix.digits());
      const DescriptorList cell = prefix.cell(l, j);
      if (!cell.empty()) {
        // All k alternatives advance the prefix match equally; take the one
        // with the lowest measured latency from here.
        const auto it = std::min_element(
            cell.begin(), cell.end(), [&](const NodeDescriptor& a, const NodeDescriptor& b) {
              return space_.latency(node, a.addr) < space_.latency(node, b.addr);
            });
        return it->addr;
      }
    }
  }
  return pastry_next_hop(own, node, proto.leaf_set(), prefix, key);
}

ProximityRouter::Result ProximityRouter::route(Address start, NodeId key,
                                               const ConvergenceOracle& oracle) const {
  Result result;
  Address at = start;
  for (std::size_t hop = 0; hop < 64; ++hop) {
    const Address next = next_hop(at, key);
    if (next == at) {
      result.delivered = true;
      result.correct = oracle.owner_of(key).addr == at;
      return result;
    }
    result.latency += static_cast<double>(space_.latency(at, next));
    ++result.hops;
    at = next;
  }
  return result;
}

LatencyStats ProximityRouter::run_lookups(const ConvergenceOracle& oracle, Rng& rng,
                                          std::size_t lookups) const {
  LatencyStats stats;
  const auto& members = oracle.sorted_members();
  BSVC_CHECK(!members.empty());
  double latency_sum = 0.0;
  double hop_sum = 0.0;
  std::size_t delivered = 0;
  for (std::size_t i = 0; i < lookups; ++i) {
    const Address start = members[rng.below(members.size())].addr;
    const Result r = route(start, rng.next_u64(), oracle);
    if (r.delivered && r.correct) {
      ++delivered;
      latency_sum += r.latency;
      hop_sum += static_cast<double>(r.hops);
    }
  }
  stats.success_rate =
      lookups == 0 ? 0.0 : static_cast<double>(delivered) / static_cast<double>(lookups);
  stats.avg_route_latency = delivered == 0 ? 0.0 : latency_sum / static_cast<double>(delivered);
  stats.avg_hops = delivered == 0 ? 0.0 : hop_sum / static_cast<double>(delivered);
  return stats;
}

}  // namespace bsvc
