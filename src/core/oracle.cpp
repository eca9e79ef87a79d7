#include "core/oracle.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace bsvc {

std::vector<NodeDescriptor> ConvergenceOracle::alive_members(const Engine& engine) {
  std::vector<NodeDescriptor> members;
  const auto alive = engine.alive_addresses();
  members.reserve(alive.size());
  for (const Address addr : alive) members.push_back(engine.descriptor_of(addr));
  return members;
}

ConvergenceOracle::ConvergenceOracle(const Engine& engine, const BootstrapConfig& config,
                                     SlotRef<BootstrapProtocol> bootstrap_slot)
    : ConvergenceOracle(engine, alive_members(engine), config, bootstrap_slot) {}

ConvergenceOracle::ConvergenceOracle(const Engine& engine, std::vector<NodeDescriptor> members,
                                     const BootstrapConfig& config,
                                     SlotRef<BootstrapProtocol> bootstrap_slot)
    : engine_(engine), slot_(bootstrap_slot), tables_(std::move(members), config) {
  rank_by_addr_.assign(engine.node_count(), 0xFFFFFFFFu);
  const auto& sorted = tables_.sorted_members();
  for (std::size_t r = 0; r < sorted.size(); ++r) {
    rank_by_addr_[sorted[r].addr] = static_cast<std::uint32_t>(r);
  }
  // The membership is a proper subset of the alive set iff some alive node
  // is not a member (same size + all-alive members == identical sets).
  subset_ = sorted.size() != engine.alive_count();
  for (const auto& m : sorted) {
    if (!engine.is_alive(m.addr)) {
      subset_ = true;
      break;
    }
  }
}

ConvergenceMetrics ConvergenceOracle::measure(bool check_liveness) const {
  ConvergenceMetrics metrics;
  const auto& members = tables_.sorted_members();
  const std::size_t n = members.size();
  for (std::size_t rank = 0; rank < n; ++rank) {
    const Address addr = members[rank].addr;

    const PerfectTables::LeafSpan span = tables_.leaf_span(rank);
    metrics.leaf_perfect += span.succ_count + span.pred_count;
    metrics.prefix_perfect += tables_.perfect_prefix_total(rank);
    const BootstrapProtocol& proto = slot_.of(engine_, addr);
    if (!proto.active()) continue;  // tables not built yet: everything missing
    const LeafSet& node_leaf = proto.leaf_set();
    const PrefixTable& node_prefix = proto.prefix_table();

    // Leaf: two-pointer match of the actual per-direction lists (sorted by
    // directed distance) against the perfect contiguous rank spans.
    const NodeId p = members[rank].id;
    const auto count_matches = [&](DescriptorView actual, bool succ_dir,
                                   std::uint32_t perfect_count) {
      std::uint64_t matches = 0;
      std::size_t ai = 0;
      for (std::uint32_t s = 1; s <= perfect_count; ++s) {
        const std::size_t target_rank = succ_dir ? (rank + s) % n : (rank + n - s) % n;
        const NodeId target = members[target_rank].id;
        const NodeId target_dist =
            succ_dir ? successor_distance(p, target) : predecessor_distance(p, target);
        while (ai < actual.size()) {
          const NodeId actual_dist = succ_dir ? successor_distance(p, actual[ai].id)
                                              : predecessor_distance(p, actual[ai].id);
          if (actual_dist > target_dist) break;
          ++ai;
          if (actual_dist == target_dist) {
            ++matches;
            break;
          }
        }
      }
      return matches;
    };
    metrics.leaf_present += count_matches(node_leaf.successors(), true, span.succ_count);
    metrics.leaf_present += count_matches(node_leaf.predecessors(), false, span.pred_count);

    // Prefix: every held entry is a real node in its correct cell, and per
    // cell the count cannot exceed min(k, available), so the filled count is
    // directly comparable to the perfect total — as long as every entry is a
    // truthful member binding. Under churn or subset (partition)
    // measurement, entries pointing outside the membership must be
    // discounted; under a fault model, a Byzantine adversary may have
    // planted fabricated ID/address bindings, which never count as present.
    // The O(1) fast path (trusting filled()) is only sound when every entry
    // is necessarily a truthful member: no node has ever died, no fault
    // model is installed and the membership is the full alive set.
    const bool maybe_stale = engine_.alive_count() != engine_.node_count();
    if (check_liveness || subset_ || maybe_stale || engine_.fault_model() != nullptr) {
      std::uint64_t member_entries = 0;
      for (const auto& e : node_prefix.entries()) {
        const bool is_member =
            e.addr < rank_by_addr_.size() && rank_by_addr_[e.addr] != 0xFFFFFFFFu &&
            members[rank_by_addr_[e.addr]].id == e.id;
        if (!is_member) continue;
        if (check_liveness && !engine_.is_alive(e.addr)) continue;
        ++member_entries;
      }
      metrics.prefix_present += member_entries;
    } else {
      metrics.prefix_present += node_prefix.filled();
    }
  }
  BSVC_CHECK(metrics.leaf_present <= metrics.leaf_perfect);
  BSVC_CHECK(metrics.prefix_present <= metrics.prefix_perfect);
  return metrics;
}

std::vector<NodeId> ConvergenceOracle::perfect_leaf_ids(Address addr) const {
  return tables_.perfect_leaf_ids(rank_of(addr));
}

std::uint64_t ConvergenceOracle::perfect_prefix_total(Address addr) const {
  return tables_.perfect_prefix_total(rank_of(addr));
}

std::size_t ConvergenceOracle::rank_of(Address addr) const {
  BSVC_CHECK(addr < rank_by_addr_.size());
  const auto rank = rank_by_addr_[addr];
  BSVC_CHECK_MSG(rank != 0xFFFFFFFFu, "address is not an alive member");
  return rank;
}

}  // namespace bsvc
