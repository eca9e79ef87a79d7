#include "overlay/pastry_router.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace bsvc {

Address pastry_next_hop(NodeId own, Address own_addr, const LeafSet& leaf,
                        const PrefixTable& prefix, NodeId key,
                        const std::function<bool(const NodeDescriptor&)>& usable) {
  if (key == own || leaf.empty()) return own_addr;
  const auto ok = [&usable](const NodeDescriptor& d) { return !usable || usable(d); };

  // 1. Leaf-set range: if the key falls inside the ring segment the leaf set
  // covers, deliver to the numerically closest of self and leaf entries.
  const auto& succ = leaf.successors();
  const auto& pred = leaf.predecessors();
  const bool in_succ_range =
      !succ.empty() && successor_distance(own, key) <= successor_distance(own, succ.back().id);
  const bool in_pred_range =
      !pred.empty() &&
      predecessor_distance(own, key) <= predecessor_distance(own, pred.back().id);
  if (in_succ_range || in_pred_range) {
    NodeId best_id = own;
    Address best_addr = own_addr;
    for (const auto& list : {&succ, &pred}) {
      for (const auto& d : *list) {
        if (ok(d) && closer_on_ring(key, d.id, best_id)) {
          best_id = d.id;
          best_addr = d.addr;
        }
      }
    }
    return best_addr;
  }

  // 2. Prefix table: a node sharing a strictly longer prefix with the key.
  const int l = common_prefix_digits(own, key, prefix.digits());
  {
    const int j = digit(key, l, prefix.digits());
    DescriptorList cell = prefix.cell(l, j);
    cell.erase(std::remove_if(cell.begin(), cell.end(),
                              [&ok](const NodeDescriptor& d) { return !ok(d); }),
               cell.end());
    if (!cell.empty()) {
      // Any entry works; prefer the one numerically closest to the key.
      const auto it =
          std::min_element(cell.begin(), cell.end(),
                           [key](const NodeDescriptor& a, const NodeDescriptor& b) {
                             return closer_on_ring(key, a.id, b.id);
                           });
      return it->addr;
    }
  }

  // 3. Rare case: any known node with at least as long a common prefix that
  // is numerically closer to the key than we are.
  NodeId best_id = own;
  Address best_addr = own_addr;
  const auto consider = [&](const NodeDescriptor& d) {
    if (ok(d) && common_prefix_digits(d.id, key, prefix.digits()) >= l &&
        closer_on_ring(key, d.id, best_id)) {
      best_id = d.id;
      best_addr = d.addr;
    }
  };
  for (const auto& d : succ) consider(d);
  for (const auto& d : pred) consider(d);
  for (const auto& d : prefix.entries()) consider(d);
  return best_addr;
}

PastryRouter::PastryRouter(const Engine& engine, SlotRef<BootstrapProtocol> bootstrap_slot,
                           std::size_t max_hops)
    : engine_(engine), slot_(bootstrap_slot), max_hops_(max_hops) {}

Address PastryRouter::next_hop(Address node, NodeId key) const {
  const BootstrapProtocol& proto = slot_.of(engine_, node);
  if (!proto.active()) return node;
  // Liveness filter: a real router times out on a dead next hop and falls
  // back to the next-best candidate; the simulator knows liveness directly.
  const std::function<bool(const NodeDescriptor&)> usable =
      avoid_dead_ ? std::function<bool(const NodeDescriptor&)>(
                        [this](const NodeDescriptor& d) {
                          return d.addr < engine_.node_count() && engine_.is_alive(d.addr);
                        })
                  : nullptr;
  return pastry_next_hop(engine_.id_of(node), node, proto.leaf_set(), proto.prefix_table(), key,
                         usable);
}

RouteResult PastryRouter::route(Address start, NodeId key,
                                const ConvergenceOracle& oracle) const {
  RouteResult result;
  Address at = start;
  result.path.push_back(at);
  for (std::size_t hop = 0; hop < max_hops_; ++hop) {
    if (!engine_.is_alive(at)) return result;  // forwarded to a dead node
    const Address next = next_hop(at, key);
    if (next == at) {
      result.delivered = true;
      result.root = at;
      result.correct = oracle.owner_of(key).addr == at;
      return result;
    }
    at = next;
    result.path.push_back(at);
  }
  return result;  // hop budget exhausted (routing loop / broken tables)
}

LookupStats PastryRouter::run_lookups(const ConvergenceOracle& oracle, Rng& rng,
                                      std::size_t lookups) const {
  LookupStats stats;
  const auto& members = oracle.sorted_members();
  BSVC_CHECK(!members.empty());
  // Registry counters aggregate across calls; the LookupStats return value
  // stays per-call. The engine registry is mutable through const (see
  // Engine::metrics()).
  obs::MetricsRegistry& metrics = engine_.metrics();
  obs::Counter& ctr_attempted = metrics.counter("lookup.pastry.attempted");
  obs::Counter& ctr_correct = metrics.counter("lookup.pastry.correct");
  obs::HistogramMetric& hops_hist = metrics.histogram("lookup.pastry.hops", 0.0, 32.0, 32);
  double hop_sum = 0.0;
  for (std::size_t i = 0; i < lookups; ++i) {
    const Address start = members[rng.below(members.size())].addr;
    const NodeId key = rng.next_u64();
    const RouteResult r = route(start, key, oracle);
    ++stats.attempted;
    ctr_attempted.inc();
    if (r.delivered) {
      ++stats.delivered;
      if (r.correct) {
        ++stats.correct;
        ctr_correct.inc();
      }
      hop_sum += static_cast<double>(r.hops());
      hops_hist.add(static_cast<double>(r.hops()));
      stats.max_hops = std::max(stats.max_hops, r.hops());
    }
  }
  stats.avg_hops = stats.delivered == 0 ? 0.0 : hop_sum / static_cast<double>(stats.delivered);
  return stats;
}

}  // namespace bsvc
