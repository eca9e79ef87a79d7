// Pastry-style greedy prefix routing over bootstrapped tables.
//
// The paper's point is that the structures its service builds — leaf set +
// prefix table — are exactly what Pastry/Tapestry/Bamboo route with. This
// module implements the Pastry routing decision over the tables of a
// converged (or converging) network and checks lookups against the oracle's
// key ownership, quantifying how usable the network is at any point of the
// bootstrap. Routing is evaluated as a traversal over node tables (each hop
// corresponds to one message in a deployment).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/experiment.hpp"
#include "core/oracle.hpp"
#include "sim/engine.hpp"

namespace bsvc {

/// Outcome of routing one key from one start node.
struct RouteResult {
  bool delivered = false;       // reached a node that believes it is the root
  bool correct = false;         // that node is the oracle's owner of the key
  std::vector<Address> path;    // visited nodes, start first
  Address root = kNullAddress;  // final node
  std::size_t hops() const { return path.empty() ? 0 : path.size() - 1; }
};

/// Aggregate statistics over many lookups.
struct LookupStats {
  std::uint64_t attempted = 0;
  std::uint64_t delivered = 0;
  std::uint64_t correct = 0;
  double avg_hops = 0.0;
  std::size_t max_hops = 0;

  double success_rate() const {
    return attempted == 0 ? 0.0 : static_cast<double>(correct) / static_cast<double>(attempted);
  }
};

/// The Pastry routing decision over one node's tables: returns the next hop
/// for `key`, or `own_addr` when the node considers itself the root. Shared
/// by PastryRouter (engine-backed) and the sequential-join baseline (local
/// tables). Decision order: leaf-set range delivery, then a prefix-table
/// entry with a strictly longer common prefix, then (rare case) any known
/// node at least as prefix-close and numerically closer.
///
/// `usable` filters candidate entries (never applied to the node itself);
/// pass a liveness check to model the standard timeout-and-try-alternate
/// behaviour of deployed DHT routers, or nullptr to use every entry.
Address pastry_next_hop(NodeId own, Address own_addr, const LeafSet& leaf,
                        const PrefixTable& prefix, NodeId key,
                        const std::function<bool(const NodeDescriptor&)>& usable = nullptr);

/// Routes over the bootstrap protocols' current tables.
class PastryRouter {
 public:
  /// `max_hops` bounds traversals (loops indicate broken tables).
  PastryRouter(const Engine& engine, SlotRef<BootstrapProtocol> bootstrap_slot,
               std::size_t max_hops = 64);

  /// When true (default), routing skips table entries whose node is dead —
  /// the simulator's shorthand for timeout-and-try-alternate. Disable to
  /// route blindly over possibly stale tables.
  void set_avoid_dead(bool avoid) { avoid_dead_ = avoid; }

  /// The Pastry next hop at `node` for `key`; kNullAddress when `node`
  /// considers itself the root (no strictly better candidate known).
  Address next_hop(Address node, NodeId key) const;

  /// Full greedy traversal from `start`.
  RouteResult route(Address start, NodeId key, const ConvergenceOracle& oracle) const;

  /// Routes `lookups` random (start, key) pairs and aggregates.
  LookupStats run_lookups(const ConvergenceOracle& oracle, Rng& rng, std::size_t lookups) const;

 private:
  const Engine& engine_;
  SlotRef<BootstrapProtocol> slot_;
  std::size_t max_hops_;
  bool avoid_dead_ = true;
};

}  // namespace bsvc
