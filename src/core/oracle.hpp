// Convergence oracle: measures, against ground truth computed from global
// knowledge of the alive membership, the two "proportion of missing entries"
// metrics of the paper's Figures 3 and 4.
//
// The ground-truth math (perfect leaf spans, perfect prefix totals via one
// walk of the base-2^b digit trie over the sorted ID array) lives in
// PerfectTables; this class snapshots the engine's alive membership, binds
// the protocol instances, and compares.
#pragma once

#include <cstdint>
#include <vector>

#include "core/bootstrap.hpp"
#include "core/config.hpp"
#include "core/perfect_tables.hpp"
#include "sim/engine.hpp"
#include "sim/slot_ref.hpp"

namespace bsvc {

/// One measurement of the two convergence metrics.
struct ConvergenceMetrics {
  std::uint64_t leaf_perfect = 0;    // Σ perfect leaf entries over all nodes
  std::uint64_t leaf_present = 0;    // of those, how many nodes actually hold
  std::uint64_t prefix_perfect = 0;  // Σ perfect prefix entries
  std::uint64_t prefix_present = 0;

  /// The paper's y-axes.
  double missing_leaf_fraction() const {
    return leaf_perfect == 0
               ? 0.0
               : 1.0 - static_cast<double>(leaf_present) / static_cast<double>(leaf_perfect);
  }
  double missing_prefix_fraction() const {
    return prefix_perfect == 0
               ? 0.0
               : 1.0 - static_cast<double>(prefix_present) / static_cast<double>(prefix_perfect);
  }
  /// Perfect tables at all nodes (where each curve of Fig. 3/4 ends).
  bool leaf_converged() const { return leaf_present == leaf_perfect; }
  bool prefix_converged() const { return prefix_present == prefix_perfect; }
  bool converged() const { return leaf_converged() && prefix_converged(); }
};

class ConvergenceOracle {
 public:
  /// Snapshots the engine's alive membership and precomputes perfect
  /// structures. Reconstruct after membership changes.
  ConvergenceOracle(const Engine& engine, const BootstrapConfig& config,
                    SlotRef<BootstrapProtocol> bootstrap_slot);

  /// Same, but over an explicit member subset (e.g. one side of a
  /// partition). All members must be engine addresses with the bootstrap
  /// protocol at `bootstrap_slot`.
  ConvergenceOracle(const Engine& engine, std::vector<NodeDescriptor> members,
                    const BootstrapConfig& config, SlotRef<BootstrapProtocol> bootstrap_slot);

  /// Measures both metrics across all alive nodes that have an activated
  /// bootstrap protocol. If `check_liveness` is true (churn scenarios),
  /// table entries pointing at dead nodes do not count as present.
  ConvergenceMetrics measure(bool check_liveness = false) const;

  // --- exposed for tests and routing validation --------------------------

  /// Perfect leaf-set IDs of a node (successors then predecessors).
  std::vector<NodeId> perfect_leaf_ids(Address addr) const;
  /// Perfect prefix-entry total of a node.
  std::uint64_t perfect_prefix_total(Address addr) const;
  /// The alive membership sorted by ID.
  const std::vector<NodeDescriptor>& sorted_members() const {
    return tables_.sorted_members();
  }
  /// The node responsible for a key (see PerfectTables::owner_of).
  NodeDescriptor owner_of(NodeId key) const { return tables_.owner_of(key); }
  /// The underlying ground-truth computations.
  const PerfectTables& perfect() const { return tables_; }

 private:
  std::size_t rank_of(Address addr) const;

  static std::vector<NodeDescriptor> alive_members(const Engine& engine);

  const Engine& engine_;
  SlotRef<BootstrapProtocol> slot_;
  PerfectTables tables_;
  std::vector<std::uint32_t> rank_by_addr_;  // addr -> rank (or ~0)
  bool subset_ = false;  // membership differs from the engine's alive set
};

}  // namespace bsvc
