// Sequential Pastry-style join: the conventional way to populate a DHT,
// used as the baseline the bootstrapping service is compared against
// (paper §6: bootstrapping a large network by individual joins is exactly
// what "known protocols do not support very well").
//
// The standard join procedure for node X through seed A:
//   1. X sends a join request to A, which is routed greedily to X's own ID;
//      every hop costs one message.
//   2. Hop i returns row i of its prefix table (one message each) — by
//      construction hop i shares at least i digits with X.
//   3. The root Z (numerically closest existing node) returns its leaf set.
//   4. X assembles its tables from the returned state and announces itself
//      to every node it now knows (one message each); recipients fold X into
//      their own tables.
// Joins are serialized through the network (a join must complete before the
// next begins — the well-known correctness requirement for concurrent
// Pastry joins is precisely what makes massive joins slow). Virtual time
// advances by one hop latency per message leg on the join's critical path.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/config.hpp"
#include "core/leaf_set.hpp"
#include "core/perfect_tables.hpp"
#include "core/prefix_table.hpp"

namespace bsvc {

/// Cumulative cost of all joins performed so far.
struct JoinCosts {
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;        // descriptor payloads, codec-sized
  std::uint64_t critical_time = 0;  // serialized makespan in ticks
  std::uint64_t total_route_hops = 0;
  std::uint64_t joins = 0;

  double avg_route_hops() const {
    return joins == 0 ? 0.0
                      : static_cast<double>(total_route_hops) / static_cast<double>(joins);
  }
};

/// Quality of the resulting tables versus ground truth over the final
/// membership (same metric definitions as the bootstrap experiments).
struct JoinQuality {
  double missing_leaf_fraction = 0.0;
  double missing_prefix_fraction = 0.0;
  double lookup_success_rate = 0.0;  // greedy Pastry routing over the tables
};

/// An in-memory DHT grown by sequential joins. Not engine-backed: join cost
/// is deterministic given the ID sequence, so the baseline counts messages
/// and critical-path latency directly.
class SequentialJoinNetwork {
 public:
  /// `hop_latency` is the per-message latency used for the makespan.
  SequentialJoinNetwork(BootstrapConfig config, std::uint64_t seed,
                        std::uint64_t hop_latency = 80);

  /// Joins one node; the first node founds the network for free.
  void join(const NodeDescriptor& descriptor);

  /// Joins `n` nodes with generated unique IDs (addresses 0..n-1).
  void grow(std::size_t n);

  const JoinCosts& costs() const { return costs_; }
  std::size_t size() const { return nodes_.size(); }

  /// Measures table quality over the current membership; `lookups` random
  /// greedy routes probe end-to-end usability.
  JoinQuality measure_quality(std::size_t lookups = 500);

  const LeafSet& leaf_of(std::size_t index) const { return nodes_[index]->leaf; }
  const PrefixTable& prefix_of(std::size_t index) const { return nodes_[index]->prefix; }

 private:
  struct JoinedNode {
    NodeDescriptor descriptor;
    LeafSet leaf;
    PrefixTable prefix;

    JoinedNode(const NodeDescriptor& d, const BootstrapConfig& cfg)
        : descriptor(d), leaf(d.id, cfg.c), prefix(d.id, cfg.digits, cfg.k) {}
  };

  /// Greedy route over joined nodes' tables; returns the path (start first).
  std::vector<std::size_t> route_to(std::size_t start, NodeId key) const;

  std::size_t index_of(Address addr) const;

  BootstrapConfig config_;
  Rng rng_;
  std::uint64_t hop_latency_;
  JoinCosts costs_;
  std::vector<std::unique_ptr<JoinedNode>> nodes_;
  std::vector<std::uint32_t> index_by_addr_;
};

}  // namespace bsvc
