// Kademlia-style iterative lookup over bootstrapped tables.
//
// Kademlia is the second family the paper names as a consumer of prefix
// tables: with b bits per digit, cell row i is the generalized k-bucket of
// nodes at XOR distance 2^(64-b(i+1)) .. 2^(64-bi). This module runs the
// iterative FIND_NODE procedure — query the α closest known nodes to the
// target, merge their answers, repeat until no progress — using each queried
// node's bootstrap tables as its contact store, and validates the result
// against the true global XOR-closest node. Each query round-trip counts as
// two messages in a deployment.
#pragma once

#include <cstdint>
#include <vector>

#include "core/experiment.hpp"
#include "core/oracle.hpp"
#include "sim/engine.hpp"

namespace bsvc {

/// XOR metric (Kademlia distance).
inline NodeId xor_distance(NodeId a, NodeId b) { return a ^ b; }

struct KademliaResult {
  NodeDescriptor closest{};       // best node found
  bool exact = false;             // equals the global XOR-closest node
  std::size_t queries = 0;        // nodes contacted
  std::size_t rounds = 0;
};

struct KademliaStats {
  std::uint64_t attempted = 0;
  std::uint64_t exact = 0;
  double avg_queries = 0.0;
  double exact_rate() const {
    return attempted == 0 ? 0.0 : static_cast<double>(exact) / static_cast<double>(attempted);
  }
};

class KademliaLookup {
 public:
  KademliaLookup(const Engine& engine, SlotRef<BootstrapProtocol> bootstrap_slot);

  /// Iterative FIND_NODE for `target` starting from `origin`'s tables.
  KademliaResult find_node(Address origin, NodeId target, const ConvergenceOracle& oracle) const;

  /// Runs `lookups` random lookups from random origins.
  KademliaStats run_lookups(const ConvergenceOracle& oracle, Rng& rng, std::size_t lookups) const;

 private:
  /// A node's answer: its k closest known contacts to `target` (k = 8).
  std::vector<NodeDescriptor> closest_known(Address node, NodeId target) const;

  const Engine& engine_;
  SlotRef<BootstrapProtocol> slot_;
};

}  // namespace bsvc
