// Network proximity substrate and proximity-aware route selection.
//
// Reproduces the paper's §5 remark that "for networks that do not require
// multiple alternatives of a given table entry, setting k > 1 is still
// useful because it allows for optimizing the routes according to
// proximity" (Pastry's classic proximity neighbour selection). Since the
// simulation has no real network, proximity is synthesized: every node gets
// a point in a 2D plane and the one-way latency between two nodes is a base
// cost plus the Euclidean distance (a standard transit-stub stand-in that
// preserves the triangle-inequality structure PNS exploits).
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "core/oracle.hpp"
#include "overlay/pastry_router.hpp"
#include "sim/engine.hpp"

namespace bsvc {

/// Synthetic coordinate space assigning each node a 2D position.
class CoordinateSpace {
 public:
  /// Positions existing nodes uniformly in a `side` x `side` plane.
  /// `base_latency` models propagation/processing floor per message.
  CoordinateSpace(std::size_t node_count, Rng rng, double side = 1000.0,
                  double base_latency = 10.0);

  /// One-way latency between two nodes in ticks.
  SimTime latency(Address a, Address b) const;

  double side() const { return side_; }

 private:
  struct Point {
    double x = 0.0;
    double y = 0.0;
  };
  double side_;
  double base_latency_;
  std::vector<Point> points_;
};

/// Route-latency statistics over many lookups.
struct LatencyStats {
  double avg_route_latency = 0.0;  // summed per-hop latency, ticks
  double avg_hops = 0.0;
  double success_rate = 0.0;
};

/// Selection policy for prefix-table alternatives during routing.
enum class HopSelection {
  First,      // arbitrary entry (numerically closest to the key)
  Proximity,  // lowest-latency entry among the cell's k alternatives
};

/// Greedy Pastry routing instrumented with the coordinate space: accumulates
/// real per-hop latency and optionally applies proximity selection among
/// the k alternatives of each prefix cell.
class ProximityRouter {
 public:
  ProximityRouter(const Engine& engine, SlotRef<BootstrapProtocol> bootstrap_slot,
                  const CoordinateSpace& space, HopSelection selection);

  /// Routes one key; returns (delivered?, total latency, hops).
  struct Result {
    bool delivered = false;
    bool correct = false;
    double latency = 0.0;
    std::size_t hops = 0;
  };
  Result route(Address start, NodeId key, const ConvergenceOracle& oracle) const;

  /// Aggregates `lookups` random routes.
  LatencyStats run_lookups(const ConvergenceOracle& oracle, Rng& rng,
                           std::size_t lookups) const;

 private:
  Address next_hop(Address node, NodeId key) const;

  const Engine& engine_;
  SlotRef<BootstrapProtocol> slot_;
  const CoordinateSpace& space_;
  HopSelection selection_;
};

}  // namespace bsvc
