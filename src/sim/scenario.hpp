// Scenario scripting: the "radical events" of the paper's vision — churn,
// catastrophic failure and massive joins — expressed as scheduled
// manipulations of the engine. Partitions and merges are FaultPlan
// partitions (fault/fault_plan.hpp): a cut whose window closes at the merge.
#pragma once

#include <functional>

#include "sim/engine.hpp"

namespace bsvc {

/// Creates one fully-stacked node (protocols attached, not yet started) and
/// returns its address. Scenario code starts it.
using NodeFactory = std::function<Address(Engine&)>;

/// Kills a uniformly random `fraction` of the currently alive nodes at time
/// `at` (the paper's catastrophic-failure model; Newscast tolerates up to
/// ~70%). Returns nothing; the kill happens when the engine reaches `at`.
void schedule_catastrophe(Engine& engine, SimTime at, double fraction);

/// Continuous churn: every `period` ticks between `from` and `to`, kills
/// `fail_rate`·alive random nodes and starts `join_rate`·alive fresh nodes
/// built by `factory`. Fractional expectations are realized by probabilistic
/// rounding so small rates still produce events.
struct ChurnConfig {
  SimTime from = 0;
  SimTime to = 0;
  SimTime period = kDelta;
  double fail_rate = 0.0;  // fraction of alive nodes per period
  double join_rate = 0.0;  // fraction of alive nodes per period
};

void schedule_churn(Engine& engine, const ChurnConfig& config, NodeFactory factory);

}  // namespace bsvc
