#include "fault/fault_plan.hpp"

#include <cmath>

namespace bsvc {

namespace {

bool valid_probability(double p) { return p >= 0.0 && p <= 1.0 && !std::isnan(p); }

std::string window_error(const char* what, const TimeWindow& w) {
  if (w.start < w.end) return "";
  return std::string(what) + " window [" + std::to_string(w.start) + ".." +
         std::to_string(w.end) + ") is empty (need start < end)";
}

}  // namespace

std::string FaultPlan::validate() const {
  for (const auto& p : partitions) {
    if (auto e = window_error("partition", p.window); !e.empty()) return e;
    if (p.kind == PartitionSpec::Kind::Modulo && p.value < 2) {
      return "partition mod=" + std::to_string(p.value) + " needs at least 2 groups";
    }
  }
  for (const auto& l : link_loss) {
    if (auto e = window_error("loss", l.window); !e.empty()) return e;
    if (!valid_probability(l.drop_probability)) {
      return "loss p=" + std::to_string(l.drop_probability) + " outside [0, 1]";
    }
  }
  for (const auto& l : latency) {
    if (auto e = window_error(l.mode == LatencySpec::Mode::Spike ? "delay" : "pareto",
                              l.window);
        !e.empty()) {
      return e;
    }
    if (l.mode == LatencySpec::Mode::Pareto) {
      if (!(l.scale > 0.0)) return "pareto scale must be > 0";
      if (!(l.alpha > 0.0)) return "pareto alpha must be > 0";
    }
  }
  for (const auto& d : duplicates) {
    if (auto e = window_error("dup", d.window); !e.empty()) return e;
    if (!valid_probability(d.probability)) {
      return "dup p=" + std::to_string(d.probability) + " outside [0, 1]";
    }
  }
  for (const auto& r : reorders) {
    if (auto e = window_error("reorder", r.window); !e.empty()) return e;
    if (!valid_probability(r.probability)) {
      return "reorder p=" + std::to_string(r.probability) + " outside [0, 1]";
    }
  }
  for (const auto& c : crashes) {
    if (auto e = window_error("crash", c.window); !e.empty()) return e;
    if (c.addr == kNullAddress && !(c.fraction > 0.0 && c.fraction <= 1.0)) {
      return "crash frac=" + std::to_string(c.fraction) + " outside (0, 1]";
    }
  }
  return "";
}

}  // namespace bsvc
