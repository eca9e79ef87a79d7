// Adversarial resilience: convergence and eclipse rate versus the Byzantine
// fraction f, with and without protocol hardening.
//
// Sweeps f in {0, 1%, 5%, 10%}. Each adversary runs the full behavior mix
// (ByzantineModel): descriptor poisoning from fixed sybil pools, eclipse
// floods prefix-close to the victim, sender-ID spoofing, answer suppression
// and wire corruption — layered over the liveness extension
// (LivenessPolicy::Evict), which the hardened runs reuse for probe-based
// verification. Every (f, hardened) pair runs on the same engine seed, so
// the base trajectory is shared and the curves isolate the adversary's and
// the hardening's effects.
//
// Per cycle, each honest node's leaf set is scored against the adversary
// set: the controlled fraction (adversary addresses or fabricated
// ID/address bindings) and the eclipse rate (honest nodes whose leaf set is
// >= half adversary-controlled). Both land as per-run series in the --json
// report ("adv.eclipse_rate", "adv.controlled_leaf_fraction") next to the
// sampled adv.* / quarantine.* / msg.corrupt counters.
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "adversary/byzantine_model.hpp"
#include "bench/bench_common.hpp"

using namespace bsvc;
using namespace bsvc::bench;

namespace {

struct AdvSpec {
  std::string label;
  std::string key;  // metric key prefix, e.g. "hardened_f5"
  double fraction = 0.0;
  bool hardened = false;
  ExperimentConfig cfg;
  AdversaryPlan plan;
};

struct AdvOutcome {
  ExperimentResult result;
  double final_eclipse_rate = 0.0;
  double final_controlled = 0.0;
  std::size_t adversary_count = 0;
};

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const std::size_t n =
      static_cast<std::size_t>(flags.get_int("n", static_cast<std::int64_t>(default_n(flags, 1, 2))));
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  const std::size_t threads = threads_flag(flags);
  const std::int64_t sample_every = flags.get_int("sample-every", 1);
  const auto cycles = static_cast<std::size_t>(flags.get_int("cycles", 60));
  const std::size_t shards = shards_flag(flags);
  // --spans: exchange-span aggregates per run; under the adversary they
  // surface how many exchanges die to suppression/corruption (timeout and
  // evicted outcomes) versus answering.
  const bool spans = flags.get_bool("spans", false);
  BenchReport report(flags, "adversary");
  report.set_threads(threads);
  apply_log_level_flag(flags);
  flags.finish();

  const std::vector<std::pair<double, std::string>> fractions = {
      {0.0, "f0"}, {0.01, "f1"}, {0.05, "f5"}, {0.10, "f10"}};

  std::vector<AdvSpec> specs;
  for (const bool hardened : {false, true}) {
    for (const auto& [f, fkey] : fractions) {
      AdvSpec s;
      s.fraction = f;
      s.hardened = hardened;
      s.key = std::string(hardened ? "hardened" : "unhardened") + "_" + fkey;
      char label[64];
      std::snprintf(label, sizeof(label), "f=%g%% %s", 100.0 * f,
                    hardened ? "hardened" : "unhardened");
      s.label = label;

      ExperimentConfig& cfg = s.cfg;
      cfg.n = n;
      cfg.seed = seed;  // shared base trajectory across the whole sweep
      cfg.shards = shards;
      cfg.spans = spans;
      cfg.max_cycles = cycles;
      cfg.stop_at_convergence = false;
      cfg.sample_every_cycles =
          sample_every <= 0 ? 0 : static_cast<std::size_t>(sample_every);
      // The liveness extension is on everywhere: the hardened runs reuse its
      // probing machinery for verification, and keeping it on in the
      // unhardened runs too means the gap measures hardening, not eviction.
      cfg.bootstrap.liveness = LivenessPolicy::Evict;
      cfg.bootstrap.tombstone_ttl_cycles = 8;
      cfg.bootstrap.harden = hardened;  // hardens Newscast too

      AdversaryPlan& plan = s.plan;
      plan.fraction = f;
      plan.window.start = cfg.warmup_cycles * cfg.bootstrap.delta;
      plan.poison = true;
      plan.pool_size = 8;
      plan.eclipse = true;
      plan.spoof = true;
      plan.suppress_probability = 0.3;
      plan.corrupt_probability = 0.05;
      specs.push_back(std::move(s));
    }
  }

  std::printf("=== Adversary sweep: %zu nodes, %zu cycles, f in {0, 1, 5, 10}%% ===\n", n,
              cycles);
  const auto outcomes =
      parallel_map(specs, threads, [](const AdvSpec& spec, std::size_t) -> AdvOutcome {
        std::fprintf(stderr, "running %s...\n", spec.label.c_str());
        BootstrapExperiment exp(spec.cfg);
        const auto model = install_adversary_plan(exp.engine(), spec.plan);
        const SimTime delta = spec.cfg.bootstrap.delta;
        const SimTime epoch = spec.cfg.warmup_cycles * delta;

        AdvOutcome out;
        std::vector<std::pair<std::uint64_t, double>> eclipse_series;
        std::vector<std::pair<std::uint64_t, double>> controlled_series;
        out.result = exp.run([&](std::size_t cycle, const ConvergenceMetrics&) {
          double eclipsed = 0.0;
          double controlled = 0.0;
          std::size_t honest = 0;
          if (model != nullptr) {
            for (Address a = 0; a < spec.cfg.n; ++a) {
              if (model->is_adversary(a)) continue;
              const auto& bp = exp.bootstrap_of(a);
              if (!bp.active()) continue;
              ++honest;
              const double frac = model->controlled_fraction(bp.leaf_set().all());
              controlled += frac;
              if (frac >= 0.5) eclipsed += 1.0;
            }
          }
          const double rate = honest == 0 ? 0.0 : eclipsed / static_cast<double>(honest);
          const double mean = honest == 0 ? 0.0 : controlled / static_cast<double>(honest);
          const std::uint64_t t = epoch + (cycle + 1) * delta;
          eclipse_series.emplace_back(t, rate);
          controlled_series.emplace_back(t, mean);
          out.final_eclipse_rate = rate;
          out.final_controlled = mean;
        });
        out.result.metric_series.by_name["adv.eclipse_rate"] = std::move(eclipse_series);
        out.result.metric_series.by_name["adv.controlled_leaf_fraction"] =
            std::move(controlled_series);
        out.adversary_count = model != nullptr ? model->adversaries().size() : 0;
        return out;
      });

  // Functional-convergence milestones per run: the first cycle with >= 95%
  // leaf completeness, and the first cycle after which the eclipse rate
  // stays at zero (-1: never reached within the run).
  const auto cycle_leaf95 = [](const ExperimentResult& r) -> int {
    for (std::size_t row = 0; row < r.series.rows(); ++row) {
      if (r.series.at(row, 1) <= 0.05) return static_cast<int>(r.series.at(row, 0));
    }
    return -1;
  };
  const auto eclipse_cleared = [](const obs::MetricSeries& s,
                                  std::size_t adversaries) -> int {
    if (adversaries == 0) return 0;
    const auto it = s.by_name.find("adv.eclipse_rate");
    if (it == s.by_name.end() || it->second.empty()) return -1;
    const auto& points = it->second;
    int cleared = -1;
    for (std::size_t p = 0; p < points.size(); ++p) {
      if (points[p].second > 0.0) {
        cleared = -1;
      } else if (cleared < 0) {
        cleared = static_cast<int>(p);
      }
    }
    return cleared;
  };

  Table summary({"run", "adversaries", "cycle_leaf95", "eclipse_cleared",
                 "final_missing_leaf", "final_missing_prefix", "final_eclipse_rate",
                 "controlled_leaf"});
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto& spec = specs[i];
    const auto& out = outcomes[i];
    const int leaf95 = cycle_leaf95(out.result);
    const int cleared = eclipse_cleared(out.result.metric_series, out.adversary_count);
    summary.add_row({spec.label, std::to_string(out.adversary_count),
                     std::to_string(leaf95), std::to_string(cleared),
                     Table::num(out.result.final_metrics.missing_leaf_fraction(), 6),
                     Table::num(out.result.final_metrics.missing_prefix_fraction(), 6),
                     Table::num(out.final_eclipse_rate, 4),
                     Table::num(out.final_controlled, 4)});
    report.add_run(spec.label, out.result);
    report.add_metric(spec.key + "_cycle_leaf95", static_cast<double>(leaf95));
    report.add_metric(spec.key + "_eclipse_cleared_cycle", static_cast<double>(cleared));
    report.add_metric(spec.key + "_final_missing_leaf",
                      out.result.final_metrics.missing_leaf_fraction());
    report.add_metric(spec.key + "_final_missing_prefix",
                      out.result.final_metrics.missing_prefix_fraction());
    report.add_metric(spec.key + "_converged_cycle",
                      static_cast<double>(out.result.converged_cycle));
    report.add_metric(spec.key + "_final_eclipse_rate", out.final_eclipse_rate);
    report.add_metric(spec.key + "_controlled_leaf_fraction", out.final_controlled);
    if (out.result.has_spans) {
      // Per-run outcome counts next to the eclipse metrics; the report-level
      // "spans" section carries the last run's full aggregate.
      report.add_metric(spec.key + "_spans_answered",
                        static_cast<double>(out.result.span_summary.answered));
      report.add_metric(spec.key + "_spans_timeout",
                        static_cast<double>(out.result.span_summary.timeout));
      report.add_metric(spec.key + "_spans_rtt_p95", out.result.span_summary.rtt_p95);
      report.set_spans(out.result.span_summary);
    }
  }
  std::printf("%s\n", summary.render().c_str());

  // The headline gap: hardening's effect at f = 5% (unhardened index 2,
  // hardened index 2 + fractions.size()).
  const auto& u5 = outcomes[2];
  const auto& h5 = outcomes[2 + fractions.size()];
  const double leaf_gap = u5.result.final_metrics.missing_leaf_fraction() -
                          h5.result.final_metrics.missing_leaf_fraction();
  const double eclipse_gap = u5.final_eclipse_rate - h5.final_eclipse_rate;
  std::printf("# hardening gap at f=5%%: missing-leaf %.6g (unhardened %.6g vs hardened "
              "%.6g), eclipse rate %.6g\n",
              leaf_gap, u5.result.final_metrics.missing_leaf_fraction(),
              h5.result.final_metrics.missing_leaf_fraction(), eclipse_gap);
  report.add_metric("gap_f5_missing_leaf", leaf_gap);
  report.add_metric("gap_f5_eclipse_rate", eclipse_gap);

  report.write();
  return 0;
}
