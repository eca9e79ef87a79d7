// §5 churn claim ("not shown" in the paper): "the protocol is not sensitive
// to churn either ... the quality of the routing tables generated by our
// protocol is similar to that obtained by known routing substrates in the
// presence of similar churn."
//
// This bench runs the bootstrap under continuous per-cycle node churn
// (equal join and failure rates, so the expected size is stable), reports
// the steady-state quality both structures reach, and probes end-to-end
// usability with greedy Pastry lookups over the churned tables. The four
// churn rates run as independent replicas across hardware threads.
#include <cstdio>

#include "bench/bench_common.hpp"
#include "overlay/pastry_router.hpp"

using namespace bsvc;
using namespace bsvc::bench;

namespace {

struct ChurnOutcome {
  double leaf_late = 0.0;
  double prefix_late = 0.0;
  double lookup_success = 0.0;
  std::size_t alive_final = 0;
  ExperimentResult result;
};

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const std::size_t n = static_cast<std::size_t>(
      flags.get_int("n", static_cast<std::int64_t>(default_n(flags))));
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  const auto cycles = static_cast<std::size_t>(flags.get_int("cycles", 40));
  const std::size_t threads = threads_flag(flags);
  BenchReport report(flags, "churn");
  apply_log_level_flag(flags);
  const std::int64_t sample_every = flags.get_int("sample-every", 1);
  const std::string trace_prefix = flags.get_string("trace", "");
  const std::size_t shards = shards_flag(flags);
  flags.finish();
  report.set_threads(threads);

  std::printf("=== Churn sensitivity (N=%zu, %zu cycles) ===\n", n, cycles);
  Table table({"churn_rate_pct_per_cycle", "missing_leaf_late", "missing_prefix_late",
               "lookup_success", "alive_final"});

  const std::vector<double> rates{0.0, 0.001, 0.005, 0.01};
  const auto outcomes = parallel_map(rates, threads, [&](double rate, std::size_t index) {
    std::fprintf(stderr, "running churn rate %.3f...\n", rate);
    ExperimentConfig cfg;
    cfg.n = n;
    cfg.seed = seed;
    cfg.shards = shards;
    cfg.max_cycles = cycles;
    cfg.stop_at_convergence = false;
    cfg.churn_fail_rate = rate;
    cfg.churn_join_rate = rate;
    // Liveness extension (see DESIGN.md) only where nodes actually fail.
    cfg.bootstrap.liveness = rate > 0.0 ? LivenessPolicy::Evict : LivenessPolicy::Off;
    cfg.sample_every_cycles = sample_every <= 0 ? 0 : static_cast<std::size_t>(sample_every);
    if (!trace_prefix.empty()) {
      cfg.trace_path = trace_prefix + "_" + std::to_string(index) + ".jsonl";
    }
    BootstrapExperiment exp(cfg);
    ChurnOutcome out;
    out.result = exp.run();

    // Late-phase quality: mean of the last 5 cycles.
    const std::size_t rows = out.result.series.rows();
    for (std::size_t r = rows - 5; r < rows; ++r) {
      out.leaf_late += out.result.series.at(r, 1);
      out.prefix_late += out.result.series.at(r, 2);
    }
    out.leaf_late /= 5.0;
    out.prefix_late /= 5.0;

    const ConvergenceOracle oracle(exp.engine(), cfg.bootstrap, exp.bootstrap_slot());
    const PastryRouter router(exp.engine(), exp.bootstrap_slot());
    Rng rng(seed + 7);
    out.lookup_success = router.run_lookups(oracle, rng, 1000).success_rate();
    out.alive_final = static_cast<std::size_t>(out.result.series.at(rows - 1, 3));
    return out;
  });

  for (std::size_t i = 0; i < rates.size(); ++i) {
    const auto& out = outcomes[i];
    table.add_row({Table::num(rates[i] * 100.0, 3), Table::num(out.leaf_late, 4),
                   Table::num(out.prefix_late, 4), Table::num(out.lookup_success, 4),
                   std::to_string(out.alive_final)});
    report.add_run("churn=" + Table::num(rates[i], 3), out.result);
    report.add_metric("lookup_success_rate_" + Table::num(rates[i], 3), out.lookup_success);
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("# expectation: quality degrades gracefully with churn rate; lookups keep\n"
              "# succeeding (the cycle count to build the tables is small, so churn during\n"
              "# the short bootstrap window has naturally limited effect).\n");
  report.write();
  return 0;
}
