// Degradation sweep: steady-state KV goodput under i.i.d. transport loss of
// 0..30%, with the robustness layer off ("base") and on ("retry": KV
// retries over adaptive RTT timeouts, hedged gets, and the bootstrap's
// LivenessPolicy::Adaptive — exchange retries, RTT timeouts, suspicion).
// The headline rows the baseline gates: at 20% loss the retry arm holds
// goodput near 1.0 while the base arm degrades with the loss rate — the
// quantitative case for the retry layer.
//
// Exports BENCH_degradation.json with per-arm goodput / latency / timeout
// rows plus the retry.*, hedge.* and rtt.* counter families, all pure
// functions of --seed and byte-identical across --shards K >= 1.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "workload/driver.hpp"

using namespace bsvc;
using namespace bsvc::bench;

namespace {

struct Arm {
  std::string label;   // e.g. "loss20_retry"
  double loss = 0.0;
  bool retries = false;
  WorkloadSummary wl;
  ExperimentResult result;
};

void run_arm(Arm& arm, std::size_t n, std::uint64_t seed, std::size_t shards) {
  ExperimentConfig cfg;
  cfg.n = n;
  cfg.seed = seed;
  cfg.shards = shards;
  cfg.drop_probability = arm.loss;
  cfg.max_cycles = 40;
  cfg.stop_at_convergence = false;
  if (arm.retries) {
    cfg.bootstrap.liveness = LivenessPolicy::Adaptive;
    cfg.bootstrap.tombstone_ttl_cycles = 5;
  }

  WorkloadParams wp;
  if (arm.retries) {
    wp.retry = true;
    // A 384-node round trip is ~4-6 message legs, so at 20% i.i.d. loss a
    // single attempt only succeeds ~35-50% of the time; twelve attempts push
    // the residual all-attempts-lost probability below 1/384. The gentle
    // backoff is deliberate: the simulated links have no congestion to shed,
    // so steeper factors only stretch the drain tail without helping.
    wp.retry_budget = 12;
    wp.retry_backoff = 1.2;
    wp.hedge_delay = kDelta;
  }
  WorkloadStack stack(wp);
  cfg.node_extension = stack.node_extension();
  BootstrapExperiment exp(cfg);
  stack.bind_registry(exp.engine().metrics());

  const SimTime epoch = cfg.warmup_cycles * kDelta;
  DriverConfig dc;
  dc.batch = 8;
  dc.period = kDelta / 4;
  dc.put_fraction = 0.5;
  dc.value_bytes = 64;
  dc.seed = seed ^ 0xDE6BADull;
  // STEADY issue window: the overlay has converged (even under loss) well
  // before cycle 14 at these sizes; the window closes 14 cycles before the
  // run ends so the longest backed-off retry chain resolves in-run.
  dc.from = epoch + 14 * kDelta;
  dc.to = epoch + 26 * kDelta;
  WorkloadDriver driver(stack, dc);
  driver.start(exp.engine());

  arm.result = exp.run();
  // Quiesce past max_cycles: the deepest retry chain (budget 12, backoff 1.2,
  // timeouts backed off up to 2 delta per attempt) geometrically stretches to
  // ~80 delta past the last issue at 26 delta, so drain until every chain
  // has either answered or burned its whole budget before summarizing.
  exp.engine().run_until(epoch + (cfg.max_cycles + 90) * kDelta);
  arm.wl = stack.log().summary();
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const bool smoke = flags.get_bool("smoke", false);
  const bool full = !smoke && full_tier(flags);
  const auto n = static_cast<std::size_t>(
      flags.get_int("n", static_cast<std::int64_t>(full ? 1024 : 384)));
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  (void)threads_flag(flags);  // accepted for run_suite.sh flag uniformity
  const std::size_t shards = shards_flag(flags);
  BenchReport report(flags, "degradation");
  apply_log_level_flag(flags);
  flags.finish();

  const std::vector<int> loss_pcts = smoke ? std::vector<int>{0, 20}
                                           : std::vector<int>{0, 5, 10, 20, 30};
  std::vector<Arm> arms;
  for (const int pct : loss_pcts) {
    for (const bool retries : {false, true}) {
      Arm arm;
      arm.label = "loss" + std::to_string(pct) + (retries ? "_retry" : "_base");
      arm.loss = pct / 100.0;
      arm.retries = retries;
      arms.push_back(std::move(arm));
    }
  }

  std::printf("=== Degradation sweep: %zu nodes, seed %llu ===\n", n,
              static_cast<unsigned long long>(seed));
  Table table({"arm", "issued", "answered", "goodput", "timeouts", "retries",
               "hedge_win", "rtt_p50", "rtt_p95", "rtt_p99"});
  for (Arm& arm : arms) {
    std::fprintf(stderr, "running %s...\n", arm.label.c_str());
    run_arm(arm, n, seed, shards);
    const WorkloadSummary& w = arm.wl;
    table.add_row({arm.label, std::to_string(w.issued()), std::to_string(w.answered()),
                   Table::num(w.goodput(), 4), std::to_string(w.timeouts),
                   std::to_string(w.kv_retries), std::to_string(w.hedge_wins),
                   Table::num(w.rtt_p50, 1), Table::num(w.rtt_p95, 1),
                   Table::num(w.rtt_p99, 1)});

    report.add_run(arm.label, arm.result);
    report.add_metric(arm.label + " goodput", w.goodput());
    report.add_metric(arm.label + " timeouts", static_cast<double>(w.timeouts));
    report.add_metric(arm.label + " rtt_p50", w.rtt_p50);
    report.add_metric(arm.label + " rtt_p95", w.rtt_p95);
    report.add_metric(arm.label + " rtt_p99", w.rtt_p99);
    report.add_metric(arm.label + " retry.kv", static_cast<double>(w.kv_retries));
    report.add_metric(arm.label + " hedge.sent", static_cast<double>(w.hedges_sent));
    report.add_metric(arm.label + " hedge.win", static_cast<double>(w.hedge_wins));
    report.add_metric(arm.label + " rtt.samples", static_cast<double>(w.rtt_samples));
  }
  std::printf("%s\n", table.render().c_str());
  report.write();
  return 0;
}
