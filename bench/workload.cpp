// Workload bench: KV put/get traffic plus prefix-space broadcast served over
// the bootstrapped overlay, measured across four phases — BOOTSTRAP (requests
// start with the bootstrap protocol, tables still converging), STEADY (the
// converged overlay), CHURN (continuous fail/join with the liveness
// extension on) and HEAL (requests across a partition cut and through the
// heal). Each phase is its own experiment; the driver issues deterministic
// request batches from barrier context (src/workload/driver.hpp), so every
// row below is a pure function of --seed and byte-identical for every
// --shards K >= 1.
//
// Exports BENCH_workload.json with per-phase goodput, request-latency
// p50/p95/p99 (virtual ticks), hop counts and broadcast coverage — the rows
// scripts/compare_bench.py gates against bench/baselines. --summary <path>
// additionally writes only the deterministic per-phase aggregates (no wall
// time, no RSS): that file is the cross-K byte-identity artifact.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "workload/driver.hpp"

using namespace bsvc;
using namespace bsvc::bench;

namespace {

struct PhasePlan {
  std::string name;
  ExperimentConfig cfg;
  // Per-phase service knobs: bootstrap and steady run with the retry layer
  // off (the no-retry reference rows), churn and heal run with it on.
  WorkloadParams wl;
  // Request issue window and broadcast launch times, in cycles past the
  // bootstrap epoch (warmup end).
  std::size_t wl_from_cycle = 0;
  std::size_t wl_to_cycle = 0;
  std::vector<std::size_t> cast_cycles;
  // Extra cycles past max_cycles before the summary: 3 covers the plain 2Δ
  // request timeout; retry phases need the deepest backed-off chain to
  // resolve (answer or burn its budget) so goodput is not under-counted.
  std::size_t quiesce_cycles = 3;
};

struct PhaseOutcome {
  std::string name;
  ExperimentResult result;
  WorkloadSummary wl;
  WorkloadDriver::CastCoverage cov;
  std::uint64_t total_events = 0;  // incl. the post-run quiesce window
  bool has_spans = false;
  obs::SpanSummary spans;
};

PhaseOutcome run_phase(PhasePlan plan, DriverConfig base_driver) {
  WorkloadStack stack(plan.wl);
  plan.cfg.stop_at_convergence = false;
  plan.cfg.node_extension = stack.node_extension();
  BootstrapExperiment exp(plan.cfg);
  stack.bind_registry(exp.engine().metrics());

  const SimTime delta = plan.cfg.bootstrap.delta;
  const SimTime epoch = plan.cfg.warmup_cycles * delta;
  DriverConfig dc = base_driver;
  dc.from = epoch + plan.wl_from_cycle * delta;
  dc.to = epoch + plan.wl_to_cycle * delta;
  WorkloadDriver driver(stack, dc);
  driver.start(exp.engine());
  for (const std::size_t c : plan.cast_cycles) {
    driver.schedule_cast(exp.engine(), epoch + c * delta);
  }

  PhaseOutcome out;
  out.name = plan.name;
  out.result = exp.run();
  // Quiesce so every request resolves before the summary (see quiesce_cycles).
  exp.engine().run_until(epoch + (plan.cfg.max_cycles + plan.quiesce_cycles) * delta);
  out.wl = stack.log().summary();
  out.cov = driver.verify_casts(exp.engine());
  out.total_events = exp.engine().events_dispatched();
  if (const obs::SpanLog* spans = exp.engine().span_log(); spans != nullptr) {
    out.has_spans = true;
    out.spans = spans->summary();
  }
  return out;
}

void write_summary(const std::string& path, std::uint64_t seed, std::size_t n,
                   const std::vector<PhaseOutcome>& phases) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write --summary file '%s'\n", path.c_str());
    return;
  }
  // Deterministic fields only: every value below derives from virtual time
  // and event counts, so this file is byte-identical across --shards K.
  std::fprintf(f, "{\n  \"bench\": \"workload\",\n  \"seed\": %llu,\n  \"n\": %zu,\n",
               static_cast<unsigned long long>(seed), n);
  std::fprintf(f, "  \"phases\": [");
  for (std::size_t i = 0; i < phases.size(); ++i) {
    const WorkloadSummary& w = phases[i].wl;
    const auto& cov = phases[i].cov;
    std::fprintf(
        f,
        "%s\n    {\"name\": \"%s\", \"puts\": %llu, \"gets\": %llu, "
        "\"put_ok\": %llu, \"get_ok\": %llu, \"get_found\": %llu, "
        "\"get_miss\": %llu, \"timeouts\": %llu, \"unroutable\": %llu, "
        "\"goodput\": %.9g, \"rtt_count\": %llu, \"rtt_mean\": %.9g, "
        "\"rtt_p50\": %.9g, \"rtt_p95\": %.9g, \"rtt_p99\": %.9g, "
        "\"hops_mean\": %.9g, \"hops_max\": %.9g, \"casts\": %llu, "
        "\"cast_expected\": %zu, \"cast_reached\": %zu, "
        "\"cast_duplicates\": %llu, \"cast_forwards\": %llu, "
        "\"kv_retries\": %llu, \"hedges_sent\": %llu, \"hedge_wins\": %llu}",
        i == 0 ? "" : ",", phases[i].name.c_str(),
        static_cast<unsigned long long>(w.puts),
        static_cast<unsigned long long>(w.gets),
        static_cast<unsigned long long>(w.put_ok),
        static_cast<unsigned long long>(w.get_ok),
        static_cast<unsigned long long>(w.get_found),
        static_cast<unsigned long long>(w.get_miss),
        static_cast<unsigned long long>(w.timeouts),
        static_cast<unsigned long long>(w.unroutable), w.goodput(),
        static_cast<unsigned long long>(w.rtt_count), w.rtt_mean, w.rtt_p50,
        w.rtt_p95, w.rtt_p99, w.hops_mean, w.hops_max,
        static_cast<unsigned long long>(w.casts), cov.expected, cov.reached,
        static_cast<unsigned long long>(cov.duplicates),
        static_cast<unsigned long long>(w.cast_forwards),
        static_cast<unsigned long long>(w.kv_retries),
        static_cast<unsigned long long>(w.hedges_sent),
        static_cast<unsigned long long>(w.hedge_wins));
  }
  std::fprintf(f, "\n  ]\n}\n");
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  // --smoke pins the small size regardless of --full / REPRO_FULL, exactly
  // like bench/scale: CI's bench-smoke step must stay minutes-long.
  const bool smoke = flags.get_bool("smoke", false);
  const bool full = !smoke && full_tier(flags);
  const std::size_t n = static_cast<std::size_t>(flags.get_int(
      "n", static_cast<std::int64_t>(full ? kFullSizes[0] >> 2 : kSmokeSizes[1] >> 2)));
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  (void)threads_flag(flags);  // accepted for run_suite.sh flag uniformity
  const std::size_t shards = shards_flag(flags);
  const bool spans = flags.get_bool("spans", false);
  const std::int64_t sample_every = flags.get_int("sample-every", 1);
  const std::string summary_path = flags.get_string("summary", "");
  BenchReport report(flags, "workload");
  apply_log_level_flag(flags);
  flags.finish();

  const auto base_cfg = [&](std::uint64_t seed_offset, std::size_t max_cycles) {
    ExperimentConfig cfg;
    cfg.n = n;
    cfg.seed = seed + seed_offset;
    cfg.shards = shards;
    cfg.spans = spans;
    cfg.max_cycles = max_cycles;
    cfg.sample_every_cycles =
        sample_every <= 0 ? 0 : static_cast<std::size_t>(sample_every);
    return cfg;
  };

  std::vector<PhasePlan> plans;
  {
    // BOOTSTRAP: requests start the moment the bootstrap phase does, so the
    // early batches hit inactive/incomplete tables (unroutable + timeouts)
    // and goodput ramps as the tables fill. One broadcast mid-convergence,
    // one after.
    PhasePlan p;
    p.name = "bootstrap";
    p.cfg = base_cfg(0, 16);
    p.wl_from_cycle = 0;
    p.wl_to_cycle = 12;
    p.cast_cycles = {3, 13};
    plans.push_back(std::move(p));
  }
  {
    // STEADY: the overlay converges first (well before cycle 14 at these
    // sizes); the workload then runs over stable tables.
    PhasePlan p;
    p.name = "steady";
    p.cfg = base_cfg(1, 30);
    p.wl_from_cycle = 14;
    p.wl_to_cycle = 26;
    p.cast_cycles = {27, 28};
    plans.push_back(std::move(p));
  }
  // The faulty phases (churn, heal) run with the retry layer on: bounded
  // backed-off KV retries over adaptive RTT timeouts plus hedged gets. A
  // budget-5 chain with the timeout backed off to its 2Δ clamp stretches
  // ~26Δ past the last issue, hence the long quiesce window.
  WorkloadParams retry_wl;
  retry_wl.retry = true;
  retry_wl.retry_budget = 5;
  retry_wl.retry_backoff = 1.5;
  retry_wl.hedge_delay = kDelta / 2;
  {
    // CHURN: continuous fail/join at 2%/cycle each with the liveness
    // extension on — requests race evictions, joiners serve mid-bootstrap.
    PhasePlan p;
    p.name = "churn";
    p.cfg = base_cfg(2, 30);
    p.cfg.churn_fail_rate = 0.02;
    p.cfg.churn_join_rate = 0.02;
    p.cfg.bootstrap.liveness = LivenessPolicy::Evict;
    p.cfg.bootstrap.tombstone_ttl_cycles = 5;
    p.wl = retry_wl;
    p.wl_from_cycle = 14;
    p.wl_to_cycle = 26;
    p.cast_cycles = {27, 28};
    p.quiesce_cycles = 28;
    plans.push_back(std::move(p));
  }
  {
    // HEAL: the partition_heal scenario with traffic flowing throughout —
    // requests into the far side retry across the cut window (cycles 4..16)
    // and resolve once it heals; broadcasts launch post-heal.
    PhasePlan p;
    p.name = "heal";
    p.cfg = base_cfg(3, 32);
    p.cfg.bootstrap.liveness = LivenessPolicy::Evict;
    p.cfg.bootstrap.tombstone_ttl_cycles = 5;
    p.wl = retry_wl;
    const SimTime delta = p.cfg.bootstrap.delta;
    const SimTime epoch = p.cfg.warmup_cycles * delta;
    PartitionSpec cut;
    cut.window = {epoch + 4 * delta, epoch + 16 * delta};
    cut.kind = PartitionSpec::Kind::Cut;
    cut.value = static_cast<std::uint32_t>(n / 2);
    p.cfg.fault_plan.partitions.push_back(cut);
    p.wl_from_cycle = 2;
    p.wl_to_cycle = 28;
    p.cast_cycles = {29, 30};
    p.quiesce_cycles = 28;
    plans.push_back(std::move(p));
  }

  std::printf("=== Workload over the bootstrapped overlay: %zu nodes, seed %llu ===\n", n,
              static_cast<unsigned long long>(seed));
  std::vector<PhaseOutcome> phases;
  for (std::size_t i = 0; i < plans.size(); ++i) {
    DriverConfig dc;
    dc.batch = 8;
    dc.period = plans[i].cfg.bootstrap.delta / 4;
    dc.put_fraction = 0.5;
    dc.value_bytes = 64;
    dc.seed = seed + i;
    std::fprintf(stderr, "running phase %s...\n", plans[i].name.c_str());
    phases.push_back(run_phase(plans[i], dc));
  }

  Table table({"phase", "issued", "answered", "goodput", "timeout", "unroutable",
               "rtt_p50", "rtt_p95", "rtt_p99", "hops", "cast_cov", "cast_dup"});
  for (const PhaseOutcome& ph : phases) {
    const WorkloadSummary& w = ph.wl;
    table.add_row({ph.name, std::to_string(w.issued()), std::to_string(w.answered()),
                   Table::num(w.goodput(), 4), std::to_string(w.timeouts),
                   std::to_string(w.unroutable), Table::num(w.rtt_p50, 1),
                   Table::num(w.rtt_p95, 1), Table::num(w.rtt_p99, 1),
                   Table::num(w.hops_mean, 2), Table::num(ph.cov.coverage(), 4),
                   std::to_string(ph.cov.duplicates)});

    report.add_run(ph.name, ph.result);
    report.add_events(ph.total_events - ph.result.events_dispatched);
    report.add_metric(ph.name + " goodput", w.goodput());
    report.add_metric(ph.name + " rtt_p50", w.rtt_p50);
    report.add_metric(ph.name + " rtt_p95", w.rtt_p95);
    report.add_metric(ph.name + " rtt_p99", w.rtt_p99);
    report.add_metric(ph.name + " requests", static_cast<double>(w.issued()));
    report.add_metric(ph.name + " answered", static_cast<double>(w.answered()));
    report.add_metric(ph.name + " timeouts", static_cast<double>(w.timeouts));
    report.add_metric(ph.name + " unroutable", static_cast<double>(w.unroutable));
    report.add_metric(ph.name + " hops_mean", w.hops_mean);
    report.add_metric(ph.name + " cast_coverage", ph.cov.coverage());
    report.add_metric(ph.name + " cast_duplicates",
                      static_cast<double>(ph.cov.duplicates));
    // Counter rows (informational, not gated): zero for the retry-off phases.
    report.add_metric(ph.name + " retry.kv", static_cast<double>(w.kv_retries));
    report.add_metric(ph.name + " hedge.sent", static_cast<double>(w.hedges_sent));
    report.add_metric(ph.name + " hedge.win", static_cast<double>(w.hedge_wins));
    if (ph.has_spans) report.set_spans(ph.spans);  // last phase wins (heal)
  }
  std::printf("%s\n", table.render().c_str());

  if (!summary_path.empty()) write_summary(summary_path, seed, n, phases);
  report.write();
  return 0;
}
