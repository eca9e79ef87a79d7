// Scale sweep: the paper-full convergence run (N = 2^14, 2^16, 2^18 under
// --full; the smoke ladder otherwise) with one replica per size, timed
// per size. Exports BENCH_scale.json carrying the headline throughput
// (events_per_sec), peak RSS, and a heap-allocation census: this TU
// replaces the global operator new/delete so every run reports
// allocations per bootstrap exchange — the tripwire for the
// allocation-lean CREATEMESSAGE path (docs/architecture.md).
//
// Sizes come from bench_common.hpp's kSmokeSizes/kFullSizes ladder — the
// single source of truth shared with every other bench and EXPERIMENTS.md.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "bench/bench_common.hpp"

// ---------------------------------------------------------------------------
// Global allocation census. Counting only — every path defers to malloc/free,
// so behavior (and determinism) is untouched. Relaxed atomics: the harness
// runs replicas sequentially, but engine teardown may race with nothing; the
// counter only needs to be well-defined, not ordered.
namespace {
std::atomic<std::uint64_t> g_alloc_count{0};

void* counted_alloc(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t size, std::size_t align) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  // aligned_alloc requires size to be a multiple of the alignment.
  const std::size_t rounded = (size + align - 1) / align * align;
  if (void* p = std::aligned_alloc(align, rounded ? rounded : align)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
// ---------------------------------------------------------------------------

using namespace bsvc;
using namespace bsvc::bench;

namespace {
/// Steady-state allocation budget per bootstrap exchange. Pinned by
/// tests/test_alloc.cpp and enforced against this bench's census by
/// scripts/check_alloc_budget.py in CI; raise only with a paper trail in
/// docs/performance.md. The gate judges the *steady* window below, not the
/// whole run — setup (node construction, pool priming, early table growth)
/// is one-off and excluded by the cutoff.
constexpr double kAllocBudgetPerExchange = 5.0;

/// Cycles to let pass before the steady-state window opens: pools primed,
/// thread-local scratch grown, leaf/prefix tables past their initial growth
/// spurt. Runs that finish earlier report a zero-width steady window, which
/// the gate skips with a note.
constexpr std::size_t kSteadyWarmCycles = 4;
}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  Tier tier = pick_tier(flags);
  // --smoke pins the smoke ladder regardless of --full / REPRO_FULL — CI's
  // profile-smoke step uses it so an exported REPRO_FULL cannot turn a
  // smoke check into an hour-long run.
  if (flags.get_bool("smoke", false)) {
    tier = {{std::begin(kSmokeSizes), std::end(kSmokeSizes)},
            {std::begin(kSmokeRepeats), std::end(kSmokeRepeats)}};
  }
  // --xl swaps in the XL scale tier (N = 2^20, 2^21): one replica each, far
  // beyond what the full sweep attempts. Meant to be combined with --shards
  // and usually a reduced --max-cycles.
  if (flags.get_bool("xl", false)) {
    tier.sizes = {std::size_t{1} << 20, std::size_t{1} << 21};
    tier.repeats = {1, 1};
  }
  const auto base_seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  const auto max_cycles = static_cast<std::size_t>(flags.get_int("max-cycles", 60));
  const std::size_t threads = threads_flag(flags);
  const std::size_t shards = shards_flag(flags);
  // --shard-sweep=1,2,4,8 re-runs the tier's largest size once per shard
  // count after the main sweep ("N=<n> K=<k>" series) — the intra-run
  // scaling measurement.
  const std::vector<std::size_t> shard_sweep =
      parse_shard_list(flags, flags.get_string("shard-sweep", ""));
  // --profile <file>: window-profiler Chrome trace for the largest main-
  // sweep run. Shard-sweep runs write derived "<stem>_K<k><ext>" files.
  const std::string profile_path = flags.get_string("profile", "");
  const bool spans_enabled = flags.get_bool("spans", false);
  BenchReport report(flags, "scale");
  apply_log_level_flag(flags);

  // One replica per size: the sweep measures how throughput and memory move
  // with N, so per-size wall clocks must not share a core with a sibling
  // replica. Runs are sequential whatever --threads says; output is
  // byte-identical across thread counts by construction.
  std::vector<ReplicaSpec> specs;
  for (std::size_t s = 0; s < tier.sizes.size(); ++s) {
    ReplicaSpec spec;
    spec.cfg.n = tier.sizes[s];
    spec.cfg.seed = replica_seed(base_seed, s);
    spec.cfg.max_cycles = max_cycles;
    spec.cfg.shards = shards;
    spec.label = "N=" + std::to_string(spec.cfg.n);
    specs.push_back(std::move(spec));
  }
  apply_obs_flags(flags, specs);
  // Profile the largest size: the headline run, and the one whose window
  // occupancy is most representative of the sweep.
  if (!profile_path.empty() && !specs.empty()) {
    specs.back().cfg.profile_path = profile_path;
  }
  flags.finish();
  report.set_threads(threads);
  report.add_metric("shards", static_cast<double>(shards));

  std::printf("=== scale sweep: %zu sizes, b=4, k=3, c=20, cr=30 ===\n", specs.size());
  AllocCensus census;
  census.budget_allocs_per_exchange = kAllocBudgetPerExchange;
  census.rss_reset_supported = reset_peak_rss();
  std::vector<LabelledRun> runs;
  for (const auto& spec : specs) {
    std::fprintf(stderr, "running %s...\n", spec.label.c_str());
    // Rewind the RSS high-water mark so each tier reports its own peak, not
    // the largest predecessor's (no-op where clear_refs is unsupported).
    if (census.rss_reset_supported) reset_peak_rss();
    const std::uint64_t allocs_before = g_alloc_count.load(std::memory_order_relaxed);
    const auto t0 = std::chrono::steady_clock::now();
    // Direct experiment (not run_experiment) so the on_cycle observer can
    // open the steady-state allocation window after kSteadyWarmCycles —
    // observation only, the trajectory is identical to a plain run().
    BootstrapExperiment exp(spec.cfg);
    std::uint64_t steady_alloc_base = 0;
    std::uint64_t steady_exch_base = 0;
    bool steady_armed = false;
    ExperimentResult result =
        exp.run([&](std::size_t cycle, const ConvergenceMetrics&) {
          if (!steady_armed && cycle >= kSteadyWarmCycles) {
            steady_armed = true;
            steady_alloc_base = g_alloc_count.load(std::memory_order_relaxed);
            const BootstrapStats s = exp.current_stats();
            steady_exch_base = s.requests_sent + s.replies_sent;
          }
        });
    const auto t1 = std::chrono::steady_clock::now();
    const std::uint64_t allocs_after = g_alloc_count.load(std::memory_order_relaxed);
    const std::uint64_t allocs = allocs_after - allocs_before;
    const std::uint64_t tier_rss = current_peak_rss_bytes();
    const double secs = std::chrono::duration<double>(t1 - t0).count();

    const std::uint64_t exchanges =
        result.bootstrap_stats.requests_sent + result.bootstrap_stats.replies_sent;
    const std::uint64_t steady_allocs =
        steady_armed ? allocs_after - steady_alloc_base : 0;
    const std::uint64_t steady_exchanges =
        steady_armed && exchanges > steady_exch_base ? exchanges - steady_exch_base
                                                     : 0;
    const double eps = secs > 0.0 ? static_cast<double>(result.events_dispatched) / secs : 0.0;
    const double ape = exchanges > 0 ? static_cast<double>(allocs) /
                                           static_cast<double>(exchanges)
                                     : 0.0;
    const double steady_ape =
        steady_exchanges > 0 ? static_cast<double>(steady_allocs) /
                                   static_cast<double>(steady_exchanges)
                             : 0.0;
    std::printf("%-10s converged at cycle %3d  events=%llu  wall=%.2fs  "
                "events/sec=%.0f  allocs/exchange=%.1f (steady %.2f)  "
                "peak_rss=%.1fMB\n",
                spec.label.c_str(), result.converged_cycle,
                static_cast<unsigned long long>(result.events_dispatched), secs, eps, ape,
                steady_ape, static_cast<double>(tier_rss) / (1024.0 * 1024.0));
    report.add_metric(spec.label + " events_per_sec", eps);
    report.add_metric(spec.label + " wall_seconds", secs);
    report.add_metric(spec.label + " allocs_per_exchange", ape);
    report.add_metric(spec.label + " steady_allocs_per_exchange", steady_ape);
    report.add_metric(spec.label + " heap_allocations", static_cast<double>(allocs));
    report.add_metric(spec.label + " peak_rss_bytes", static_cast<double>(tier_rss));
    census.tiers.push_back({spec.label, allocs, exchanges, ape, steady_allocs,
                            steady_exchanges, steady_ape, tier_rss});
    // Last one wins: the report carries the largest size's aggregates.
    if (result.has_spans) report.set_spans(result.span_summary);
    if (result.has_profile) report.set_profile(result.profile_summary);
    runs.push_back({spec.label, std::move(result)});
  }
  report.set_alloc(census);
  print_runs("scale sweep", runs);
  for (const auto& run : runs) report.add_run(run.label, run.result);

  if (!shard_sweep.empty()) {
    // Same network, same seed, one run per shard count: the trajectory is
    // identical for every K, so the wall-clock ratio isolates the engine's
    // intra-run scaling.
    const std::size_t sweep_n = tier.sizes.back();
    std::printf("=== shard sweep: N=%zu, K in {", sweep_n);
    for (std::size_t i = 0; i < shard_sweep.size(); ++i) {
      std::printf("%s%zu", i == 0 ? "" : ",", shard_sweep[i]);
    }
    std::printf("} ===\n");
    for (const std::size_t k : shard_sweep) {
      ExperimentConfig cfg;
      cfg.n = sweep_n;
      cfg.seed = replica_seed(base_seed, tier.sizes.size() - 1);
      cfg.max_cycles = max_cycles;
      cfg.shards = k;
      cfg.spans = spans_enabled;
      if (!profile_path.empty()) {
        cfg.profile_path = profile_path_for_shards(profile_path, k);
      }
      const std::string label = "N=" + std::to_string(sweep_n) + " K=" + std::to_string(k);
      std::fprintf(stderr, "running %s...\n", label.c_str());
      const auto t0 = std::chrono::steady_clock::now();
      ExperimentResult result = run_experiment(cfg);
      const auto t1 = std::chrono::steady_clock::now();
      const double secs = std::chrono::duration<double>(t1 - t0).count();
      const double eps =
          secs > 0.0 ? static_cast<double>(result.events_dispatched) / secs : 0.0;
      std::printf("%-16s converged at cycle %3d  events=%llu  wall=%.2fs  events/sec=%.0f\n",
                  label.c_str(), result.converged_cycle,
                  static_cast<unsigned long long>(result.events_dispatched), secs, eps);
      report.add_metric(label + " events_per_sec", eps);
      report.add_metric(label + " wall_seconds", secs);
    }
  }
  report.write();
  return 0;
}
