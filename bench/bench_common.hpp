// Shared machinery for the bench binaries: size tiers, the parallel replica
// harness, result printing in a gnuplot-friendly layout, and convergence
// summary tables.
#pragma once

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "bench/bench_report.hpp"
#include "common/flags.hpp"
#include "common/logging.hpp"
#include "common/parallel.hpp"
#include "common/table.hpp"
#include "core/experiment.hpp"

namespace bsvc::bench {

/// Network sizes and repetitions for one figure.
struct Tier {
  std::vector<std::size_t> sizes;
  std::vector<std::size_t> repeats;  // per size, mirroring the paper's 50/10/4
};

/// The single source of truth for the network-size ladder. Every bench's
/// tier, every per-bench --n default, bench/scale's sweep, and the size
/// tables quoted in EXPERIMENTS.md derive from these arrays — do not
/// hard-code 2^10..2^18 anywhere else.
inline constexpr std::size_t kSmokeSizes[] = {std::size_t{1} << 10, std::size_t{1} << 12,
                                              std::size_t{1} << 14};
inline constexpr std::size_t kSmokeRepeats[] = {3, 2, 1};
/// The paper's exact sizes (Fig. 3: N = 2^14, 2^16, 2^18).
inline constexpr std::size_t kFullSizes[] = {std::size_t{1} << 14, std::size_t{1} << 16,
                                             std::size_t{1} << 18};
inline constexpr std::size_t kFullRepeats[] = {4, 2, 1};

/// True when an environment variable value means "on" (set, non-empty, and
/// not "0"/"false").
inline bool env_truthy(const char* value) {
  return value != nullptr && *value != '\0' && std::string_view(value) != "0" &&
         std::string_view(value) != "false";
}

/// Whether the paper-sized tier is requested. An explicit command-line
/// --full / --full=false always wins; the REPRO_FULL environment variable is
/// only consulted when the flag is absent (so `--full=false` can override an
/// exported REPRO_FULL=1, and REPRO_FULL=0 really means off).
inline bool full_tier(const Flags& flags) {
  if (flags.has("full")) return flags.get_bool("full", false);
  return env_truthy(std::getenv("REPRO_FULL"));
}

/// Default tier keeps the whole bench suite to minutes; --full (or env
/// REPRO_FULL=1) runs the paper's exact sizes 2^14 / 2^16 / 2^18.
inline Tier pick_tier(const Flags& flags) {
  if (full_tier(flags)) {
    return {{std::begin(kFullSizes), std::end(kFullSizes)},
            {std::begin(kFullRepeats), std::end(kFullRepeats)}};
  }
  return {{std::begin(kSmokeSizes), std::end(kSmokeSizes)},
          {std::begin(kSmokeRepeats), std::end(kSmokeRepeats)}};
}

/// Default network size for single-N benches: the tier's headline size
/// (smallest full size / middle smoke size), optionally shifted down for
/// benches whose workload is superlinear in N. Always fed through --n so
/// the user can override.
inline std::size_t default_n(const Flags& flags, int full_shift = 0, int smoke_shift = 0) {
  return full_tier(flags) ? kFullSizes[0] >> full_shift : kSmokeSizes[1] >> smoke_shift;
}

/// Worker count from --threads (default: all hardware threads; 1 restores
/// the fully sequential behavior).
inline std::size_t threads_flag(const Flags& flags) {
  const auto t = flags.get_int("threads", static_cast<std::int64_t>(hardware_threads()));
  return static_cast<std::size_t>(std::max<std::int64_t>(1, t));
}

/// Engine shard count from --shards (default 1): K lanes of the
/// conservative-time-window engine inside ONE simulation (orthogonal to
/// --threads, which parallelizes across replicas). The trajectory is the
/// same for every K. Exits 2 on K < 1, like any other flag error. See
/// docs/architecture.md#sharded-execution.
inline std::size_t shards_flag(const Flags& flags) {
  const auto s = flags.get_int("shards", 1);
  if (s < 1) {
    std::fprintf(stderr, "%s: invalid shard count '%lld' in --shards\n",
                 flags.program().c_str(), static_cast<long long>(s));
    std::exit(2);
  }
  return static_cast<std::size_t>(s);
}

/// Parses a comma-separated list of shard counts ("1,2,4,8"); empty input
/// yields an empty list. Exits 2 on garbage, like any other flag error.
inline std::vector<std::size_t> parse_shard_list(const Flags& flags, const std::string& value) {
  std::vector<std::size_t> out;
  std::size_t pos = 0;
  while (pos < value.size()) {
    std::size_t end = value.find(',', pos);
    if (end == std::string::npos) end = value.size();
    const std::string item = value.substr(pos, end - pos);
    char* rest = nullptr;
    const long k = std::strtol(item.c_str(), &rest, 10);
    if (item.empty() || rest == nullptr || *rest != '\0' || k < 1) {
      std::fprintf(stderr, "%s: invalid shard count '%s' in shard sweep list\n",
                   flags.program().c_str(), item.c_str());
      std::exit(2);
    }
    out.push_back(static_cast<std::size_t>(k));
    pos = end + 1;
  }
  return out;
}

/// Derives the seed of replica `replica_index` from the --seed base value
/// (splitmix64 over base and index). Replicas get decorrelated engines while
/// the whole suite stays reproducible from the single base seed, whatever
/// the thread count.
inline std::uint64_t replica_seed(std::uint64_t base_seed, std::uint64_t replica_index) {
  std::uint64_t state = base_seed + (replica_index + 1) * 0x9E3779B97F4A7C15ull;
  return splitmix64(state);
}

/// Handles the shared --log-level flag: sets the global threshold, treating
/// unknown level names as a flag error (exit 2) rather than silently falling
/// back.
inline void apply_log_level_flag(const Flags& flags) {
  const std::string value = flags.get_string("log-level", "");
  if (value.empty()) return;
  const auto level = parse_log_level(value);
  if (!level.has_value()) {
    std::fprintf(stderr, "%s: invalid --log-level '%s' (expected debug|info|warn|error|off)\n",
                 flags.program().c_str(), value.c_str());
    std::exit(2);
  }
  set_log_level(*level);
}

/// One experiment's curves, labelled.
struct LabelledRun {
  std::string label;
  ExperimentResult result;
};

/// One replica of a figure: a label plus its full configuration (seed
/// included — use replica_seed() for repeat loops).
struct ReplicaSpec {
  std::string label;
  ExperimentConfig cfg;
};

/// Applies the shared observability flags to a prepared replica set:
///   --sample-every=<cycles>  metric snapshot cadence (default 1; 0 disables)
///   --trace=<prefix>         per-replica JSONL engine traces written to
///                            "<prefix>_<index>.jsonl"
///   --spans                  per-exchange causal spans (latency percentiles
///                            and outcome counts in the report's "spans"
///                            section; see docs/observability.md)
/// Replica indexing follows spec order, so trace file names are stable
/// whatever the thread count.
inline void apply_obs_flags(const Flags& flags, std::vector<ReplicaSpec>& specs) {
  const std::int64_t sample_every = flags.get_int("sample-every", 1);
  const std::string trace_prefix = flags.get_string("trace", "");
  const bool spans = flags.get_bool("spans", false);
  // --shards rides along with the shared flags so every spec-driven bench
  // runs at the requested lane count.
  const std::size_t shards = shards_flag(flags);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    specs[i].cfg.shards = shards;
    specs[i].cfg.spans = spans;
    specs[i].cfg.sample_every_cycles =
        sample_every <= 0 ? 0 : static_cast<std::size_t>(sample_every);
    if (!trace_prefix.empty()) {
      specs[i].cfg.trace_path = trace_prefix + "_" + std::to_string(i) + ".jsonl";
    }
  }
}

/// Derives the per-K profile path for a shard-sweep run: "prof.json" with
/// K=4 becomes "prof_K4.json" (the suffix lands before the last extension
/// dot of the basename, or at the end when there is none).
inline std::string profile_path_for_shards(const std::string& path, std::size_t k) {
  const std::size_t slash = path.find_last_of('/');
  const std::size_t dot = path.rfind('.');
  const bool has_ext = dot != std::string::npos && (slash == std::string::npos || dot > slash);
  const std::string stem = has_ext ? path.substr(0, dot) : path;
  const std::string ext = has_ext ? path.substr(dot) : "";
  return stem + "_K" + std::to_string(k) + ext;
}

/// Runs every replica, fanned out across up to `threads` hardware threads
/// (each replica owns its private Engine; nothing is shared). Results come
/// back in spec order regardless of completion order, so stdout is
/// byte-identical to a --threads=1 run with the same flags.
inline std::vector<LabelledRun> run_replicas(const std::vector<ReplicaSpec>& specs,
                                             std::size_t threads) {
  auto results = parallel_map(specs, threads, [](const ReplicaSpec& spec, std::size_t) {
    std::fprintf(stderr, "running %s...\n", spec.label.c_str());
    BootstrapExperiment exp(spec.cfg);
    return exp.run();
  });
  std::vector<LabelledRun> runs;
  runs.reserve(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    runs.push_back({specs[i].label, std::move(results[i])});
  }
  return runs;
}

/// Prints `column` of every run against the cycle axis, in gnuplot "plot ...
/// using 1:2" blocks separated by blank lines, then a summary table.
inline void print_runs(const std::string& figure, const std::vector<LabelledRun>& runs,
                       const std::string& leaf_caption = "proportion of missing leaf set entries",
                       const std::string& prefix_caption =
                           "proportion of missing prefix table entries") {
  for (const char* metric : {"leaf", "prefix"}) {
    const std::size_t col = metric == std::string("leaf") ? 1 : 2;
    std::printf("# %s — %s\n", figure.c_str(),
                col == 1 ? leaf_caption.c_str() : prefix_caption.c_str());
    std::printf("# columns: cycle  missing_fraction  (one block per run)\n");
    for (const auto& run : runs) {
      std::printf("# run: %s\n", run.label.c_str());
      for (std::size_t r = 0; r < run.result.series.rows(); ++r) {
        std::printf("%3.0f  %.9g\n", run.result.series.at(r, 0), run.result.series.at(r, col));
      }
      std::printf("\n");
    }
  }

  Table summary({"run", "cycles_to_perfect_leaf", "cycles_to_perfect_prefix",
                 "cycles_to_perfect_both", "msgs/node/cycle", "avg_msg_bytes",
                 "max_msg_bytes"});
  for (const auto& run : runs) {
    const auto& r = run.result;
    const double cycles = r.series.rows() == 0 ? 1.0 : static_cast<double>(r.series.rows());
    const double mpnc = static_cast<double>(r.traffic_during_bootstrap.messages_sent) /
                        (static_cast<double>(r.n) * cycles);
    summary.add_row({run.label, std::to_string(r.leaf_converged_cycle),
                     std::to_string(r.prefix_converged_cycle),
                     std::to_string(r.converged_cycle), Table::num(mpnc, 3),
                     Table::num(r.avg_message_bytes, 4),
                     std::to_string(r.max_message_bytes)});
  }
  std::printf("%s\n", summary.render().c_str());
}

/// Runs one experiment with progress logging suppressed.
inline ExperimentResult run_experiment(ExperimentConfig cfg) {
  BootstrapExperiment exp(std::move(cfg));
  return exp.run();
}

}  // namespace bsvc::bench
