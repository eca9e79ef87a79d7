// Chaos soak: runs hundreds of seeded composite fault scenarios — generated
// by src/fault/chaos.hpp — against the full stack (Newscast + bootstrap +
// workload), checking the scenario-independent invariant oracles after every
// run and replaying a subset across shard counts for byte-identity.
//
// Every case is a pure function of (--seed, case index): a failure report
// names the two numbers that reproduce it, plus the case description. The
// harness exits 1 on the first oracle violation or digest mismatch (after
// printing all of that case's violations), 0 when the whole soak passes.
//
//   chaos_soak --plans 300 --seed 7      # the nightly budget
//   chaos_soak --smoke                   # 24 plans, CI-sized
//   chaos_soak --replay-every 8          # cross-K digest check cadence
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "adversary/byzantine_model.hpp"
#include "bench/bench_common.hpp"
#include "fault/chaos.hpp"
#include "workload/driver.hpp"

using namespace bsvc;
using namespace bsvc::bench;

namespace {

struct SoakTiming {
  std::size_t warmup_cycles = 6;
  std::size_t fault_from_cycle = 2;   // past the epoch: activation is done
  std::size_t fault_to_cycle = 14;    // all windows closed by here
  std::size_t wl_to_cycle = 16;       // issue a little past the faults
  // The recovery tail must outlast the tombstone TTL (evicted crash victims
  // and partitioned halves re-admit only after their tombstones expire) plus
  // a few gossip cycles to rebuild: 16 cycles after the last window closes.
  std::size_t max_cycles = 38;
  std::size_t quiesce_cycles = 10;    // retry tails resolve before the summary
};

ChaosGenConfig make_gen(std::size_t n, const SoakTiming& t) {
  ChaosGenConfig gen;
  gen.n = n;
  gen.delta = kDelta;
  const SimTime epoch = t.warmup_cycles * kDelta;
  gen.epoch = epoch + t.fault_from_cycle * kDelta;
  gen.horizon = epoch + t.fault_to_cycle * kDelta;
  return gen;
}

ChaosObservation run_case(const ChaosCase& c, std::size_t n, std::size_t shards,
                          const SoakTiming& t, bool verbose = false) {
  ExperimentConfig cfg;
  cfg.n = n;
  cfg.seed = c.seed;
  cfg.shards = shards;
  cfg.spans = true;
  cfg.warmup_cycles = t.warmup_cycles;
  cfg.max_cycles = t.max_cycles;
  cfg.stop_at_convergence = false;
  cfg.fault_plan = c.plan;
  // `retries` picks the liveness policy and the workload retry layer
  // together; `harden` covers the bootstrap protocol and Newscast alike.
  cfg.bootstrap.liveness = c.retries ? LivenessPolicy::Adaptive : LivenessPolicy::Evict;
  cfg.bootstrap.tombstone_ttl_cycles = 5;
  cfg.bootstrap.harden = c.harden;

  WorkloadParams wp;
  if (c.retries) {
    wp.retry = true;
    wp.retry_budget = 2;
    wp.hedge_delay = kDelta / 2;
    wp.cast_retries = 1;
  }
  WorkloadStack stack(wp);
  cfg.node_extension = stack.node_extension();

  BootstrapExperiment exp(cfg);
  stack.bind_registry(exp.engine().metrics());

  std::unique_ptr<ByzantineModel> adversary;
  if (c.has_adversary()) {
    AdversaryPlan ap;
    ap.seed = c.adversary_seed;
    ap.fraction = c.byzantine_fraction;
    ap.window = {make_gen(n, t).epoch, make_gen(n, t).horizon};
    ap.poison = c.byz_poison;
    ap.eclipse = c.byz_eclipse;
    ap.suppress_probability = c.byz_suppress;
    adversary = install_adversary_plan(exp.engine(), ap);
  }

  const SimTime epoch = cfg.warmup_cycles * kDelta;
  DriverConfig dc;
  dc.batch = 4;
  dc.period = kDelta / 4;
  dc.put_fraction = 0.5;
  dc.value_bytes = 64;
  dc.seed = c.seed ^ 0xD1CEF00Dull;
  dc.from = epoch + t.fault_from_cycle * kDelta;
  dc.to = epoch + t.wl_to_cycle * kDelta;
  WorkloadDriver driver(stack, dc);
  driver.start(exp.engine());
  driver.schedule_cast(exp.engine(), epoch + (t.fault_to_cycle + 2) * kDelta);

  const ExperimentResult result =
      exp.run(verbose ? [](std::size_t cycle, const ConvergenceMetrics& m) {
        std::fprintf(stderr, "  cycle %zu: missing_leaf %.4f missing_prefix %.4f\n",
                     cycle, m.missing_leaf_fraction(), m.missing_prefix_fraction());
      } : std::function<void(std::size_t, const ConvergenceMetrics&)>());
  exp.engine().run_until(epoch + (t.max_cycles + t.quiesce_cycles) * kDelta);

  Engine& engine = exp.engine();
  ChaosObservation o;
  o.sent = engine.traffic().messages_sent;
  o.dropped = engine.traffic().messages_dropped;
  o.to_dead = engine.traffic().messages_to_dead;
  o.delivered = engine.traffic().messages_delivered;
  o.duplicated = engine.traffic().messages_duplicated;
  const WorkloadSummary wl = stack.log().summary();
  o.wl_issued = wl.issued();
  o.wl_answered = wl.answered();
  o.wl_timeouts = wl.timeouts;
  o.wl_unroutable = wl.unroutable;
  for (std::size_t a = 0; a < engine.node_count(); ++a) {
    o.wl_pending += stack.service(engine, a).pending_requests();
  }
  if (const obs::SpanLog* spans = engine.span_log(); spans != nullptr) {
    const obs::SpanSummary s = spans->summary();
    o.span_opened = s.opened;
    o.span_closed = s.closed;
    o.span_in_flight = s.in_flight;
    o.span_stray = s.stray_closes;
    o.span_overflow = s.overflow_dropped;
  }
  o.n = engine.node_count();
  o.alive = engine.alive_count();
  for (std::size_t a = 0; a < engine.node_count(); ++a) {
    if (!engine.is_alive(a)) continue;
    const BootstrapProtocol& bp = exp.bootstrap_of(static_cast<Address>(a));
    if (!bp.active()) {
      ++o.inactive_alive;
    } else if (bp.leaf_set().empty()) {
      ++o.empty_leaf_alive;
    }
  }
  o.missing_leaf_fraction = result.final_metrics.missing_leaf_fraction();
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const bool smoke = flags.get_bool("smoke", false);
  const auto plans =
      static_cast<std::size_t>(flags.get_int("plans", smoke ? 24 : 300));
  const auto n = static_cast<std::size_t>(flags.get_int("n", 48));
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 7));
  const std::size_t shards = shards_flag(flags);
  const auto replay_every =
      static_cast<std::size_t>(flags.get_int("replay-every", 8));
  const std::int64_t only_case = flags.get_int("case", -1);
  apply_log_level_flag(flags);
  flags.finish();

  const SoakTiming timing;
  const ChaosGenConfig gen = make_gen(n, timing);

  if (only_case >= 0) {
    // Debug mode: one case, per-cycle convergence trace, oracle verdicts.
    const ChaosCase c =
        make_chaos_case(gen, seed, static_cast<std::size_t>(only_case));
    std::printf("case %lld: %s\n", static_cast<long long>(only_case),
                c.describe().c_str());
    const ChaosObservation o = run_case(c, n, shards, timing, /*verbose=*/true);
    const std::vector<std::string> bad = check_chaos_invariants(o);
    for (const std::string& msg : bad) std::printf("oracle: %s\n", msg.c_str());
    std::printf("%s\n", bad.empty() ? "PASSED" : "FAILED");
    return bad.empty() ? 0 : 1;
  }

  std::printf("=== Chaos soak: %zu plans, %zu nodes, seed %llu, shards %zu ===\n",
              plans, n, static_cast<unsigned long long>(seed), shards);
  std::size_t failures = 0;
  std::size_t replays = 0;
  for (std::size_t i = 0; i < plans; ++i) {
    const ChaosCase c = make_chaos_case(gen, seed, i);
    const ChaosObservation o = run_case(c, n, shards, timing);
    const std::vector<std::string> bad = check_chaos_invariants(o);
    if (!bad.empty()) {
      ++failures;
      std::fprintf(stderr, "FAIL case %zu (seed %llu): %s\n", i,
                   static_cast<unsigned long long>(seed), c.describe().c_str());
      for (const std::string& msg : bad) {
        std::fprintf(stderr, "  oracle: %s\n", msg.c_str());
      }
      break;  // first failure stops the soak: the repro is already printed
    }
    if (replay_every != 0 && i % replay_every == 0) {
      // Cross-K byte-identity: the same case on a different shard count must
      // produce the identical observation.
      const std::size_t other = shards == 4 ? 2 : 4;
      const ChaosObservation o2 = run_case(c, n, other, timing);
      ++replays;
      if (chaos_digest(o) != chaos_digest(o2)) {
        ++failures;
        std::fprintf(stderr,
                     "FAIL case %zu: digest mismatch shards %zu vs %zu "
                     "(%016llx != %016llx) — %s\n",
                     i, shards, other,
                     static_cast<unsigned long long>(chaos_digest(o)),
                     static_cast<unsigned long long>(chaos_digest(o2)),
                     c.describe().c_str());
        break;
      }
    }
    if ((i + 1) % 25 == 0) {
      std::fprintf(stderr, "  %zu/%zu plans passed (%zu cross-K replays)\n", i + 1,
                   plans, replays);
    }
  }
  if (failures == 0) {
    std::printf("chaos soak PASSED: %zu plans, %zu cross-K replays, 0 violations\n",
                plans, replays);
    return 0;
  }
  std::printf("chaos soak FAILED\n");
  return 1;
}
