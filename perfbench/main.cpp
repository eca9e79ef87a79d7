// One process of the repository benchmark (see README.md): builds the
// network of one workload, sets it up, runs its measured phase through the
// public experiment, oracle and workload APIs, and prints one JSON object per
// line describing each repetition. run.py builds and drives this program,
// checks its outputs and reports the metrics.
//
// Modes:
//   plain    repeat set-up (at least kMinSetups times) and the measured
//            phase (until --seconds of it have run); nothing observes.
//   profile  one repetition with the engine's window profiler installed for
//            the measured phase (crew phases).
//   trace    one repetition with a LayerTrace sink installed from the start
//            (per-layer time; requires one shard).
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/experiment.hpp"
#include "core/oracle.hpp"
#include "layer_trace.hpp"
#include "obs/profiler.hpp"
#include "workload/driver.hpp"

using namespace bsvc;
using perfbench::LayerTrace;
using perfbench::Segment;

namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Workload {
  const char* name;
  std::size_t n;
  std::size_t shards;
  double drop;
  /// The bootstrap runs this many cycles, or to perfect tables if that takes
  /// longer: a fixed length keeps the work per run independent of the seed.
  std::size_t bootstrap_cycles;
  /// true: the bootstrap is part of set-up and the measured phase is KV
  /// traffic; false: the measured phase is the bootstrap itself.
  bool serve;
};

constexpr Workload kWorkloads[] = {
    {"fig3-n16k-k1", std::size_t{1} << 14, 1, 0.0, 26, false},
    {"fig4-n16k-k4", std::size_t{1} << 14, 4, 0.2, 38, false},
    {"kv-n4k-k1", std::size_t{1} << 12, 1, 0.0, 14, true},
};

/// An open-loop request schedule over a converged overlay.
struct Traffic {
  double requests_per_node_cycle;
  std::size_t issue_cycles;
  std::size_t casts;
};
/// The kv workload's measured phase.
constexpr Traffic kServe{8.0, 12, 4};
/// The service check that follows a bootstrap run on the fig workloads. It
/// spans several cycles so that its throughput is timed over seconds, not
/// over one host stall.
constexpr Traffic kCheck{0.25, 6, 2};
/// Cycles after the last issue before outcomes are read; every answer of a
/// loss-free run arrives within one.
constexpr std::size_t kQuiesceCycles = 1;
constexpr SimTime kIssuePeriod = kDelta / 20;
/// A get reads only keys put at least this long ago, so the put was served.
constexpr SimTime kReadAfter = kDelta;
constexpr std::uint32_t kValueBytes = 64;
constexpr std::uint32_t kCastBytes = 256;
/// Set-ups per plain run, so the set-up median is over several samples.
constexpr std::size_t kMinSetups = 3;
/// Hard stop for a bootstrap that does not reach perfect tables.
constexpr std::size_t kMaxBootstrapCycles = 80;

/// One JSON object on one line; values keep every digit.
class JsonLine {
 public:
  JsonLine& num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return raw(key, buf);
  }
  JsonLine& count(const std::string& key, std::uint64_t v) {
    return raw(key, std::to_string(v));
  }
  JsonLine& str(const std::string& key, const std::string& v) {
    std::string quoted = "\"";
    for (const char c : v) {
      if (c == '"' || c == '\\') quoted += '\\';
      quoted += c;
    }
    return raw(key, quoted + "\"");
  }
  JsonLine& raw(const std::string& key, const std::string& json) {
    body_ += body_.empty() ? "{" : ", ";
    body_ += "\"" + key + "\": " + json;
    return *this;
  }
  void print() const { std::printf("%s}\n", body_.c_str()); }

 private:
  std::string body_;
};

std::uint64_t counter(const Engine& engine, const std::string& name) {
  obs::MetricsRegistry& m = engine.metrics();
  return m.has(name) ? m.counter(name).value() : 0;
}

std::uint64_t workload_messages_sent(const Engine& engine) {
  std::uint64_t total = 0;
  for (const char* tag : {"kv.put", "kv.get", "kv.replicate", "kv.response", "cast"}) {
    total += counter(engine, std::string("msg.sent.") + tag);
  }
  return total;
}

/// The network of one repetition. The stack is declared first so it outlives
/// the experiment whose nodes point into it.
struct Network {
  std::unique_ptr<WorkloadStack> stack;
  std::unique_ptr<BootstrapExperiment> exp;
  SimTime epoch = 0;

  Engine& engine() { return exp->engine(); }
  SimTime delta() const { return exp->config().bootstrap.delta; }
};

/// Builds the network with the paper's parameters (b=4, k=3, c=20, cr=30 are
/// the BootstrapConfig defaults) and a workload service on every node.
Network build(const Workload& w, std::uint64_t seed, std::size_t shards) {
  Network net;
  net.stack = std::make_unique<WorkloadStack>();
  ExperimentConfig cfg;
  cfg.n = w.n;
  cfg.seed = seed;
  cfg.shards = shards;
  cfg.drop_probability = w.drop;
  cfg.sample_every_cycles = 0;
  cfg.node_extension = net.stack->node_extension();
  net.exp = std::make_unique<BootstrapExperiment>(cfg);
  net.epoch = cfg.warmup_cycles * cfg.bootstrap.delta;
  return net;
}

/// Traffic and timing of one phase, read from the engine and the benchmark's
/// own clocks.
struct Phase {
  double wall_s = 0.0;
  double run_until_s = 0.0;
  double oracle_s = 0.0;
  std::size_t cycles = 0;
  std::uint64_t events = 0;
  TrafficStats traffic;
  std::uint64_t requests_sent = 0;      // bootstrap requests handed to the transport
  std::uint64_t answers_delivered = 0;  // bootstrap answers that arrived
  std::uint64_t bootstrap_messages = 0;
  std::uint64_t bootstrap_entries = 0;

  /// Snapshots the counters a phase is measured against.
  static Phase begin(Network& net) {
    Engine& e = net.engine();
    e.reset_traffic();
    Phase p;
    p.events = e.events_dispatched();
    p.requests_sent = counter(e, "msg.sent.bootstrap.request");
    p.answers_delivered = counter(e, "msg.delivered.bootstrap.answer");
    const BootstrapStats s = net.exp->current_stats();
    p.bootstrap_messages = s.requests_sent + s.replies_sent;
    p.bootstrap_entries = s.entries_sent;
    return p;
  }

  /// Turns the snapshot into deltas.
  void end(Network& net) {
    Engine& e = net.engine();
    traffic = e.traffic();
    events = e.events_dispatched() - events;
    requests_sent = counter(e, "msg.sent.bootstrap.request") - requests_sent;
    answers_delivered = counter(e, "msg.delivered.bootstrap.answer") - answers_delivered;
    const BootstrapStats s = net.exp->current_stats();
    bootstrap_messages = s.requests_sent + s.replies_sent - bootstrap_messages;
    bootstrap_entries = s.entries_sent - bootstrap_entries;
  }

  void emit(JsonLine& out) const {
    out.num("phase_wall_s", wall_s)
        .num("phase_run_until_s", run_until_s)
        .num("phase_oracle_s", oracle_s)
        .count("phase_cycles", cycles)
        .count("phase_events", events)
        .count("phase_messages_sent", traffic.messages_sent)
        .count("phase_messages_dropped", traffic.messages_dropped)
        .count("phase_bytes", traffic.bytes_sent)
        .count("bootstrap_requests_sent", requests_sent)
        .count("bootstrap_answers_delivered", answers_delivered)
        .count("bootstrap_messages", bootstrap_messages)
        .count("bootstrap_entries", bootstrap_entries);
  }
};

/// Runs one engine step, booking its time to the trace when one is given.
void step_to(Network& net, SimTime t, LayerTrace* trace, Phase& phase) {
  const Clock::time_point t0 = Clock::now();
  if (trace != nullptr) trace->resume();
  net.engine().run_until(t);
  if (trace != nullptr) trace->pause();
  phase.run_until_s += since(t0);
}

/// Runs the bootstrap cycle by cycle from the current time (the warm-up
/// end) for at least `min_cycles` cycles and until the oracle reports perfect
/// leaf sets and prefix tables. Returns the first cycle with perfect tables
/// (0-based, as ExperimentResult counts), or -1.
int run_bootstrap(Network& net, std::size_t min_cycles, LayerTrace* trace, Phase& phase) {
  Engine& e = net.engine();
  const Clock::time_point t0 = Clock::now();
  Clock::time_point to = Clock::now();
  const ConvergenceOracle oracle(e, net.exp->config().bootstrap, net.exp->bootstrap_slot());
  phase.oracle_s += since(to);
  int converged = -1;
  for (std::size_t cycle = 0; cycle < kMaxBootstrapCycles; ++cycle) {
    step_to(net, net.epoch + (cycle + 1) * net.delta(), trace, phase);
    to = Clock::now();
    const ConvergenceMetrics m = oracle.measure();
    phase.oracle_s += since(to);
    phase.cycles = cycle + 1;
    if (converged < 0 && m.converged()) converged = static_cast<int>(cycle);
    if (converged >= 0 && phase.cycles >= min_cycles) break;
  }
  phase.wall_s = since(t0);
  return converged;
}

/// Open-loop KV request generator: batches at fixed virtual times, a
/// uniformly random origin per request, 50/50 puts and gets once keys are
/// readable. Requests are issued through WorkloadService::begin_kv from
/// coordinator calls, like WorkloadDriver; unlike it, gets only read keys
/// whose put is kReadAfter old and checks that the key's root holds them,
/// so every get must find its key.
class KvGenerator {
 public:
  KvGenerator(WorkloadStack& stack, const ConvergenceOracle& owners, std::uint64_t seed,
              SimTime from, SimTime to, std::size_t batch, LayerTrace* trace)
      : stack_(stack),
        owners_(owners),
        rng_(seed ^ 0x6B5F1E3C2A9D4B87ull),
        from_(from),
        to_(to),
        batch_(batch),
        trace_(trace) {}

  KvGenerator(const KvGenerator&) = delete;
  KvGenerator& operator=(const KvGenerator&) = delete;

  void start(Engine& engine) {
    engine.schedule_call(from_ - engine.now(), [this](Engine& e) { step(e); });
  }

  /// Gets whose key was missing at its root when the get was issued.
  std::uint64_t lost_puts() const { return lost_puts_; }

 private:
  void step(Engine& engine) {
    for (std::size_t b = 0; b < batch_; ++b) issue(engine);
    if (engine.now() + kIssuePeriod < to_) {
      engine.schedule_call(kIssuePeriod, [this](Engine& e) { step(e); });
    }
  }

  void issue(Engine& engine) {
    const SimTime now = engine.now();
    while (readable_ < puts_.size() && puts_[readable_].at + kReadAfter <= now) ++readable_;
    const auto origin = static_cast<Address>(rng_.below(engine.node_count()));
    KvOp op = KvOp::Put;
    NodeId key = 0;
    if (readable_ == 0 || rng_.chance(0.5)) {
      key = rng_.next_u64();
      puts_.push_back(PutRecord{key, now});
    } else {
      op = KvOp::Get;
      key = puts_[rng_.below(readable_)].key;
      const Address root = owners_.owner_of(key).addr;
      if (!stack_.service(engine, root).has_key(key)) ++lost_puts_;
    }
    if (trace_ != nullptr) trace_->enter_issue();
    Context ctx(engine, origin, stack_.slot().slot());
    stack_.service(engine, origin).begin_kv(ctx, op, key, kValueBytes);
    if (trace_ != nullptr) trace_->leave_issue();
  }

  struct PutRecord {
    NodeId key;
    SimTime at;
  };

  WorkloadStack& stack_;
  const ConvergenceOracle& owners_;
  Rng rng_;
  SimTime from_;
  SimTime to_;
  std::size_t batch_;
  LayerTrace* trace_;
  std::vector<PutRecord> puts_;
  std::size_t readable_ = 0;
  std::uint64_t lost_puts_ = 0;
};

/// Outcome of one traffic window.
struct Served {
  WorkloadSummary summary;
  WorkloadDriver::CastCoverage casts;
  std::uint64_t lost_puts = 0;
  std::uint64_t workload_messages = 0;

  void emit(JsonLine& out) const {
    const WorkloadSummary& w = summary;
    out.count("kv_issued", w.issued())
        .count("kv_answered", w.answered())
        .count("kv_puts", w.puts)
        .count("kv_gets", w.gets)
        .count("kv_get_found", w.get_found)
        .count("kv_get_miss", w.get_miss)
        .count("kv_timeouts", w.timeouts)
        .count("kv_unroutable", w.unroutable)
        .count("kv_rtt_count", w.rtt_count)
        .num("kv_rtt_p50", w.rtt_p50)
        .num("kv_rtt_p99", w.rtt_p99)
        .num("kv_hops_mean", w.hops_mean)
        .count("kv_casts", casts.casts)
        .count("kv_cast_expected", casts.expected)
        .count("kv_cast_reached", casts.reached)
        .count("kv_cast_duplicates", casts.duplicates)
        .count("kv_lost_puts", lost_puts)
        .count("kv_workload_messages", workload_messages);
  }
};

/// Serves `traffic` over the converged overlay, loss-free, starting at the
/// current cycle boundary. The phase covers the issue window plus the quiesce
/// cycles.
Served serve(Network& net, const Traffic& traffic, std::uint64_t seed, LayerTrace* trace,
             Phase& phase) {
  Engine& e = net.engine();
  const SimTime delta = net.delta();
  const SimTime start = e.now();
  e.transport().drop_probability = 0.0;
  const ConvergenceOracle owners(e, net.exp->config().bootstrap, net.exp->bootstrap_slot());
  const SimTime issue_end = start + traffic.issue_cycles * delta;
  const auto batch = static_cast<std::size_t>(
      traffic.requests_per_node_cycle * static_cast<double>(e.node_count()) *
      static_cast<double>(kIssuePeriod) / static_cast<double>(delta) + 0.5);
  KvGenerator gen(*net.stack, owners, seed, start, issue_end, batch, trace);
  gen.start(e);
  DriverConfig dc;
  dc.seed = seed;
  WorkloadDriver casts(*net.stack, dc);
  for (std::size_t i = 0; i < traffic.casts; ++i) {
    casts.schedule_cast(e, start + delta / 2 + i * (issue_end - start) / traffic.casts,
                        kCastBytes);
  }
  const std::uint64_t wl_messages0 = workload_messages_sent(e);
  phase = Phase::begin(net);
  const Clock::time_point t0 = Clock::now();
  const std::size_t cycles = traffic.issue_cycles + kQuiesceCycles;
  for (std::size_t c = 0; c < cycles; ++c) step_to(net, start + (c + 1) * delta, trace, phase);
  phase.wall_s = since(t0);
  phase.cycles = cycles;
  phase.end(net);

  Served out;
  out.summary = net.stack->log().summary();
  out.casts = casts.verify_casts(e);
  out.lost_puts = gen.lost_puts();
  out.workload_messages = workload_messages_sent(e) - wl_messages0;
  return out;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  std::size_t shards = 0;  // 0: the workload's own
  std::string mode = "plain";
  double seconds = 0.0;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> [--seed N] [--shards K] "
               "[--mode plain|profile|trace] [--seconds S]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* v = argv[++i];
    if (flag == "--workload") {
      o.workload = v;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--shards") {
      o.shards = std::strtoull(v, nullptr, 10);
    } else if (flag == "--mode") {
      o.mode = v;
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(v, nullptr);
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (o.mode != "plain" && o.mode != "profile" && o.mode != "trace") usage("bad --mode");
  return o;
}

void emit_profile(JsonLine& out, const obs::ProfileSummary& p) {
  out.num("crew_dispatch_s", p.dispatch_seconds)
      .num("crew_drain_s", p.drain_seconds)
      .num("crew_stall_s", p.stall_seconds)
      .num("crew_idle_s", p.idle_seconds)
      .num("crew_barrier_stall_fraction", p.barrier_stall_fraction)
      .count("crew_mailbox_messages", p.mailbox_messages)
      .count("crew_windows", p.windows);
}

/// Per-segment time and calls, plus the trace's delivery counts checked
/// against the engine's msg.delivered.<tag> counters.
void emit_trace(JsonLine& out, const LayerTrace& trace, const Engine& engine) {
  std::string segs = "{";
  for (std::size_t i = 0; i < static_cast<std::size_t>(Segment::Count); ++i) {
    const auto s = static_cast<Segment>(i);
    char buf[160];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"layer\": \"%s\", \"ns\": %llu, \"calls\": %llu}",
                  i == 0 ? "" : ", ", perfbench::segment_name(s), perfbench::segment_layer(s),
                  static_cast<unsigned long long>(trace.ns(s)),
                  static_cast<unsigned long long>(trace.calls(s)));
    segs += buf;
  }
  out.raw("segments", segs + "}");

  std::string delivered = "{";
  std::map<std::string, std::uint64_t> by_tag;
  for (const LayerTrace::Delivered& d : trace.delivered()) {
    delivered += (delivered.size() > 1 ? ", \"" : "\"") + std::to_string(d.slot) + "/" +
                 d.tag + "\": " + std::to_string(d.count);
    by_tag[d.tag] += d.count;
  }
  out.raw("trace_delivered", delivered + "}");
  // Both directions: every tag the sink saw matches its counter, and every
  // nonzero counter has a tag the sink saw.
  const std::string prefix = "msg.delivered.";
  std::uint64_t mismatches = 0;
  for (const auto& [tag, sum] : by_tag) {
    if (sum != counter(engine, prefix + tag)) ++mismatches;
  }
  engine.metrics().snapshot([&](const std::string& name, double value) {
    if (name.rfind(prefix, 0) == 0 && value != 0.0 &&
        by_tag.count(name.substr(prefix.size())) == 0) {
      ++mismatches;
    }
  });
  out.count("trace_delivery_mismatches", mismatches);
}

/// One repetition: set-up, then (when `measure`) the measured phase.
void run_rep(const Workload& w, const Options& o, std::size_t shards, std::size_t rep,
             bool measure, double& measured_s) {
  // Observers are declared before the network so they outlive its engine.
  LayerTrace trace;
  LayerTrace* tr = o.mode == "trace" ? &trace : nullptr;
  std::optional<obs::EngineProfiler> profiler;
  if (o.mode == "profile") profiler.emplace(shards);

  JsonLine out;
  out.count("rep", rep);
  const Clock::time_point t0 = Clock::now();
  Network net = build(w, o.seed, shards);
  if (tr != nullptr) net.engine().set_trace_sink(tr);
  net.engine().run_until(net.epoch);
  int converged = -1;
  if (w.serve) {
    Phase boot = Phase::begin(net);
    converged = run_bootstrap(net, w.bootstrap_cycles, nullptr, boot);
    boot.end(net);
    out.count("setup_cycles", boot.cycles)
        .count("setup_requests_sent", boot.requests_sent)
        .count("setup_answers_delivered", boot.answers_delivered);
  }
  out.num("setup_s", since(t0));
  if (!measure) {
    out.print();
    return;
  }

  if (profiler) net.engine().set_profiler(&*profiler);
  Phase phase;
  Served served;
  if (w.serve) {
    served = serve(net, kServe, o.seed, tr, phase);
  } else {
    phase = Phase::begin(net);
    converged = run_bootstrap(net, w.bootstrap_cycles, tr, phase);
    phase.end(net);
  }
  if (profiler) {
    emit_profile(out, profiler->summary());
    net.engine().set_profiler(nullptr);
  }
  double kv_wall_s = phase.wall_s;
  if (!w.serve) {
    // The service check is not part of the measured phase; the trace keeps
    // counting its deliveries but books no time to it.
    Phase check;
    served = serve(net, kCheck, o.seed, nullptr, check);
    kv_wall_s = check.wall_s;
  }
  measured_s += phase.wall_s;
  out.count("measured", 1)
      .raw("converged_cycle", std::to_string(converged))
      .num("kv_wall_s", kv_wall_s);
  phase.emit(out);
  served.emit(out);
  if (tr != nullptr) emit_trace(out, trace, net.engine());
  out.print();
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  const Workload* w = nullptr;
  for (const Workload& cand : kWorkloads) {
    if (o.workload == cand.name) w = &cand;
  }
  if (w == nullptr) usage(("unknown workload '" + o.workload + "'").c_str());
  const std::size_t shards = o.shards != 0 ? o.shards : w->shards;
  if (o.mode == "trace" && shards != 1) usage("--mode trace needs one shard");

  double measured_s = 0.0;
  std::size_t rep = 0;
  if (o.mode == "plain") {
    // Every repetition sets up afresh; the measured phase runs until it has
    // taken --seconds in total.
    while (rep < kMinSetups || measured_s < o.seconds) {
      run_rep(*w, o, shards, rep, rep == 0 || measured_s < o.seconds, measured_s);
      ++rep;
    }
  } else {
    run_rep(*w, o, shards, rep, true, measured_s);
  }

  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  JsonLine env;
  env.count("done", 1)
      .num("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0)
      .count("hardware_concurrency", std::thread::hardware_concurrency())
      .count("shards", shards)
      .str("build_type", PERFBENCH_BUILD_TYPE)
      .str("cxx_flags", PERFBENCH_CXX_FLAGS)
      .str("compiler", PERFBENCH_COMPILER);
  env.print();
  return 0;
}
