#include "workload/driver.hpp"

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>

#include "sim/engine.hpp"

namespace bsvc {

WorkloadStack::WorkloadStack(WorkloadParams params) : params_(params) {
  // Same exit-2 setup-error convention as Experiment: an incoherent knob set
  // is an input mistake, not a simulation outcome.
  if (const std::string err = params_.validate(); !err.empty()) {
    std::fprintf(stderr, "workload config error: %s\n", err.c_str());
    std::exit(2);
  }
}

void WorkloadStack::bind_registry(obs::MetricsRegistry& registry) {
  log_.bind_registry(registry);
  if (params_.retry || params_.hedge_delay > 0 || params_.cast_retries > 0) {
    log_.bind_retry_registry(registry);
  }
}

std::function<void(Engine&, Address)> WorkloadStack::node_extension(
    SlotRef<BootstrapProtocol> bootstrap) {
  return [this, bootstrap](Engine& engine, Address addr) {
    slot_ = attach_typed(
        engine, addr,
        std::make_unique<WorkloadService>(params_, bootstrap, &log_));
  };
}

WorkloadDriver::WorkloadDriver(WorkloadStack& stack, DriverConfig config)
    : stack_(stack),
      config_(config),
      // Salted so the driver's draws are independent of any node stream
      // seeded from the same experiment seed.
      rng_(config.seed ^ 0x9E3779B97F4A7C15ull) {}

void WorkloadDriver::start(Engine& engine) {
  const SimTime now = engine.now();
  const SimTime delay = config_.from > now ? config_.from - now : 0;
  engine.schedule_call(delay, [this](Engine& e) { step(e); });
}

void WorkloadDriver::step(Engine& engine) {
  if (engine.now() >= config_.to) return;
  for (std::size_t b = 0; b < config_.batch; ++b) {
    const Address origin = pick_alive(engine);
    if (origin == kNullAddress) break;
    const bool do_put = keys_.empty() || rng_.chance(config_.put_fraction);
    KvOp op = KvOp::Get;
    NodeId key;
    if (do_put) {
      op = KvOp::Put;
      key = rng_.next_u64();
      keys_.push_back(key);
    } else {
      key = rng_.pick(keys_);
    }
    Context ctx(engine, origin, stack_.slot().slot());
    stack_.service(engine, origin).begin_kv(ctx, op, key, config_.value_bytes);
  }
  if (engine.now() + config_.period < config_.to) {
    engine.schedule_call(config_.period, [this](Engine& e) { step(e); });
  }
}

Address WorkloadDriver::pick_alive(Engine& engine) {
  const std::size_t n = engine.node_count();
  if (n == 0) return kNullAddress;
  for (int attempt = 0; attempt < 64; ++attempt) {
    const auto addr = static_cast<Address>(rng_.below(n));
    if (engine.is_alive(addr)) return addr;
  }
  return kNullAddress;
}

void WorkloadDriver::schedule_cast(Engine& engine, SimTime at,
                                   std::uint32_t payload_bytes) {
  const SimTime now = engine.now();
  const SimTime delay = at > now ? at - now : 0;
  engine.schedule_call(delay, [this, payload_bytes](Engine& e) {
    const Address origin = pick_alive(e);
    if (origin == kNullAddress) return;
    const std::uint64_t id = (static_cast<std::uint64_t>(origin) << 40) |
                             kWorkloadIdBit | kCastIdBit | cast_seq_++;
    casts_.push_back(CastRecord{id, e.alive_addresses()});
    Context ctx(e, origin, stack_.slot().slot());
    stack_.service(e, origin).begin_cast(ctx, id, payload_bytes);
  });
}

WorkloadDriver::CastCoverage WorkloadDriver::verify_casts(Engine& engine) const {
  CastCoverage cov;
  cov.casts = casts_.size();
  for (const CastRecord& rec : casts_) {
    for (const Address addr : rec.members) {
      // Nodes that died after the launch are excused; everyone else must
      // have received exactly one copy.
      if (!engine.is_alive(addr)) continue;
      ++cov.expected;
      const std::uint32_t copies = stack_.service(engine, addr).cast_copies(rec.id);
      if (copies >= 1) ++cov.reached;
      if (copies > 1) cov.duplicates += copies - 1;
    }
  }
  return cov;
}

}  // namespace bsvc
