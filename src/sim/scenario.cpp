#include "sim/scenario.hpp"

#include "common/assert.hpp"
#include "common/logging.hpp"

namespace bsvc {

void schedule_catastrophe(Engine& engine, SimTime at, double fraction) {
  BSVC_CHECK(fraction >= 0.0 && fraction <= 1.0);
  BSVC_CHECK(at >= engine.now());
  engine.schedule_call(at - engine.now(), [fraction](Engine& e) {
    const auto alive = e.alive_addresses();
    const auto n_kill = static_cast<std::uint32_t>(fraction * static_cast<double>(alive.size()));
    const auto victims = e.rng().distinct_indices(n_kill, static_cast<std::uint32_t>(alive.size()));
    for (auto v : victims) e.kill_node(alive[v]);
    BSVC_INFO("catastrophe at t=%llu: killed %u of %zu nodes",
              static_cast<unsigned long long>(e.now()), n_kill, alive.size());
  });
}

namespace {

// Expected count `x` realized as floor(x) plus one more with prob frac(x).
std::uint32_t probabilistic_round(Rng& rng, double x) {
  const auto base = static_cast<std::uint32_t>(x);
  return base + (rng.chance(x - static_cast<double>(base)) ? 1u : 0u);
}

void churn_step(Engine& engine, ChurnConfig config, NodeFactory factory) {
  if (engine.now() >= config.to) return;

  const auto alive = engine.alive_addresses();
  if (!alive.empty()) {
    auto& rng = engine.rng();
    const auto n_fail =
        probabilistic_round(rng, config.fail_rate * static_cast<double>(alive.size()));
    const auto n_join =
        probabilistic_round(rng, config.join_rate * static_cast<double>(alive.size()));

    const auto victims =
        rng.distinct_indices(std::min<std::uint32_t>(n_fail, static_cast<std::uint32_t>(alive.size())),
                             static_cast<std::uint32_t>(alive.size()));
    for (auto v : victims) engine.kill_node(alive[v]);

    for (std::uint32_t i = 0; i < n_join && factory; ++i) {
      const Address addr = factory(engine);
      // Joiners start at a random offset within the period, like everyone
      // else in the loosely synchronized model.
      engine.start_node(addr, engine.rng().below(config.period));
    }
  }

  engine.schedule_call(config.period, [config, factory](Engine& e) {
    churn_step(e, config, factory);
  });
}

}  // namespace

void schedule_churn(Engine& engine, const ChurnConfig& config, NodeFactory factory) {
  BSVC_CHECK(config.period > 0);
  BSVC_CHECK(config.from <= config.to);
  BSVC_CHECK(config.from >= engine.now());
  engine.schedule_call(config.from - engine.now(), [config, factory](Engine& e) {
    churn_step(e, config, factory);
  });
}

}  // namespace bsvc
