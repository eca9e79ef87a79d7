#include "sampling/oracle_sampler.hpp"

namespace bsvc {

DescriptorList OracleSampler::sample(std::size_t n) {
  DescriptorList out;
  sample_into(n, out);
  return out;
}

void OracleSampler::sample_into(std::size_t n, DescriptorList& out) {
  if (n == 0) return;
  // Rejection-sample distinct alive addresses; membership is dense enough
  // in practice (alive_count ~ node_count) that this terminates fast. Falls
  // back to the exhaustive path if most nodes are dead.
  const auto total = static_cast<std::uint32_t>(engine_.node_count());
  if (total == 0) return;
  const std::size_t base = out.size();
  if (engine_.alive_count() * 2 < engine_.node_count() || n * 4 > engine_.alive_count()) {
    auto alive = engine_.alive_addresses();
    rng_.shuffle(alive);
    for (auto addr : alive) {
      if (addr == self_) continue;
      out.push_back(engine_.descriptor_of(addr));
      if (out.size() - base == n) break;
    }
    return;
  }
  taken_.assign(total, false);
  std::size_t guard = 0;
  while (out.size() - base < n && guard < 64 * n + 256) {
    ++guard;
    const auto addr = static_cast<Address>(rng_.below(total));
    if (addr == self_ || taken_[addr] || !engine_.is_alive(addr)) continue;
    taken_[addr] = true;
    out.push_back(engine_.descriptor_of(addr));
  }
}

}  // namespace bsvc
