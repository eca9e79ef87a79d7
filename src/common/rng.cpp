#include "common/rng.hpp"

#include <cmath>

#include "common/stamped_map.hpp"

namespace bsvc {

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

namespace {
inline std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Rng::Rng(std::uint64_t seed) {
  for (auto& word : s_) word = splitmix64(seed);
  // All-zero state is the one forbidden state of xoshiro; splitmix64 cannot
  // produce four zeros from any seed, but keep the guarantee explicit.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

std::uint64_t Rng::below(std::uint64_t bound) {
  BSVC_CHECK(bound > 0);
  // Lemire's nearly-divisionless unbiased method.
  std::uint64_t x = next_u64();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < bound) {
    const std::uint64_t threshold = -bound % bound;
    while (lo < threshold) {
      x = next_u64();
      m = static_cast<__uint128_t>(x) * bound;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

std::int64_t Rng::range(std::int64_t lo, std::int64_t hi) {
  BSVC_CHECK(lo <= hi);
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  // span == 0 means the full 64-bit range.
  const std::uint64_t draw = (span == 0) ? next_u64() : below(span);
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(lo) + draw);
}

double Rng::uniform01() {
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform01(); }

bool Rng::chance(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform01() < p;
}

double Rng::exponential(double mean) {
  BSVC_CHECK(mean > 0.0);
  double u;
  do {
    u = uniform01();
  } while (u == 0.0);
  return -mean * std::log(u);
}

std::vector<std::uint32_t> Rng::distinct_indices(std::uint32_t n, std::uint32_t universe) {
  std::vector<std::uint32_t> out;
  distinct_indices_into(n, universe, out);
  return out;
}

void Rng::distinct_indices_into(std::uint32_t n, std::uint32_t universe,
                                std::vector<std::uint32_t>& out) {
  BSVC_CHECK(n <= universe);
  // Floyd's algorithm: step j in [universe - n, universe) draws t in
  // [0, j] and takes t, or j if t is already taken (j never is: every
  // earlier take is below j). The membership test is O(1), so a call is
  // O(n) with no O(universe) allocation: one word when the universe fits
  // in 64 bits, else a set of the taken indices sized by n.
  out.clear();
  out.reserve(n);
  if (universe <= 64) {
    std::uint64_t taken = 0;
    for (std::uint32_t j = universe - n; j < universe; ++j) {
      auto t = static_cast<std::uint32_t>(below(j + 1));
      if ((taken >> t) & 1) t = j;
      taken |= std::uint64_t{1} << t;
      out.push_back(t);
    }
    return;
  }
  StampedMap taken;
  taken.reset(n);
  for (std::uint32_t j = universe - n; j < universe; ++j) {
    auto t = static_cast<std::uint32_t>(below(j + 1));
    if (!taken.find_or_insert(t, 0).second) {
      t = j;
      taken.find_or_insert(t, 0);
    }
    out.push_back(t);
  }
}

Rng Rng::split() { return Rng(next_u64()); }

}  // namespace bsvc
