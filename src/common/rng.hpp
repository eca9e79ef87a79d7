// Deterministic pseudo-random number generation.
//
// The whole simulator is seeded from a single 64-bit value, and every random
// sequence must be reproducible across platforms and standard-library
// implementations. <random> distributions are implementation-defined in the
// exact sequences they produce, so we implement the generator (xoshiro256**)
// and the distributions we need ourselves.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/assert.hpp"

namespace bsvc {

/// SplitMix64 step; used to expand a single seed into generator state and to
/// derive independent child seeds. Public because tests and the engine use it
/// to derive per-node seeds.
std::uint64_t splitmix64(std::uint64_t& state);

/// xoshiro256** 1.0 (Blackman & Vigna) with a portable set of distribution
/// helpers. Copyable: copies continue the sequence independently, which is
/// handy for "what would happen next" probes in tests.
class Rng {
 public:
  /// Seeds the four state words via SplitMix64 from `seed`.
  explicit Rng(std::uint64_t seed = 0xB5297A4D1E013F2Dull);

  /// Raw 64 uniformly random bits.
  std::uint64_t next_u64();

  /// Uniform integer in [0, bound). `bound` must be > 0. Uses Lemire's
  /// multiply-shift rejection method (unbiased).
  std::uint64_t below(std::uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t range(std::int64_t lo, std::int64_t hi);

  /// Uniform double in [0, 1) with 53 bits of precision.
  double uniform01();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// True with probability `p` (clamped to [0, 1]).
  bool chance(double p);

  /// Exponentially distributed value with the given mean (> 0).
  double exponential(double mean);

  /// Uniformly random element index-picked from a non-empty vector.
  template <typename T>
  const T& pick(const std::vector<T>& v) {
    BSVC_CHECK(!v.empty());
    return v[static_cast<std::size_t>(below(v.size()))];
  }

  /// Fisher–Yates shuffle (portable, unlike std::shuffle's use of the URBG).
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      using std::swap;
      swap(v[i - 1], v[static_cast<std::size_t>(below(i))]);
    }
  }

  /// Draws `n` distinct indices from [0, universe) (n <= universe) using
  /// Floyd's algorithm in O(n); order is unspecified but deterministic.
  std::vector<std::uint32_t> distinct_indices(std::uint32_t n, std::uint32_t universe);

  /// As distinct_indices, but fills a caller-provided buffer (cleared
  /// first), so hot paths can reuse one scratch vector. Identical draws.
  void distinct_indices_into(std::uint32_t n, std::uint32_t universe,
                             std::vector<std::uint32_t>& out);

  /// Derives an independent child generator; the parent sequence advances.
  Rng split();

  /// Same state, so the same sequence from here on.
  friend bool operator==(const Rng&, const Rng&) = default;

 private:
  std::array<std::uint64_t, 4> s_;
};

}  // namespace bsvc
