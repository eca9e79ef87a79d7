#include "common/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

namespace bsvc {
namespace {

TEST(Rng, SameSeedSameSequence) {
  Rng a(123), b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 1000; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, BelowStaysInBounds) {
  Rng rng(7);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull, (1ull << 40)}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.below(bound), bound);
  }
}

TEST(Rng, BelowOneIsAlwaysZero) {
  Rng rng(9);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.below(1), 0u);
}

TEST(Rng, BelowIsRoughlyUniform) {
  Rng rng(11);
  constexpr std::uint64_t kBound = 10;
  constexpr int kDraws = 100000;
  std::vector<int> counts(kBound, 0);
  for (int i = 0; i < kDraws; ++i) ++counts[rng.below(kBound)];
  for (const int c : counts) {
    EXPECT_GT(c, kDraws / kBound * 0.9);
    EXPECT_LT(c, kDraws / kBound * 1.1);
  }
}

TEST(Rng, RangeIsInclusive) {
  Rng rng(13);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, Uniform01HalfOpen) {
  Rng rng(17);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(19);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
    EXPECT_FALSE(rng.chance(-0.5));
    EXPECT_TRUE(rng.chance(1.5));
  }
}

TEST(Rng, ChanceMatchesProbability) {
  Rng rng(23);
  int hits = 0;
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) hits += rng.chance(0.2) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / kDraws, 0.2, 0.01);
}

TEST(Rng, ExponentialMean) {
  Rng rng(29);
  double sum = 0.0;
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) sum += rng.exponential(5.0);
  EXPECT_NEAR(sum / kDraws, 5.0, 0.15);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(31);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto copy = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, copy);
}

TEST(Rng, ShuffleMovesElements) {
  Rng rng(37);
  std::vector<int> v(100);
  for (int i = 0; i < 100; ++i) v[static_cast<std::size_t>(i)] = i;
  rng.shuffle(v);
  int moved = 0;
  for (int i = 0; i < 100; ++i) moved += v[static_cast<std::size_t>(i)] != i ? 1 : 0;
  EXPECT_GT(moved, 80);
}

TEST(Rng, DistinctIndicesAreDistinctAndInRange) {
  Rng rng(41);
  for (std::uint32_t n : {0u, 1u, 5u, 17u}) {
    const auto idx = rng.distinct_indices(n, 20);
    EXPECT_EQ(idx.size(), n);
    std::set<std::uint32_t> seen(idx.begin(), idx.end());
    EXPECT_EQ(seen.size(), n);
    for (const auto i : idx) EXPECT_LT(i, 20u);
  }
}

TEST(Rng, DistinctIndicesFullUniverse) {
  Rng rng(43);
  const auto idx = rng.distinct_indices(10, 10);
  std::set<std::uint32_t> seen(idx.begin(), idx.end());
  EXPECT_EQ(seen.size(), 10u);
}

// Floyd's algorithm with a membership test that scans the output: the
// O(n^2) form distinct_indices_into had before its O(1) membership test.
std::vector<std::uint32_t> scanning_floyd(Rng& rng, std::uint32_t n, std::uint32_t universe) {
  std::vector<std::uint32_t> out;
  for (std::uint32_t j = universe - n; j < universe; ++j) {
    const auto t = static_cast<std::uint32_t>(rng.below(j + 1));
    const bool seen = std::find(out.begin(), out.end(), t) != out.end();
    out.push_back(seen ? j : t);
  }
  return out;
}

TEST(Rng, DistinctIndicesMatchScanningFloyd) {
  // Same indices in the same order, and the same generator state after
  // every draw: the single-word set (universe <= 64) for every n, then the
  // hashed set on both sides of the word and for large draws.
  const auto check = [](Rng& fast, Rng& slow, std::uint32_t n, std::uint32_t universe) {
    std::vector<std::uint32_t> got;
    fast.distinct_indices_into(n, universe, got);
    ASSERT_EQ(got, scanning_floyd(slow, n, universe)) << n << " of " << universe;
    ASSERT_TRUE(fast == slow) << "generator state after " << n << " of " << universe;
  };
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    Rng fast(seed);
    Rng slow(seed);
    for (std::uint32_t universe = 1; universe <= 64; ++universe) {
      for (std::uint32_t n = 0; n <= universe; ++n) check(fast, slow, n, universe);
    }
    for (std::uint32_t universe : {65u, 100u, 1000u}) {
      for (std::uint32_t n : {0u, 1u, 30u, 64u, 65u}) check(fast, slow, n, universe);
      check(fast, slow, universe, universe);
    }
    check(fast, slow, 11469, 16384);  // a 70% catastrophe at N = 2^14
    check(fast, slow, 5, 0xFFFFFFFFu);
  }
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(47);
  Rng child = a.split();
  // The child must not replay the parent's continuation.
  Rng b(47);
  (void)b.split();
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (child.next_u64() == a.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, PickReturnsElement) {
  Rng rng(53);
  const std::vector<int> v{10, 20, 30};
  for (int i = 0; i < 50; ++i) {
    const int x = rng.pick(v);
    EXPECT_TRUE(x == 10 || x == 20 || x == 30);
  }
}

TEST(Splitmix, KnownGoldenValues) {
  // Reference values from the splitmix64 reference implementation with
  // state = 0 (first three outputs).
  std::uint64_t state = 0;
  EXPECT_EQ(splitmix64(state), 0xE220A8397B1DCDAFull);
  EXPECT_EQ(splitmix64(state), 0x6E789E6AA1B965F4ull);
  EXPECT_EQ(splitmix64(state), 0x06C45D188009454Full);
}

}  // namespace
}  // namespace bsvc
