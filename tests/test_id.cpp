#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "common/rng.hpp"
#include "id/digits.hpp"
#include "id/id_generator.hpp"
#include "id/node_id.hpp"
#include "id/ring.hpp"

namespace bsvc {
namespace {

TEST(Ring, DistancesWrapAround) {
  EXPECT_EQ(successor_distance<NodeId>(10, 15), 5u);
  EXPECT_EQ(predecessor_distance<NodeId>(10, 15), NodeId(0) - 5);
  // Wrapping: from near the top to near the bottom.
  const NodeId top = ~NodeId{0} - 1;
  EXPECT_EQ(successor_distance<NodeId>(top, 3), 5u);
  EXPECT_EQ(ring_distance<NodeId>(top, 3), 5u);
}

TEST(Ring, RingDistanceSymmetric) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const NodeId a = rng.next_u64();
    const NodeId b = rng.next_u64();
    EXPECT_EQ(ring_distance(a, b), ring_distance(b, a));
  }
}

TEST(Ring, RingDistanceAtMostHalf) {
  Rng rng(2);
  const NodeId half = NodeId{1} << 63;
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LE(ring_distance(rng.next_u64(), rng.next_u64()), half);
  }
}

TEST(Ring, SuccessorClassificationPartitionsOthers) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const NodeId own = rng.next_u64();
    const NodeId x = rng.next_u64();
    if (x == own) continue;
    // Exactly one of successor / predecessor (predecessor == !successor).
    const bool succ = is_successor(own, x);
    EXPECT_EQ(succ, successor_distance(own, x) <= predecessor_distance(own, x));
  }
}

TEST(Ring, SelfIsNotItsOwnSuccessor) {
  EXPECT_FALSE(is_successor<NodeId>(5, 5));
}

TEST(Ring, HalfwayTieIsSuccessor) {
  const NodeId own = 1000;
  const NodeId x = own + (NodeId{1} << 63);
  EXPECT_TRUE(is_successor(own, x));
}

TEST(Ring, CloserOnRingIsStrictWeakOrdering) {
  Rng rng(4);
  const NodeId pivot = rng.next_u64();
  std::vector<NodeId> ids;
  for (int i = 0; i < 50; ++i) ids.push_back(rng.next_u64());
  // Irreflexivity and asymmetry.
  for (const NodeId a : ids) {
    EXPECT_FALSE(closer_on_ring(pivot, a, a));
    for (const NodeId b : ids) {
      if (closer_on_ring(pivot, a, b)) {
        EXPECT_FALSE(closer_on_ring(pivot, b, a));
      }
    }
  }
  // Sorting with it must not crash and must be by nondecreasing distance.
  std::sort(ids.begin(), ids.end(),
            [pivot](NodeId a, NodeId b) { return closer_on_ring(pivot, a, b); });
  for (std::size_t i = 1; i < ids.size(); ++i) {
    EXPECT_LE(ring_distance(pivot, ids[i - 1]), ring_distance(pivot, ids[i]));
  }
}

TEST(Ring, WorksFor128Bit) {
  using U = NodeId128;
  const U a = (U{1} << 100) + 5;
  const U b = (U{1} << 100) + 12;
  EXPECT_EQ(successor_distance(a, b), U{7});
  EXPECT_EQ(ring_distance(a, b), U{7});
  EXPECT_TRUE(is_successor(a, b));
  EXPECT_FALSE(is_successor(b, a));
}

// --- digit arithmetic, parameterized over b ------------------------------

class DigitsParam : public ::testing::TestWithParam<int> {};

TEST_P(DigitsParam, DigitExtractionRoundtrips) {
  const DigitConfig cfg{GetParam()};
  cfg.validate<NodeId>();
  Rng rng(5);
  for (int trial = 0; trial < 200; ++trial) {
    const NodeId id = rng.next_u64();
    NodeId rebuilt = 0;
    for (int i = 0; i < cfg.num_digits<NodeId>(); ++i) {
      const int d = digit(id, i, cfg);
      EXPECT_GE(d, 0);
      EXPECT_LT(d, cfg.radix());
      rebuilt = (rebuilt << cfg.bits_per_digit) | static_cast<NodeId>(d);
    }
    EXPECT_EQ(rebuilt, id);
  }
}

TEST_P(DigitsParam, CommonPrefixMatchesNaive) {
  const DigitConfig cfg{GetParam()};
  Rng rng(6);
  for (int trial = 0; trial < 500; ++trial) {
    const NodeId x = rng.next_u64();
    // Mutate one random digit so prefixes of all lengths occur.
    const int flip = static_cast<int>(rng.below(cfg.num_digits<NodeId>()));
    NodeId y = x;
    const int shift = id_bits<NodeId>() - (flip + 1) * cfg.bits_per_digit;
    y ^= (NodeId{1} + rng.below(static_cast<std::uint64_t>(cfg.radix()) - 1)) << shift;
    int naive = 0;
    while (naive < cfg.num_digits<NodeId>() && digit(x, naive, cfg) == digit(y, naive, cfg)) {
      ++naive;
    }
    EXPECT_EQ(common_prefix_digits(x, y, cfg), naive);
    EXPECT_EQ(common_prefix_digits(x, y, cfg), common_prefix_digits(y, x, cfg));
  }
}

TEST_P(DigitsParam, CommonPrefixOfSelfIsAllDigits) {
  const DigitConfig cfg{GetParam()};
  Rng rng(7);
  const NodeId x = rng.next_u64();
  EXPECT_EQ(common_prefix_digits(x, x, cfg), cfg.num_digits<NodeId>());
}

TEST_P(DigitsParam, PrefixRangeContainsExactlyMatchingIds) {
  const DigitConfig cfg{GetParam()};
  Rng rng(8);
  for (int trial = 0; trial < 300; ++trial) {
    const NodeId own = rng.next_u64();
    const int row = static_cast<int>(rng.below(cfg.num_digits<NodeId>()));
    int col = static_cast<int>(rng.below(static_cast<std::uint64_t>(cfg.radix())));
    if (col == digit(own, row, cfg)) col = (col + 1) % cfg.radix();
    const NodeId lo = prefix_range_lo(own, row, col, cfg);
    const NodeId hi = prefix_range_hi(own, row, col, cfg);

    // Membership test for an id y: lcp(own, y) == row and digit row == col.
    const auto in_cell = [&](NodeId y) {
      return common_prefix_digits(own, y, cfg) == row && digit(y, row, cfg) == col;
    };
    EXPECT_TRUE(in_cell(lo));
    EXPECT_TRUE(in_cell(hi - 1));  // last id of the range (hi may wrap to 0)
    EXPECT_FALSE(in_cell(lo - 1));
    if (hi != 0) {
      EXPECT_FALSE(in_cell(hi));
    }
    // A random id inside the range belongs to the cell.
    const NodeId span = hi - lo;  // correct even when hi wrapped to 0
    const NodeId y = lo + rng.below(span == 0 ? 1 : span);
    EXPECT_TRUE(in_cell(y));
  }
}

INSTANTIATE_TEST_SUITE_P(AllDigitWidths, DigitsParam, ::testing::Values(1, 2, 4, 8));

TEST(CountLeadingZeros, KnownValues) {
  EXPECT_EQ(count_leading_zeros<NodeId>(0), 64);
  EXPECT_EQ(count_leading_zeros<NodeId>(1), 63);
  EXPECT_EQ(count_leading_zeros<NodeId>(~NodeId{0}), 0);
  EXPECT_EQ(count_leading_zeros<NodeId128>(0), 128);
  EXPECT_EQ(count_leading_zeros<NodeId128>(1), 127);
  EXPECT_EQ(count_leading_zeros<NodeId128>(NodeId128{1} << 100), 27);
}

TEST(IdGenerator, UniquenessAndReserve) {
  IdGenerator gen{Rng(9)};
  std::set<NodeId> seen;
  for (int i = 0; i < 10000; ++i) EXPECT_TRUE(seen.insert(gen.next()).second);
  const NodeId taken = *seen.begin();
  EXPECT_FALSE(gen.reserve(taken));
  EXPECT_TRUE(gen.reserve(taken + 1) || seen.count(taken + 1) > 0);
}

TEST(IdGenerator, BatchSizeAndUniqueness) {
  IdGenerator gen{Rng(10)};
  const auto batch = gen.next_batch(1000);
  EXPECT_EQ(batch.size(), 1000u);
  std::set<NodeId> seen(batch.begin(), batch.end());
  EXPECT_EQ(seen.size(), 1000u);
}

}  // namespace
}  // namespace bsvc
