#include "core/leaf_set.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/perfect_tables.hpp"
#include "tests/test_util.hpp"

namespace bsvc {
namespace {

NodeDescriptor d(NodeId id) { return {id, static_cast<Address>(id & 0xFFFF)}; }

TEST(LeafSet, StartsEmpty) {
  LeafSet ls(1000, 8);
  EXPECT_TRUE(ls.empty());
  EXPECT_EQ(ls.size(), 0u);
  EXPECT_EQ(ls.capacity(), 8u);
  EXPECT_EQ(ls.own_id(), 1000u);
}

TEST(LeafSet, IgnoresOwnIdAndNullAddresses) {
  LeafSet ls(1000, 8);
  const std::vector<NodeDescriptor> in{{1000, 5}, {2000, kNullAddress}};
  ls.update(in);
  EXPECT_TRUE(ls.empty());
}

TEST(LeafSet, ClassifiesDirections) {
  LeafSet ls(1000, 8);
  const std::vector<NodeDescriptor> in{d(1001), d(1002), d(999), d(998)};
  ls.update(in);
  ASSERT_EQ(ls.successors().size(), 2u);
  ASSERT_EQ(ls.predecessors().size(), 2u);
  EXPECT_EQ(ls.successors()[0].id, 1001u);  // sorted by successor distance
  EXPECT_EQ(ls.successors()[1].id, 1002u);
  EXPECT_EQ(ls.predecessors()[0].id, 999u);
  EXPECT_EQ(ls.predecessors()[1].id, 998u);
}

TEST(LeafSet, KeepsClosestPerDirection) {
  LeafSet ls(1000, 4);  // 2 per direction
  std::vector<NodeDescriptor> in;
  for (NodeId i = 1; i <= 10; ++i) {
    in.push_back(d(1000 + i));
    in.push_back(d(1000 - i));
  }
  ls.update(in);
  ASSERT_EQ(ls.successors().size(), 2u);
  ASSERT_EQ(ls.predecessors().size(), 2u);
  EXPECT_EQ(ls.successors()[0].id, 1001u);
  EXPECT_EQ(ls.successors()[1].id, 1002u);
  EXPECT_EQ(ls.predecessors()[0].id, 999u);
  EXPECT_EQ(ls.predecessors()[1].id, 998u);
}

TEST(LeafSet, TopsUpFromOtherDirectionWhenShort) {
  LeafSet ls(1000, 6);  // wants 3+3
  // Only one predecessor exists; successors must fill the spare capacity.
  const std::vector<NodeDescriptor> in{d(999), d(1001), d(1002), d(1003), d(1004), d(1005),
                                       d(1006)};
  ls.update(in);
  EXPECT_EQ(ls.predecessors().size(), 1u);
  EXPECT_EQ(ls.successors().size(), 5u);
  EXPECT_EQ(ls.size(), 6u);
}

TEST(LeafSet, UpdateIsMonotoneImprovement) {
  LeafSet ls(0, 4);
  ls.update(std::vector<NodeDescriptor>{d(100), d(200)});
  EXPECT_TRUE(ls.contains(100));
  // With no predecessors known, the top-up rule keeps up to capacity
  // successors; closer ones sort first.
  ls.update(std::vector<NodeDescriptor>{d(10), d(20), d(300)});
  EXPECT_TRUE(ls.contains(10));
  EXPECT_TRUE(ls.contains(20));
  EXPECT_TRUE(ls.contains(100));
  EXPECT_TRUE(ls.contains(200));
  EXPECT_FALSE(ls.contains(300));  // fifth-closest successor: beyond capacity
  // Once predecessors appear they reclaim their half of the capacity.
  const NodeId near_pred = NodeId(0) - 5;
  const NodeId far_pred = NodeId(0) - 9;
  ls.update(std::vector<NodeDescriptor>{d(near_pred), d(far_pred)});
  EXPECT_TRUE(ls.contains(near_pred));
  EXPECT_TRUE(ls.contains(far_pred));
  EXPECT_TRUE(ls.contains(10));
  EXPECT_TRUE(ls.contains(20));
  EXPECT_FALSE(ls.contains(100));
}

TEST(LeafSet, UpdateIsIdempotent) {
  LeafSet ls(500, 6);
  const std::vector<NodeDescriptor> in{d(400), d(600), d(450)};
  ls.update(in);
  const auto first = ls.all();
  ls.update(in);
  EXPECT_EQ(ls.all(), first);
}

TEST(LeafSet, NoDuplicateIds) {
  LeafSet ls(0, 8);
  const std::vector<NodeDescriptor> in{d(5), d(5), d(5), d(7)};
  ls.update(in);
  EXPECT_EQ(ls.size(), 2u);
}

TEST(LeafSet, RemoveEntry) {
  LeafSet ls(0, 8);
  ls.update(std::vector<NodeDescriptor>{d(5), d(7)});
  EXPECT_TRUE(ls.remove(5));
  EXPECT_FALSE(ls.contains(5));
  EXPECT_FALSE(ls.remove(5));
  EXPECT_EQ(ls.size(), 1u);
}

TEST(LeafSet, SortedByRingDistanceOrder) {
  // Successors and predecessors at equal distances (and the antipode, a
  // successor): the merged lanes must equal a full sort by closer_on_ring,
  // which puts the successor first on a tie.
  for (const NodeId own : {NodeId{1000}, NodeId{3}, ~NodeId{0} - 3}) {
    LeafSet ls(own, 11);
    std::vector<NodeDescriptor> in;
    for (const NodeId off : {1u, 4u, 9u, 30u}) {
      in.push_back(d(own + off));
      in.push_back(d(own - off));
    }
    in.push_back(d(own - 2));
    in.push_back(d(own + (NodeId{1} << 63)));
    ls.update(in);
    ASSERT_EQ(ls.size(), 10u);
    auto expected = ls.all();
    std::sort(expected.begin(), expected.end(),
              [own](const NodeDescriptor& a, const NodeDescriptor& b) {
                return closer_on_ring(own, a.id, b.id);
              });
    const auto sorted = ls.sorted_by_ring_distance();
    EXPECT_EQ(sorted, expected) << "own " << own;
    EXPECT_EQ(sorted[0].id, own + 1);
    EXPECT_EQ(sorted[1].id, own - 1);
  }
}

TEST(LeafSet, WrapAroundNeighbours) {
  const NodeId own = ~NodeId{0} - 2;  // near the top of the ID space
  LeafSet ls(own, 4);
  const std::vector<NodeDescriptor> in{d(1), d(5), d(own - 1), d(own - 5)};
  ls.update(in);
  // 1 and 5 are successors across the wrap.
  EXPECT_EQ(ls.successors().size(), 2u);
  EXPECT_EQ(ls.successors()[0].id, 1u);
  EXPECT_EQ(ls.predecessors()[0].id, own - 1);
}

// Property: given global knowledge, LeafSet converges to exactly the
// perfect leaf set the oracle computes, across many random memberships.
class LeafSetVsOracle : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(LeafSetVsOracle, FullKnowledgeEqualsPerfect) {
  const auto [n, c] = GetParam();
  const auto members = test::random_descriptors(n, 42 + n + c);
  BootstrapConfig cfg;
  cfg.c = c;
  const PerfectTables truth(members, cfg);

  for (std::size_t probe = 0; probe < std::min<std::size_t>(n, 25); ++probe) {
    const auto& me = members[probe];
    LeafSet ls(me.id, c);
    ls.update(members);  // sees everyone, including itself (must be skipped)
    auto expect = truth.perfect_leaf_ids(truth.rank_of_id(me.id));
    std::vector<NodeId> got;
    for (const auto& e : ls.all()) got.push_back(e.id);
    std::sort(expect.begin(), expect.end());
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, expect) << "n=" << n << " c=" << c << " probe=" << probe;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, LeafSetVsOracle,
                         ::testing::Combine(::testing::Values(3, 5, 10, 21, 64, 257),
                                            ::testing::Values(2, 4, 8, 20)));

}  // namespace
}  // namespace bsvc
