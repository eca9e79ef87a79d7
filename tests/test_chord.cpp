#include "overlay/chord.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "sampling/oracle_sampler.hpp"
#include "tests/test_util.hpp"

namespace bsvc {
namespace {

NodeDescriptor d(NodeId id) { return {id, static_cast<Address>(id & 0xFFFF)}; }

TEST(FingerTable, StartsEmpty) {
  FingerTable ft(1000);
  EXPECT_EQ(ft.filled(), 0u);
  EXPECT_TRUE(ft.entries().empty());
  EXPECT_FALSE(ft.finger(0).has_value());
  EXPECT_FALSE(ft.finger(63).has_value());
}

TEST(FingerTable, RejectsSelfAndNull) {
  FingerTable ft(1000);
  EXPECT_FALSE(ft.offer({1000, 5}));
  EXPECT_FALSE(ft.offer({2000, kNullAddress}));
  EXPECT_EQ(ft.filled(), 0u);
}

TEST(FingerTable, SingleCandidateFillsAllSlots) {
  // Any node is at-or-past every target on a wrapping ring, so one
  // candidate fills all 64 slots.
  FingerTable ft(1000);
  EXPECT_TRUE(ft.offer(d(5000)));
  EXPECT_EQ(ft.filled(), 64u);
  EXPECT_EQ(ft.entries().size(), 1u);
  EXPECT_EQ(ft.finger(0)->id, 5000u);
}

TEST(FingerTable, CloserCandidateWinsPerSlot) {
  const NodeId own = 0;
  FingerTable ft(own);
  ft.offer(d(NodeId{1} << 40));  // at target of slot 40 exactly
  ft.offer(d(NodeId{1} << 20));
  // Slot 20's target is 2^20: the 2^20 node is exact.
  EXPECT_EQ(ft.finger(20)->id, NodeId{1} << 20);
  // Slot 40's target is 2^40: the 2^40 node is exact; the 2^20 one is
  // before the target (would have to wrap all the way around).
  EXPECT_EQ(ft.finger(40)->id, NodeId{1} << 40);
  // Slot 10's target 2^10: closest at-or-after is 2^20.
  EXPECT_EQ(ft.finger(10)->id, NodeId{1} << 20);
}

TEST(FingerTable, ExactTargetIsKept) {
  const NodeId own = 12345;
  FingerTable ft(own);
  const NodeId exact = own + (NodeId{1} << 30);
  ft.offer(d(exact));
  ft.offer(d(exact + 999));
  EXPECT_EQ(ft.finger(30)->id, exact);
}

TEST(FingerTable, RemoveClearsSlots) {
  FingerTable ft(0);
  ft.offer(d(777));
  EXPECT_EQ(ft.filled(), 64u);
  EXPECT_TRUE(ft.remove(777));
  EXPECT_EQ(ft.filled(), 0u);
  EXPECT_FALSE(ft.remove(777));
}

TEST(FingerTable, WrapAroundTargets) {
  const NodeId own = ~NodeId{0} - 10;  // near the top: big targets wrap
  FingerTable ft(own);
  ft.offer(d(100));  // sits just past own on the wrapped ring
  // Slot 63's target is own + 2^63 (deep in the middle of the space);
  // 100 is at-or-after it only by wrapping — still a valid candidate.
  EXPECT_TRUE(ft.finger(63).has_value());
  // Slot 0's target own+1 wraps near the top; 100 is the only candidate.
  EXPECT_EQ(ft.finger(0)->id, 100u);
}

// --- end-to-end Chord bootstrap -----------------------------------------

struct ChordNet {
  std::unique_ptr<Engine> engine;
  std::size_t n;

  explicit ChordNet(std::size_t n, std::uint64_t seed) : n(n) {
    engine = std::make_unique<Engine>(seed);
    IdGenerator ids{Rng(seed ^ 0xC0FFEE)};
    for (std::size_t i = 0; i < n; ++i) engine->add_node(ids.next());
    for (Address a = 0; a < n; ++a) {
      auto sampler = std::make_unique<OracleSamplerProtocol>(*engine, a);
      auto* sp = sampler.get();
      engine->attach(a, std::move(sampler));
      engine->attach(a,
                     std::make_unique<ChordBootstrapProtocol>(sp, engine->rng().below(kDelta)));
      engine->start_node(a);
    }
  }

  const ChordBootstrapProtocol& proto(Address a) const {
    return dynamic_cast<const ChordBootstrapProtocol&>(engine->protocol(a, 1));  // test-only checked cast
  }

  void run_cycles(std::size_t cycles) { engine->run_until(engine->now() + cycles * kDelta); }
};

TEST(ChordBootstrap, FingersConvergeToExactTargets) {
  ChordNet net(512, 1);
  const ChordOracle oracle(*net.engine, SlotRef<ChordBootstrapProtocol>::assume(1));
  net.run_cycles(40);
  const auto m = oracle.measure();
  EXPECT_TRUE(m.fingers_converged())
      << "missing " << (m.finger_perfect - m.finger_present) << " of " << m.finger_perfect;
}

TEST(ChordBootstrap, ConvergenceIsFast) {
  ChordNet net(512, 2);
  const ChordOracle oracle(*net.engine, SlotRef<ChordBootstrapProtocol>::assume(1));
  int converged_at = -1;
  for (int cycle = 0; cycle < 40; ++cycle) {
    net.run_cycles(1);
    if (oracle.measure().fingers_converged()) {
      converged_at = cycle;
      break;
    }
  }
  ASSERT_GE(converged_at, 0);
  EXPECT_LE(converged_at, 30);
}

TEST(ChordBootstrap, MessageInvariants) {
  ChordNet net(256, 3);
  net.run_cycles(20);
  auto& proto = const_cast<ChordBootstrapProtocol&>(net.proto(0));
  Rng rng(4);
  for (int trial = 0; trial < 20; ++trial) {
    const NodeId peer = rng.next_u64();
    const auto msg = proto.create_message(peer, true);
    EXPECT_LE(msg->ring_part.size(), proto.leaf_set().capacity());
    EXPECT_LE(msg->finger_part.size(), static_cast<std::size_t>(FingerTable::kBits));
    std::set<NodeId> seen;
    for (const auto& e : msg->ring_part) {
      EXPECT_NE(e.id, peer);
      EXPECT_TRUE(seen.insert(e.id).second);
    }
    for (const auto& e : msg->finger_part) {
      EXPECT_NE(e.id, peer);
      EXPECT_TRUE(seen.insert(e.id).second);  // disjoint from ring part
    }
  }
}

TEST(ChordBootstrap, TrueFingerMatchesBruteForce) {
  ChordNet net(128, 5);
  const ChordOracle oracle(*net.engine, SlotRef<ChordBootstrapProtocol>::assume(1));
  std::vector<NodeDescriptor> members;
  for (Address a = 0; a < 128; ++a) members.push_back(net.engine->descriptor_of(a));
  Rng rng(6);
  for (int trial = 0; trial < 200; ++trial) {
    const auto& m = members[rng.below(members.size())];
    const int i = static_cast<int>(rng.below(64));
    const NodeId target = m.id + (NodeId{1} << i);
    // Brute force: minimize successor distance from the target.
    NodeDescriptor best = members[0];
    for (const auto& cand : members) {
      if (successor_distance(target, cand.id) < successor_distance(target, best.id)) {
        best = cand;
      }
    }
    EXPECT_EQ(oracle.true_finger(m.id, i).id, best.id);
  }
}

TEST(ChordBootstrap, LeafSetsAlsoConverge) {
  // The Chord variant builds the same sorted ring underneath.
  ChordNet net(256, 7);
  net.run_cycles(40);
  std::vector<NodeDescriptor> members;
  for (Address a = 0; a < 256; ++a) members.push_back(net.engine->descriptor_of(a));
  BootstrapConfig cfg;  // c = 20, the Chord protocol's ring size
  const PerfectTables truth(members, cfg);
  for (Address a = 0; a < 256; ++a) {
    const auto& ls = net.proto(a).leaf_set();
    for (const NodeId want : truth.perfect_leaf_ids(truth.rank_of_id(net.engine->id_of(a)))) {
      EXPECT_TRUE(ls.contains(want));
    }
  }
}

}  // namespace
}  // namespace bsvc
