// Property test: the SoA LeafSet and PrefixTable (parallel NodeId and
// Address lanes), and CREATEMESSAGE, must produce element-identical
// contents, in identical iteration order, to the straightforward sort-based
// semantics under any interleaving of insert, evict, merge and copy
// operations. The references below are AoS algorithms (vectors of
// NodeDescriptor, full sorts by ID and by distance, same spare/top-up
// arithmetic); both sides are driven with the same seeded random operation
// sequences and compared after every step.
//
// Duplicate IDs: when one ID arrives with two addresses the first
// occurrence wins, which is what std::stable_sort by ID followed by
// std::unique gives. The pools below hold such conflicting bindings.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "core/bootstrap.hpp"
#include "core/leaf_set.hpp"
#include "core/prefix_table.hpp"
#include "id/digits.hpp"
#include "id/ring.hpp"
#include "sim/engine.hpp"
#include "tests/test_util.hpp"

namespace bsvc {
namespace {

// --- Reference (seed) implementations ------------------------------------

class RefLeafSet {
 public:
  RefLeafSet(NodeId own, std::size_t capacity) : own_(own), capacity_(capacity) {}

  void update(const std::vector<NodeDescriptor>& incoming) {
    std::vector<NodeDescriptor> candidates = succ_;
    candidates.insert(candidates.end(), pred_.begin(), pred_.end());
    for (const auto& d : incoming) {
      if (d.id == own_ || d.addr == kNullAddress) continue;
      candidates.push_back(d);
    }
    std::stable_sort(candidates.begin(), candidates.end(),
                     [](const NodeDescriptor& a, const NodeDescriptor& b) { return a.id < b.id; });
    candidates.erase(std::unique(candidates.begin(), candidates.end(),
                                 [](const NodeDescriptor& a, const NodeDescriptor& b) {
                                   return a.id == b.id;
                                 }),
                     candidates.end());

    std::vector<NodeDescriptor> succ;
    std::vector<NodeDescriptor> pred;
    for (const auto& d : candidates) (is_successor(own_, d.id) ? succ : pred).push_back(d);
    std::sort(succ.begin(), succ.end(),
              [this](const NodeDescriptor& a, const NodeDescriptor& b) {
                return successor_distance(own_, a.id) < successor_distance(own_, b.id);
              });
    std::sort(pred.begin(), pred.end(),
              [this](const NodeDescriptor& a, const NodeDescriptor& b) {
                return predecessor_distance(own_, a.id) < predecessor_distance(own_, b.id);
              });

    const std::size_t half = capacity_ / 2;
    std::size_t take_s = std::min(succ.size(), half);
    std::size_t take_p = std::min(pred.size(), half);
    std::size_t spare = capacity_ - take_s - take_p;
    const std::size_t extra_s = std::min(succ.size() - take_s, spare);
    take_s += extra_s;
    spare -= extra_s;
    take_p += std::min(pred.size() - take_p, spare);

    succ.resize(take_s);
    pred.resize(take_p);
    succ_ = std::move(succ);
    pred_ = std::move(pred);
  }

  bool remove(NodeId id) {
    for (auto* side : {&succ_, &pred_}) {
      for (auto it = side->begin(); it != side->end(); ++it) {
        if (it->id == id) {
          side->erase(it);
          return true;
        }
      }
    }
    return false;
  }

  const std::vector<NodeDescriptor>& successors() const { return succ_; }
  const std::vector<NodeDescriptor>& predecessors() const { return pred_; }

 private:
  NodeId own_;
  std::size_t capacity_;
  std::vector<NodeDescriptor> succ_;
  std::vector<NodeDescriptor> pred_;
};

class RefPrefixTable {
 public:
  RefPrefixTable(NodeId own, DigitConfig digits, int k)
      : own_(own), digits_(digits), k_(k) {}

  bool insert(const NodeDescriptor& d) {
    if (d.id == own_ || d.addr == kNullAddress) return false;
    const int row = common_prefix_digits(own_, d.id, digits_);
    const int col = digit(d.id, row, digits_);
    const NodeId lo = prefix_range_lo(own_, row, col, digits_);
    const NodeId hi = prefix_range_hi(own_, row, col, digits_);
    const auto by_id = [](const NodeDescriptor& a, NodeId id) { return a.id < id; };
    const auto first = std::lower_bound(entries_.begin(), entries_.end(), lo, by_id);
    const auto last =
        hi == 0 ? entries_.end() : std::lower_bound(first, entries_.end(), hi, by_id);
    if (last - first >= k_) return false;
    const auto pos = std::lower_bound(first, last, d.id, by_id);
    if (pos != last && pos->id == d.id) return false;
    entries_.insert(pos, d);
    return true;
  }

  bool remove(NodeId id) {
    const auto pos = std::lower_bound(
        entries_.begin(), entries_.end(), id,
        [](const NodeDescriptor& a, NodeId key) { return a.id < key; });
    if (pos == entries_.end() || pos->id != id) return false;
    entries_.erase(pos);
    return true;
  }

  const std::vector<NodeDescriptor>& entries() const { return entries_; }

 private:
  NodeId own_;
  DigitConfig digits_;
  int k_;
  std::vector<NodeDescriptor> entries_;
};

// --- Comparison helpers ----------------------------------------------------

void expect_same(DescriptorView actual, const std::vector<NodeDescriptor>& expected,
                 const char* what, std::size_t step) {
  ASSERT_EQ(actual.size(), expected.size()) << what << " size at step " << step;
  std::size_t i = 0;
  // Walk the view's own iteration order — this pins order, not just contents.
  for (const auto& d : actual) {
    EXPECT_EQ(d.id, expected[i].id) << what << "[" << i << "].id at step " << step;
    EXPECT_EQ(d.addr, expected[i].addr) << what << "[" << i << "].addr at step " << step;
    ++i;
  }
}

/// `n` random descriptors, then `conflicts` more that reuse some of their
/// IDs at fresh addresses: one ID bound to two addresses.
std::vector<NodeDescriptor> conflicting_pool(std::size_t n, std::size_t conflicts,
                                             std::uint64_t seed) {
  auto pool = test::random_descriptors(n, seed);
  Rng rng(seed + 99);
  for (std::size_t i = 0; i < conflicts; ++i) {
    pool.push_back({pool[rng.below(n)].id, static_cast<Address>(n + i)});
  }
  return pool;
}

// --- Drivers ---------------------------------------------------------------

TEST(SoaEquivalence, LeafSetMatchesSeedSemanticsUnderRandomOps) {
  for (const std::uint64_t seed : {1ull, 7ull, 1234ull}) {
    Rng rng(seed);
    const NodeId own = rng.next_u64();
    const std::size_t c = 2 + rng.below(19);  // odd capacities exercise the float slot
    LeafSet ls(own, c);
    RefLeafSet ref(own, c);
    const auto pool = conflicting_pool(200, 40, seed * 31 + 1);

    for (std::size_t step = 0; step < 300; ++step) {
      const auto op = rng.below(10);
      if (op < 6) {  // merge a random batch (UPDATELEAFSET)
        std::vector<NodeDescriptor> batch;
        const auto n = 1 + rng.below(25);
        for (std::uint64_t i = 0; i < n; ++i) batch.push_back(pool[rng.below(pool.size())]);
        if (rng.chance(0.1)) batch.push_back({own, 1});            // self: ignored
        if (rng.chance(0.1)) batch.push_back({123, kNullAddress});  // null: ignored
        ls.update(batch);
        ref.update(batch);
      } else if (op < 9) {  // evict (dead-peer removal), present or not
        const NodeId victim = rng.chance(0.7) && !ref.successors().empty()
                                  ? ref.successors()[rng.below(ref.successors().size())].id
                                  : pool[rng.below(pool.size())].id;
        EXPECT_EQ(ls.remove(victim), ref.remove(victim)) << "step " << step;
      } else {  // copy round-trip: the copied set must carry identical state
        const LeafSet snapshot = ls;
        ls = snapshot;
      }
      expect_same(ls.successors(), ref.successors(), "successors", step);
      expect_same(ls.predecessors(), ref.predecessors(), "predecessors", step);
    }
  }
}

TEST(SoaEquivalence, PrefixTableMatchesSeedSemanticsUnderRandomOps) {
  const DigitConfig digits{};  // repo default (b = 4)
  for (const std::uint64_t seed : {2ull, 11ull, 4321ull}) {
    Rng rng(seed);
    const NodeId own = rng.next_u64();
    const int k = 1 + static_cast<int>(rng.below(4));
    PrefixTable pt(own, digits, k);
    RefPrefixTable ref(own, digits, k);
    auto pool = conflicting_pool(300, 60, seed * 17 + 5);
    // Random IDs almost all land in row 0. Add IDs sharing 1..15 digits with
    // the own ID, and the first and last ID of some cells (the top cell of
    // row 0 ends at the top of the ID space).
    for (Address a = 1000; a < 1100; ++a) {
      pool.push_back({own ^ (rng.next_u64() >> (4 * (1 + rng.below(15)))), a});
    }
    for (Address a = 2000; a < 2040; ++a) {
      const int row = static_cast<int>(rng.below(16));
      int col = static_cast<int>(rng.below(16));
      if (col == digit(own, row, digits)) col = (col + 1) % 16;
      pool.push_back({prefix_range_lo(own, row, col, digits), a});
      pool.push_back({static_cast<NodeId>(prefix_range_hi(own, row, col, digits) - 1), a + 100});
    }
    pool.push_back({~NodeId{0}, 3000});

    for (std::size_t step = 0; step < 600; ++step) {
      const auto op = rng.below(10);
      if (op < 5) {  // UPDATEPREFIXTABLE for one descriptor
        const auto& d = pool[rng.below(pool.size())];
        EXPECT_EQ(pt.insert(d), ref.insert(d)) << "step " << step;
      } else if (op < 7) {
        // A batch the way a message brings it: an ascending or descending
        // run by ID, possibly wrapping past the top of the ID space.
        std::vector<NodeDescriptor> batch;
        const auto n = 1 + rng.below(40);
        for (std::uint64_t i = 0; i < n; ++i) batch.push_back(pool[rng.below(pool.size())]);
        std::stable_sort(batch.begin(), batch.end(),
                         [](const NodeDescriptor& a, const NodeDescriptor& b) {
                           return a.id < b.id;
                         });
        if (rng.chance(0.5)) std::reverse(batch.begin(), batch.end());
        if (rng.chance(0.5)) {
          std::rotate(batch.begin(), batch.begin() + static_cast<std::ptrdiff_t>(rng.below(n)),
                      batch.end());
        }
        if (rng.chance(0.1)) batch.push_back({own, 1});            // self: ignored
        if (rng.chance(0.1)) batch.push_back({123, kNullAddress});  // null: ignored
        std::size_t added = 0;
        for (const auto& d : batch) added += ref.insert(d) ? 1 : 0;
        EXPECT_EQ(pt.insert_all(batch), added) << "step " << step;
      } else if (op < 9) {  // dead-peer removal, present or not
        const NodeId victim = rng.chance(0.7) && !ref.entries().empty()
                                  ? ref.entries()[rng.below(ref.entries().size())].id
                                  : pool[rng.below(pool.size())].id;
        EXPECT_EQ(pt.remove(victim), ref.remove(victim)) << "step " << step;
      } else {  // copy round-trip
        const PrefixTable snapshot = pt;
        pt = snapshot;
      }
      expect_same(pt.entries(), ref.entries(), "entries", step);
      EXPECT_EQ(pt.filled(), ref.entries().size()) << "step " << step;
    }
  }
}

// --- CREATEMESSAGE -------------------------------------------------------------

/// The sort-based CREATEMESSAGE: the union sorted by ID (stably, so the
/// first occurrence of an ID wins) and deduplicated, split by direction from
/// the peer, each direction sorted by distance, then the ring cut with the
/// top-up rule and the prefix part from the leftovers.
struct RefMessage {
  std::vector<NodeDescriptor> ring;
  std::vector<NodeDescriptor> prefix;
};

RefMessage ref_create_message(const BootstrapConfig& cfg, const LeafSet& leaf,
                              const std::vector<NodeDescriptor>& samples,
                              const PrefixTable& table, NodeDescriptor self, NodeId peer_id) {
  std::vector<NodeDescriptor> un;
  for (const auto& d : leaf.successors()) un.push_back(d);
  for (const auto& d : leaf.predecessors()) un.push_back(d);
  if (cfg.use_random_samples) {
    un.insert(un.end(), samples.begin(),
              samples.begin() + static_cast<std::ptrdiff_t>(std::min(cfg.cr, samples.size())));
  }
  if (cfg.prefix_entries_in_union) {
    for (const auto& d : table.entries()) un.push_back(d);
  }
  un.push_back(self);
  std::stable_sort(un.begin(), un.end(),
                   [](const NodeDescriptor& a, const NodeDescriptor& b) { return a.id < b.id; });
  un.erase(std::unique(un.begin(), un.end(),
                       [](const NodeDescriptor& a, const NodeDescriptor& b) {
                         return a.id == b.id;
                       }),
           un.end());
  un.erase(std::remove_if(un.begin(), un.end(),
                          [peer_id](const NodeDescriptor& d) { return d.id == peer_id; }),
           un.end());

  std::vector<NodeDescriptor> succ;
  std::vector<NodeDescriptor> pred;
  for (const auto& d : un) (is_successor(peer_id, d.id) ? succ : pred).push_back(d);
  std::sort(succ.begin(), succ.end(), [peer_id](const NodeDescriptor& a, const NodeDescriptor& b) {
    return successor_distance(peer_id, a.id) < successor_distance(peer_id, b.id);
  });
  std::sort(pred.begin(), pred.end(), [peer_id](const NodeDescriptor& a, const NodeDescriptor& b) {
    return predecessor_distance(peer_id, a.id) < predecessor_distance(peer_id, b.id);
  });
  const std::size_t half = cfg.c / 2;
  std::size_t take_s = std::min(succ.size(), half);
  std::size_t take_p = std::min(pred.size(), half);
  std::size_t spare = cfg.c - take_s - take_p;
  const std::size_t extra_s = std::min(succ.size() - take_s, spare);
  take_s += extra_s;
  spare -= extra_s;
  take_p += std::min(pred.size() - take_p, spare);

  RefMessage out;
  out.ring.assign(succ.begin(), succ.begin() + static_cast<std::ptrdiff_t>(take_s));
  out.ring.insert(out.ring.end(), pred.begin(), pred.begin() + static_cast<std::ptrdiff_t>(take_p));
  if (cfg.send_prefix_part) {
    std::vector<int> fill(static_cast<std::size_t>(cfg.digits.num_digits<NodeId>() *
                                                   cfg.digits.radix()));
    const auto consider = [&](const NodeDescriptor& d) {
      const int i = common_prefix_digits(peer_id, d.id, cfg.digits);
      const int j = digit(d.id, i, cfg.digits);
      int& f = fill[static_cast<std::size_t>(i * cfg.digits.radix() + j)];
      if (f < cfg.k) {
        ++f;
        out.prefix.push_back(d);
      }
    };
    for (std::size_t i = take_s; i < succ.size(); ++i) consider(succ[i]);
    for (std::size_t i = take_p; i < pred.size(); ++i) consider(pred[i]);
  }
  return out;
}

/// Returns its list, cut to the size asked for: the samples of every call
/// are known to the test.
class FixedSampler final : public PeerSampler {
 public:
  std::vector<NodeDescriptor> list;
  DescriptorList sample(std::size_t n) override {
    return {list.begin(), list.begin() + static_cast<std::ptrdiff_t>(std::min(n, list.size()))};
  }
};

/// One live bootstrap node at address 0 whose tables the test fills through
/// delivered messages. The engine's other addresses are never started, so
/// whatever the node sends is dropped.
class CreateMessageHarness {
 public:
  static constexpr Address kAddresses = 4096;  // every address the pools use

  CreateMessageHarness(const BootstrapConfig& cfg, NodeId own,
                       const std::vector<NodeDescriptor>& seeds)
      : cfg_(cfg), self_{own, 0} {
    for (Address a = 0; a < kAddresses; ++a) engine_.add_node(a == 0 ? own : a);
    sampler_.list = seeds;
    auto proto = std::make_unique<BootstrapProtocol>(cfg, &sampler_, nullptr, /*start_delay=*/1);
    proto_ = proto.get();
    slot_ = engine_.attach(0, std::move(proto));
    engine_.start_node(0);
    engine_.run_until(2);  // init: the leaf set from `seeds`, then one active step
  }

  /// UPDATELEAFSET + UPDATEPREFIXTABLE over an answer from `sender`.
  void deliver(NodeDescriptor sender, const DescriptorList& ring, const DescriptorList& prefix) {
    Context ctx(engine_, 0, slot_);
    const BootstrapMessage msg(sender, ring, prefix, /*is_request=*/false);
    proto_->on_message(ctx, sender.addr, msg);
  }

  const LeafSet& leaf() const { return proto_->leaf_set(); }
  const PrefixTable& table() const { return proto_->prefix_table(); }

  /// Compares create_message(peer) with the sort-based reference.
  void check(NodeId peer, const std::vector<NodeDescriptor>& samples, const char* what) {
    sampler_.list = samples;
    const RefMessage ref = ref_create_message(cfg_, leaf(), samples, table(), self_, peer);
    const auto msg = proto_->create_message(peer, /*is_request=*/true);
    const auto same = [&](std::span<const NodeDescriptor> actual,
                          const std::vector<NodeDescriptor>& expected, const char* part) {
      ASSERT_EQ(actual.size(), expected.size()) << what << " " << part << " size, peer " << peer;
      for (std::size_t i = 0; i < actual.size(); ++i) {
        EXPECT_EQ(actual[i], expected[i]) << what << " " << part << "[" << i << "], peer " << peer;
      }
    };
    same(msg->ring_part(), ref.ring, "ring");
    same(msg->prefix_part(), ref.prefix, "prefix");
  }

 private:
  BootstrapConfig cfg_;
  NodeDescriptor self_;
  Engine engine_{1};
  FixedSampler sampler_;
  BootstrapProtocol* proto_ = nullptr;
  ProtocolSlot slot_ = 0;
};

TEST(SoaEquivalence, CreateMessageMatchesSortBasedSelection) {
  struct Variant {
    const char* name;
    std::size_t c;
    bool samples;
    bool prefix_union;
    bool prefix_part;
  };
  const Variant variants[] = {
      {"paper", 20, true, true, true},        {"odd c", 7, true, true, true},
      {"no samples", 20, false, true, true},  {"no prefix union", 20, true, false, true},
      {"no prefix part", 20, true, true, false},
  };
  for (const Variant& v : variants) {
    for (const std::uint64_t seed : {3ull, 8ull}) {
      BootstrapConfig cfg;
      cfg.c = v.c;
      cfg.use_random_samples = v.samples;
      cfg.prefix_entries_in_union = v.prefix_union;
      cfg.send_prefix_part = v.prefix_part;
      Rng rng(seed);
      const NodeId own = rng.next_u64();
      auto pool = conflicting_pool(1500, 200, seed);
      for (auto& d : pool) ++d.addr;  // address 0 is the node itself
      // Half the pool near the own ID, so the table's deeper rows fill too.
      for (std::size_t i = 0; i < 750; ++i) pool[i].id = own ^ (pool[i].id >> 20);
      const auto pick = [&] { return pool[rng.below(pool.size())]; };
      Address next_addr = 2000;  // fresh addresses for conflicting bindings

      std::vector<NodeDescriptor> seeds;
      for (std::size_t i = 0; i < cfg.c; ++i) seeds.push_back(pick());
      CreateMessageHarness h(cfg, own, seeds);
      for (int m = 0; m < 8; ++m) {
        DescriptorList ring;
        DescriptorList prefix;
        for (int i = 0; i < 20; ++i) ring.push_back(pick());
        for (int i = 0; i < 100; ++i) prefix.push_back(pick());
        // Current leaf entries at a second address: the leaf set keeps its
        // binding, the table may take the new one.
        for (const auto& d : h.leaf().all()) {
          if (rng.chance(0.3)) prefix.push_back({d.id, next_addr++});
        }
        h.deliver(pick(), ring, prefix);
      }
      ASSERT_GT(h.table().filled(), 50u) << v.name;

      for (int trial = 0; trial < 40; ++trial) {
        NodeId peer = rng.next_u64();
        switch (trial % 5) {
          case 0: peer = rng.below(1000); break;                 // just above 0
          case 1: peer = ~NodeId{0} - rng.below(1000); break;   // just below 2^64
          case 2: peer = h.leaf().all()[rng.below(h.leaf().size())].id; break;
          case 3: peer = h.table().entries()[rng.below(h.table().filled())].id; break;
          default: break;
        }
        std::vector<NodeDescriptor> samples;
        for (int i = 0; i < 24; ++i) samples.push_back(pick());
        // Conflicting bindings against the leaf set, the table, the samples
        // themselves and self; the peer's antipode; the peer itself.
        samples.push_back({h.leaf().all()[rng.below(h.leaf().size())].id, next_addr++});
        samples.push_back({h.table().entries()[rng.below(h.table().filled())].id, next_addr++});
        samples.push_back({samples[rng.below(24)].id, next_addr++});
        samples.push_back({peer + (NodeId{1} << 63), next_addr++});
        samples.push_back({peer, next_addr++});
        if (trial % 4 == 0) samples.push_back({own, next_addr++});
        std::rotate(samples.begin(), samples.begin() + 24, samples.end());
        h.check(peer, samples, v.name);
      }
    }
  }
}

TEST(SoaEquivalence, CreateMessageTopsUpAShortSide) {
  // Fewer than c/2 candidates on one side of the peer: the other side fills
  // the spare ring slots, and whatever is left goes to the prefix part.
  for (const std::size_t c : {20u, 7u}) {
    BootstrapConfig cfg;
    cfg.c = c;
    const NodeId own = 0x4000'0000'0000'0000;
    const NodeId peer = 0x8000'0000'0000'0000;
    std::vector<NodeDescriptor> seeds;
    for (Address a = 1; a <= 3; ++a) seeds.push_back({peer - a * 1000, a});  // predecessors
    CreateMessageHarness h(cfg, own, seeds);
    std::vector<NodeDescriptor> samples;
    for (Address a = 10; a < 40; ++a) samples.push_back({peer + a * 77777, a});  // successors
    h.check(peer, samples, "three predecessors and self");
    h.check(own, samples, "peer is the own ID");
    samples.resize(4);
    h.check(peer, samples, "union smaller than c");
    h.check(peer, {}, "no samples");
  }
}

}  // namespace
}  // namespace bsvc
