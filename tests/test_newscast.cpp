#include "sampling/newscast.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <vector>

#include "sampling/graph_metrics.hpp"
#include "sim/scenario.hpp"

namespace bsvc {
namespace {

struct NewscastNet {
  Engine engine;
  std::size_t n;

  NewscastNet(std::size_t n, std::uint64_t seed, NewscastConfig cfg = {},
              std::size_t contacts = 5, bool star_init = false)
      : engine(seed), n(n) {
    for (std::size_t i = 0; i < n; ++i) {
      const Address a = engine.add_node(static_cast<NodeId>(i * 2654435761u + 1));
      engine.attach(a, std::make_unique<NewscastProtocol>(cfg));
    }
    for (Address a = 0; a < n; ++a) {
      DescriptorList seeds;
      if (star_init) {
        // Degenerate initialization: everyone knows only node 0.
        if (a != 0) seeds.push_back(engine.descriptor_of(0));
      } else {
        for (std::size_t s = 0; s < contacts; ++s) {
          const auto peer = static_cast<Address>(engine.rng().below(n));
          if (peer != a) seeds.push_back(engine.descriptor_of(peer));
        }
      }
      proto(a).init_view(std::move(seeds));
      engine.start_node(a);
    }
  }

  NewscastProtocol& proto(Address a) {
    return dynamic_cast<NewscastProtocol&>(engine.protocol(a, 0));  // test-only checked cast
  }

  void run_cycles(std::size_t cycles, SimTime period = kDelta) {
    engine.run_until(engine.now() + cycles * period);
  }
};

TEST(Newscast, ViewNeverExceedsConfiguredSize) {
  NewscastConfig cfg;
  cfg.view_size = 8;
  NewscastNet net(64, 1, cfg);
  net.run_cycles(20);
  for (Address a = 0; a < 64; ++a) {
    EXPECT_LE(net.proto(a).view().size(), 8u);
  }
}

TEST(Newscast, ViewNeverContainsSelfOrDuplicates) {
  NewscastNet net(128, 2);
  net.run_cycles(15);
  for (Address a = 0; a < 128; ++a) {
    std::set<Address> seen;
    for (const auto& e : net.proto(a).view()) {
      EXPECT_NE(e.descriptor.addr, a);
      EXPECT_TRUE(seen.insert(e.descriptor.addr).second);
    }
  }
}

TEST(Newscast, ViewsFillUp) {
  NewscastConfig cfg;
  cfg.view_size = 20;
  NewscastNet net(256, 3, cfg);
  net.run_cycles(15);
  for (Address a = 0; a < 256; ++a) {
    EXPECT_GE(net.proto(a).view().size(), 18u);
  }
}

TEST(Newscast, SampleReturnsDistinctPeersNotSelf) {
  NewscastNet net(128, 4);
  net.run_cycles(10);
  auto samples = net.proto(5).sample(10);
  EXPECT_GE(samples.size(), 5u);
  std::set<Address> seen;
  for (const auto& d : samples) {
    EXPECT_NE(d.addr, 5u);
    EXPECT_TRUE(seen.insert(d.addr).second);
  }
}

TEST(Newscast, SampleZeroAndOversized) {
  NewscastNet net(32, 5);
  net.run_cycles(5);
  EXPECT_TRUE(net.proto(0).sample(0).empty());
  const auto all = net.proto(0).sample(1000);
  EXPECT_EQ(all.size(), net.proto(0).view().size());
}

TEST(Newscast, GraphStaysConnectedAndBalanced) {
  NewscastNet net(1024, 6);
  net.run_cycles(20);
  const auto stats = measure_view_graph(net.engine, SlotRef<NewscastProtocol>::assume(0));
  EXPECT_EQ(stats.components, 1u);
  EXPECT_EQ(stats.alive_nodes, 1024u);
  // In-degree should concentrate near the view size; a random graph with
  // mean m has stddev ~ sqrt(m). Allow generous slack.
  EXPECT_GT(stats.indegree_mean, 15.0);
  EXPECT_LT(stats.indegree_stddev, stats.indegree_mean);
  EXPECT_LT(stats.clustering, 0.3);
}

TEST(Newscast, RandomizesFromDegenerateStarInit) {
  // Every node starts knowing only node 0 ("all nodes have the same
  // samples"); the protocol must still mix into a balanced random graph.
  NewscastNet net(512, 7, {}, 5, /*star_init=*/true);
  net.run_cycles(25);
  const auto stats = measure_view_graph(net.engine, SlotRef<NewscastProtocol>::assume(0));
  EXPECT_EQ(stats.components, 1u);
  // Node 0 must no longer dominate in-degrees.
  EXPECT_LT(static_cast<double>(stats.indegree_max), 6.0 * stats.indegree_mean);
}

TEST(Newscast, SelfHealsAfterCatastrophicFailure) {
  NewscastNet net(1024, 8);
  net.run_cycles(10);
  schedule_catastrophe(net.engine, net.engine.now(), 0.7);
  net.run_cycles(25);
  const auto stats = measure_view_graph(net.engine, SlotRef<NewscastProtocol>::assume(0));
  EXPECT_EQ(stats.alive_nodes, 308u);  // 1024 - 716
  EXPECT_EQ(stats.components, 1u);
  // Dead entries age out of the views.
  EXPECT_LT(stats.dead_entry_fraction, 0.05);
}

TEST(Newscast, FreshestEntryWinsOnMerge) {
  // Direct unit check of the merge rule via two nodes exchanging.
  NewscastConfig cfg;
  cfg.view_size = 4;
  NewscastNet net(2, 9, cfg, 1);
  net.run_cycles(3);
  // Each view holds the other node with an up-to-date timestamp.
  for (Address a = 0; a < 2; ++a) {
    ASSERT_EQ(net.proto(a).view().size(), 1u);
    EXPECT_GT(net.proto(a).view()[0].timestamp, 0u);
  }
}

TEST(Newscast, TrafficIsOneExchangePerNodePerCycle) {
  NewscastNet net(256, 10);
  net.engine.reset_traffic();
  net.run_cycles(10);
  const auto& t = net.engine.traffic();
  // 256 nodes x 10 cycles x (request + answer) = 5120 messages; allow a bit
  // of slack for edge-of-window timers.
  EXPECT_NEAR(static_cast<double>(t.messages_sent), 5120.0, 300.0);
}

// --- The sort-free merge against the sort-based one -------------------------

bool in_view_order(const TimestampedDescriptor& a, const TimestampedDescriptor& b) {
  if (a.timestamp != b.timestamp) return a.timestamp > b.timestamp;
  return a.descriptor.addr < b.descriptor.addr;
}

// The merge as it was before the sort-free kernel: a front-to-back search
// per incoming entry over view + accepted entries, then a sort of the union.
std::size_t reference_merge(std::vector<TimestampedDescriptor>& view,
                            const std::vector<TimestampedDescriptor>& incoming, Address self,
                            SimTime now, const NewscastConfig& config) {
  std::vector<TimestampedDescriptor> merged = view;
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  for (const auto& entry : incoming) {
    if (entry.descriptor.addr == self || entry.descriptor.addr == kNullAddress) continue;
    if (config.harden) {
      if (entry.timestamp > now || accepted >= config.view_size + 1) {
        ++rejected;
        continue;
      }
      ++accepted;
    }
    auto it = std::find_if(merged.begin(), merged.end(), [&](const TimestampedDescriptor& e) {
      return e.descriptor.addr == entry.descriptor.addr;
    });
    if (it == merged.end()) {
      merged.push_back(entry);
    } else if (entry.timestamp > it->timestamp) {
      *it = entry;
    }
  }
  std::sort(merged.begin(), merged.end(), in_view_order);
  if (merged.size() > config.view_size) merged.resize(config.view_size);
  view = std::move(merged);
  return rejected;
}

// Fuzzes one node's view through a run of merges, applying both kernels to
// the same input and comparing after each. Every view is one a node can
// hold: a seed view (one stamp, address order unsorted, contacts drawn with
// replacement so duplicates are identical copies), then merge outputs.
class MergeFuzz {
 public:
  MergeFuzz(std::uint64_t seed, std::size_t view_size, bool harden)
      : rng_(seed), peers_(view_size * 2 + 3) {
    config_.view_size = view_size;
    config_.harden = harden;
    self_ = static_cast<Address>(rng_.below(peers_));
  }

  void run(std::size_t merges) {
    std::vector<TimestampedDescriptor> view;
    const std::size_t seeds = rng_.below(config_.view_size + 6);
    for (std::size_t i = 0; i < seeds && view.size() < config_.view_size; ++i) {
      const auto a = static_cast<Address>(rng_.below(peers_));
      if (a != self_) view.push_back({{id_of(a), a}, now_});
    }
    std::vector<TimestampedDescriptor> expected = view;
    for (std::size_t m = 0; m < merges; ++m) {
      now_ += rng_.below(3) * 8;
      const auto incoming = message();
      const std::size_t want = reference_merge(expected, incoming, self_, now_, config_);
      const std::size_t got = newscast_merge(view, incoming, self_, now_, config_);
      ASSERT_EQ(got, want) << "rejected count, merge " << m;
      ASSERT_EQ(view.size(), expected.size()) << "merge " << m;
      for (std::size_t i = 0; i < view.size(); ++i) {
        ASSERT_EQ(view[i].descriptor.id, expected[i].descriptor.id) << "merge " << m << " @" << i;
        ASSERT_EQ(view[i].descriptor.addr, expected[i].descriptor.addr)
            << "merge " << m << " @" << i;
        ASSERT_EQ(view[i].timestamp, expected[i].timestamp) << "merge " << m << " @" << i;
      }
    }
  }

 private:
  static NodeId id_of(Address a) { return a * 0x9E3779B97F4A7C15ull + 1; }

  // A stamp at or before now. Clocks advance on a coarse grid, so most
  // stamps equal others: the address tie-break orders them, and an entry
  // no fresher than the one it meets must lose.
  SimTime past_stamp() {
    const SimTime back = rng_.chance(0.7) ? rng_.below(6) * 8 : rng_.below(3 * kDelta);
    return back > now_ ? 0 : now_ - back;
  }

  TimestampedDescriptor entry(std::size_t peers) {
    const auto a = static_cast<Address>(rng_.below(peers));
    TimestampedDescriptor e{{id_of(a), a}, past_stamp()};
    const std::uint64_t r = rng_.below(40);
    if (r == 0) e.descriptor.addr = self_;
    if (r == 1) e.descriptor.addr = kNullAddress;
    if (r == 2) e.descriptor = {id_of(0xFFFFFFFEu), 0xFFFFFFFEu};  // far beyond the node count
    if (r == 3) e.timestamp = now_ + 1 + rng_.below(kDelta);        // forged freshness
    if (r >= 4 && r < 8) e.descriptor.id ^= 0x5A5A;                 // forged ID binding
    return e;
  }

  std::vector<TimestampedDescriptor> message() {
    std::vector<TimestampedDescriptor> out;
    // Mostly view-sized; sometimes a flood of up to 200 entries over more
    // distinct addresses.
    const bool flood = rng_.chance(0.05);
    const std::size_t n = flood ? 70 + rng_.below(130) : rng_.below(config_.view_size + 2);
    for (std::size_t i = 0; i < n; ++i) out.push_back(entry(flood ? 4 * peers_ + 100 : peers_));
    // Half are compliant: the sender's view order, then its fresh self entry.
    if (rng_.chance(0.5)) {
      std::sort(out.begin(), out.end(), in_view_order);
      if (rng_.chance(0.8)) {
        const auto a = static_cast<Address>(rng_.below(peers_));
        out.push_back({{id_of(a), a}, now_});
      }
    }
    return out;
  }

  Rng rng_;
  std::size_t peers_;
  NewscastConfig config_;
  Address self_ = 0;
  SimTime now_ = kDelta;
};

TEST(NewscastMerge, MatchesSortBasedMerge) {
  // Seed views with duplicate contacts, view sizes from 1 to the paper's
  // 30, messages in view order or shuffled, with and without a trailing
  // self entry, duplicate addresses within a message, self, null, far and
  // future-stamped entries, and floods; hardening on and off.
  std::uint64_t seed = 1;
  for (std::size_t view_size : {1, 4, 8, 30}) {
    for (bool harden : {false, true}) {
      for (int trial = 0; trial < 150; ++trial) {
        SCOPED_TRACE(::testing::Message() << "view_size " << view_size << " harden " << harden
                                          << " seed " << seed);
        MergeFuzz(seed++, view_size, harden).run(12);
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

TEST(NewscastMerge, FirstCopyOfADuplicateSeedIsTheOneReplaced) {
  // A view holding one address twice (a seed contact drawn twice): a
  // fresher entry replaces the first copy only, and the second copy stays
  // until it ages out.
  NewscastConfig cfg;
  cfg.view_size = 4;
  const NodeDescriptor a{11, 7};
  const NodeDescriptor b{12, 3};
  std::vector<TimestampedDescriptor> view{{a, 100}, {b, 100}, {a, 100}};
  const std::vector<TimestampedDescriptor> incoming{{a, 150}, {b, 90}};
  EXPECT_EQ(newscast_merge(view, incoming, /*self=*/0, /*now=*/200, cfg), 0u);
  ASSERT_EQ(view.size(), 3u);
  EXPECT_EQ(view[0].descriptor.addr, 7u);
  EXPECT_EQ(view[0].timestamp, 150u);
  EXPECT_EQ(view[1].descriptor.addr, 3u);  // 100, address 3 before 7
  EXPECT_EQ(view[2].descriptor.addr, 7u);
  EXPECT_EQ(view[2].timestamp, 100u);
}

}  // namespace
}  // namespace bsvc
