#include "overlay/kademlia_lookup.hpp"

#include <algorithm>
#include <unordered_set>

#include "common/assert.hpp"

namespace bsvc {

namespace {
constexpr std::size_t kAlpha = 3;       // parallel queries per round
constexpr std::size_t kClosest = 8;     // shortlist width / answer size
constexpr std::size_t kMaxRounds = 32;  // safety bound
}  // namespace

KademliaLookup::KademliaLookup(const Engine& engine, SlotRef<BootstrapProtocol> bootstrap_slot)
    : engine_(engine), slot_(bootstrap_slot) {}

std::vector<NodeDescriptor> KademliaLookup::closest_known(Address node, NodeId target) const {
  const auto& proto = slot_.of(engine_, node);
  std::vector<NodeDescriptor> known;
  if (proto.active()) {
    const auto leaf = proto.leaf_set().all();
    known.insert(known.end(), leaf.begin(), leaf.end());
    const auto& tbl = proto.prefix_table().entries();
    known.insert(known.end(), tbl.begin(), tbl.end());
  }
  known.push_back(engine_.descriptor_of(node));
  std::sort(known.begin(), known.end(),
            [target](const NodeDescriptor& a, const NodeDescriptor& b) {
              return xor_distance(a.id, target) < xor_distance(b.id, target);
            });
  known.erase(std::unique(known.begin(), known.end(),
                          [](const NodeDescriptor& a, const NodeDescriptor& b) {
                            return a.id == b.id;
                          }),
              known.end());
  if (known.size() > kClosest) known.resize(kClosest);
  return known;
}

KademliaResult KademliaLookup::find_node(Address origin, NodeId target,
                                         const ConvergenceOracle& oracle) const {
  KademliaResult result;

  // Shortlist of candidates ordered by XOR distance to the target.
  std::vector<NodeDescriptor> shortlist = closest_known(origin, target);
  std::unordered_set<Address> queried{origin};
  result.queries = 1;

  const auto xor_less = [target](const NodeDescriptor& a, const NodeDescriptor& b) {
    return xor_distance(a.id, target) < xor_distance(b.id, target);
  };

  for (std::size_t round = 0; round < kMaxRounds; ++round) {
    // Pick the α closest not-yet-queried, alive candidates.
    std::vector<NodeDescriptor> batch;
    for (const auto& d : shortlist) {
      if (batch.size() >= kAlpha) break;
      if (queried.count(d.addr) > 0 || !engine_.is_alive(d.addr)) continue;
      batch.push_back(d);
    }
    if (batch.empty()) break;
    ++result.rounds;

    bool improved = false;
    const NodeId best_before =
        shortlist.empty() ? ~NodeId{0} : xor_distance(shortlist.front().id, target);
    for (const auto& d : batch) {
      queried.insert(d.addr);
      ++result.queries;
      const auto answer = closest_known(d.addr, target);
      shortlist.insert(shortlist.end(), answer.begin(), answer.end());
    }
    std::sort(shortlist.begin(), shortlist.end(), xor_less);
    shortlist.erase(std::unique(shortlist.begin(), shortlist.end(),
                                [](const NodeDescriptor& a, const NodeDescriptor& b) {
                                  return a.id == b.id;
                                }),
                    shortlist.end());
    if (shortlist.size() > kClosest) shortlist.resize(kClosest);
    improved = !shortlist.empty() && xor_distance(shortlist.front().id, target) < best_before;
    if (!improved && queried.count(shortlist.front().addr) > 0) break;
  }

  BSVC_CHECK(!shortlist.empty());
  result.closest = shortlist.front();

  // Ground truth: the alive node with minimal XOR distance to the target.
  const auto& members = oracle.sorted_members();
  NodeId best = ~NodeId{0};
  for (const auto& m : members) best = std::min(best, xor_distance(m.id, target));
  result.exact = xor_distance(result.closest.id, target) == best;
  return result;
}

KademliaStats KademliaLookup::run_lookups(const ConvergenceOracle& oracle, Rng& rng,
                                          std::size_t lookups) const {
  KademliaStats stats;
  const auto& members = oracle.sorted_members();
  BSVC_CHECK(!members.empty());
  obs::MetricsRegistry& metrics = engine_.metrics();
  obs::Counter& ctr_attempted = metrics.counter("lookup.kademlia.attempted");
  obs::Counter& ctr_exact = metrics.counter("lookup.kademlia.exact");
  double query_sum = 0.0;
  for (std::size_t i = 0; i < lookups; ++i) {
    const Address origin = members[rng.below(members.size())].addr;
    const NodeId target = rng.next_u64();
    const KademliaResult r = find_node(origin, target, oracle);
    ++stats.attempted;
    ctr_attempted.inc();
    if (r.exact) {
      ++stats.exact;
      ctr_exact.inc();
    }
    query_sum += static_cast<double>(r.queries);
  }
  stats.avg_queries =
      stats.attempted == 0 ? 0.0 : query_sum / static_cast<double>(stats.attempted);
  return stats;
}

}  // namespace bsvc
