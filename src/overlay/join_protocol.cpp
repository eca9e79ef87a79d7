#include "overlay/join_protocol.hpp"

#include <algorithm>
#include <unordered_set>

#include "common/assert.hpp"
#include "id/descriptor.hpp"
#include "id/id_generator.hpp"
#include "overlay/pastry_router.hpp"

namespace bsvc {

SequentialJoinNetwork::SequentialJoinNetwork(BootstrapConfig config, std::uint64_t seed,
                                             std::uint64_t hop_latency)
    : config_(config), rng_(seed), hop_latency_(hop_latency) {
  config_.digits.validate<NodeId>();
}

std::size_t SequentialJoinNetwork::index_of(Address addr) const {
  BSVC_CHECK(addr < index_by_addr_.size());
  return index_by_addr_[addr];
}

std::vector<std::size_t> SequentialJoinNetwork::route_to(std::size_t start, NodeId key) const {
  std::vector<std::size_t> path{start};
  std::size_t at = start;
  for (std::size_t hop = 0; hop < 64; ++hop) {
    const JoinedNode& node = *nodes_[at];
    const Address next_addr = pastry_next_hop(node.descriptor.id, node.descriptor.addr,
                                              node.leaf, node.prefix, key);
    if (next_addr == node.descriptor.addr) return path;
    at = index_of(next_addr);
    path.push_back(at);
  }
  return path;  // hop bound hit; caller treats the last node as best effort
}

void SequentialJoinNetwork::join(const NodeDescriptor& descriptor) {
  auto node = std::make_unique<JoinedNode>(descriptor, config_);
  if (descriptor.addr >= index_by_addr_.size()) {
    index_by_addr_.resize(descriptor.addr + 1, 0xFFFFFFFFu);
  }

  if (!nodes_.empty()) {
    // 1. Join request routed from a random seed toward the new node's ID.
    const std::size_t seed = static_cast<std::size_t>(rng_.below(nodes_.size()));
    const auto path = route_to(seed, descriptor.id);
    costs_.messages += path.size();  // request forwarded along every hop
    costs_.bytes += path.size() * (kDescriptorWireBytes + kUdpIpHeaderBytes);
    costs_.total_route_hops += path.size() - 1;
    costs_.critical_time += path.size() * hop_latency_;

    // 2. Each hop returns the prefix-table row matching its shared-prefix
    // depth with X, plus its own descriptor.
    DescriptorList gathered;
    for (const std::size_t hop_idx : path) {
      const JoinedNode& hop = *nodes_[hop_idx];
      DescriptorList row;
      if (hop.descriptor.id != descriptor.id) {
        const int depth = common_prefix_digits(descriptor.id, hop.descriptor.id, config_.digits);
        // Entries in the hop's rows 0..depth share the same usefulness for X;
        // standard Pastry ships row `depth`. Cells are scanned column-wise.
        for (int col = 0; col < config_.digits.radix(); ++col) {
          if (col == digit(hop.descriptor.id, depth, config_.digits)) continue;
          const DescriptorList cell = hop.prefix.cell(depth, col);
          row.insert(row.end(), cell.begin(), cell.end());
        }
      }
      row.push_back(hop.descriptor);
      costs_.messages += 1;
      costs_.bytes += descriptor_list_wire_bytes(row.size()) + kUdpIpHeaderBytes;
      gathered.insert(gathered.end(), row.begin(), row.end());
    }
    // Replies stream back in parallel with the forward path; one extra
    // hop-latency covers the last leg.
    costs_.critical_time += hop_latency_;

    // 3. The root returns its leaf set.
    const JoinedNode& root = *nodes_[path.back()];
    const DescriptorList root_leaf = root.leaf.all();
    gathered.insert(gathered.end(), root_leaf.begin(), root_leaf.end());
    costs_.messages += 1;
    costs_.bytes += descriptor_list_wire_bytes(root_leaf.size()) + kUdpIpHeaderBytes;
    costs_.critical_time += hop_latency_;

    // 4. X assembles its state and announces itself to everyone it knows.
    node->leaf.update(gathered);
    node->prefix.insert_all(gathered);

    std::unordered_set<Address> contacts;
    for (const auto& d : node->leaf.all()) contacts.insert(d.addr);
    for (const auto& d : node->prefix.entries()) contacts.insert(d.addr);
    for (const Address contact : contacts) {
      const std::size_t idx = index_of(contact);
      const NodeDescriptor self = descriptor;
      nodes_[idx]->leaf.update(std::span<const NodeDescriptor>(&self, 1));
      nodes_[idx]->prefix.insert(self);
      costs_.messages += 1;
      costs_.bytes += kDescriptorWireBytes + kUdpIpHeaderBytes;
    }
    // Announcements fan out concurrently: one latency on the critical path.
    costs_.critical_time += hop_latency_;
  }

  index_by_addr_[descriptor.addr] = static_cast<std::uint32_t>(nodes_.size());
  nodes_.push_back(std::move(node));
  ++costs_.joins;
}

void SequentialJoinNetwork::grow(std::size_t n) {
  IdGenerator ids(rng_.split());
  for (std::size_t i = 0; i < n; ++i) {
    join({ids.next(), static_cast<Address>(index_by_addr_.size())});
  }
}

JoinQuality SequentialJoinNetwork::measure_quality(std::size_t lookups) {
  JoinQuality quality;
  if (nodes_.empty()) return quality;

  std::vector<NodeDescriptor> members;
  members.reserve(nodes_.size());
  for (const auto& node : nodes_) members.push_back(node->descriptor);
  const PerfectTables truth(members, config_);

  std::uint64_t leaf_perfect = 0;
  std::uint64_t leaf_present = 0;
  std::uint64_t prefix_perfect = truth.perfect_prefix_sum();
  std::uint64_t prefix_present = 0;
  for (const auto& node : nodes_) {
    const std::size_t rank = truth.rank_of_id(node->descriptor.id);
    for (const NodeId want : truth.perfect_leaf_ids(rank)) {
      ++leaf_perfect;
      if (node->leaf.contains(want)) ++leaf_present;
    }
    prefix_present += node->prefix.filled();
  }
  quality.missing_leaf_fraction =
      leaf_perfect == 0
          ? 0.0
          : 1.0 - static_cast<double>(leaf_present) / static_cast<double>(leaf_perfect);
  quality.missing_prefix_fraction =
      prefix_perfect == 0
          ? 0.0
          : 1.0 - static_cast<double>(prefix_present) / static_cast<double>(prefix_perfect);

  std::size_t correct = 0;
  for (std::size_t i = 0; i < lookups; ++i) {
    const std::size_t start = static_cast<std::size_t>(rng_.below(nodes_.size()));
    const NodeId key = rng_.next_u64();
    const auto path = route_to(start, key);
    if (nodes_[path.back()]->descriptor.id == truth.owner_of(key).id) ++correct;
  }
  quality.lookup_success_rate =
      lookups == 0 ? 0.0 : static_cast<double>(correct) / static_cast<double>(lookups);
  return quality;
}

}  // namespace bsvc
