// Node descriptors: what protocol messages carry around.
//
// A descriptor pairs a logical ID with a transport address. Newscast
// additionally timestamps descriptors; the bootstrapping service does not
// need timestamps, so the timestamped variant lives with the sampling code.
#pragma once

#include <cstddef>
#include <iterator>
#include <vector>

#include "id/node_id.hpp"

namespace bsvc {

/// Identity + reachability of one node. Trivially copyable, 12 bytes packed
/// semantics (we account 14 wire bytes: 8 id + 4 IPv4 + 2 port).
struct NodeDescriptor {
  NodeId id = 0;
  Address addr = kNullAddress;

  friend bool operator==(const NodeDescriptor&, const NodeDescriptor&) = default;
};

/// Wire size of one descriptor (id + IPv4 + port), in bytes. Used by the
/// transport's byte accounting; the binary codec in src/wire encodes
/// descriptors at this size.
inline constexpr std::size_t kDescriptorWireBytes = 14;

/// Wire size of a descriptor list (2-byte count + 14 bytes each).
constexpr std::size_t descriptor_list_wire_bytes(std::size_t entries) {
  return 2 + entries * kDescriptorWireBytes;
}

/// A set of descriptors as carried by one protocol message.
using DescriptorList = std::vector<NodeDescriptor>;

/// Non-owning view over descriptors stored struct-of-arrays: one contiguous
/// NodeId lane and one parallel Address lane (LeafSet, PrefixTable).
/// Iteration and indexing materialize NodeDescriptor values on the fly, so
/// table consumers keep the AoS-shaped API while the storage underneath
/// streams dense 8-byte lanes. The view is invalidated by any mutation of
/// the table that owns the lanes.
class DescriptorView {
 public:
  class iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = NodeDescriptor;
    using difference_type = std::ptrdiff_t;
    using pointer = const NodeDescriptor*;
    using reference = NodeDescriptor;  // proxy reference: values materialize on read

    iterator() = default;
    iterator(const NodeId* ids, const Address* addrs) : ids_(ids), addrs_(addrs) {}

    NodeDescriptor operator*() const { return {*ids_, *addrs_}; }
    iterator& operator++() {
      ++ids_;
      ++addrs_;
      return *this;
    }
    iterator operator++(int) {
      iterator tmp = *this;
      ++*this;
      return tmp;
    }
    friend bool operator==(const iterator&, const iterator&) = default;

   private:
    const NodeId* ids_ = nullptr;
    const Address* addrs_ = nullptr;
  };

  DescriptorView() = default;
  DescriptorView(const NodeId* ids, const Address* addrs, std::size_t count)
      : ids_(ids), addrs_(addrs), count_(count) {}

  std::size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }
  NodeDescriptor operator[](std::size_t i) const { return {ids_[i], addrs_[i]}; }
  NodeDescriptor front() const { return (*this)[0]; }
  NodeDescriptor back() const { return (*this)[count_ - 1]; }

  const NodeId* ids() const { return ids_; }
  const Address* addrs() const { return addrs_; }

  iterator begin() const { return {ids_, addrs_}; }
  iterator end() const { return {ids_ + count_, addrs_ + count_}; }

 private:
  const NodeId* ids_ = nullptr;
  const Address* addrs_ = nullptr;
  std::size_t count_ = 0;
};

}  // namespace bsvc
