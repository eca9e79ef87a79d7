// The leaf set: a node's closest neighbours on the sorted ring of IDs.
//
// Semantics follow the paper's UPDATELEAFSET: merge new descriptors with the
// current content, classify every ID as successor or predecessor of the own
// ID on the ring of all possible IDs, and keep the c/2 closest in each
// direction — topping up from the other direction when one side runs short
// (only relevant when fewer than c other nodes are known to exist). When
// one ID arrives under two addresses, the first occurrence wins: a current
// entry, else the earliest in the incoming list.
//
// Storage is struct-of-arrays, two c-slot lanes sized once at construction
// (successors first, then predecessors): the hot ring-distance scans stream
// the contiguous NodeId lane, and a steady-state UPDATELEAFSET allocates
// nothing — candidates stage through thread-local scratch and the result is
// written back into the lanes. Accessors hand out DescriptorView (values
// materialized on read); views are invalidated by any mutation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "id/descriptor.hpp"
#include "id/ring.hpp"

namespace bsvc {

class LeafSet {
 public:
  /// `capacity` is the paper's c; it need not be even, the odd slot floats
  /// to whichever direction has more candidates.
  LeafSet(NodeId own, std::size_t capacity);

  /// UPDATELEAFSET: tries to improve the set with the given descriptors.
  /// Descriptors equal to the own ID and null addresses are ignored.
  void update(std::span<const NodeDescriptor> incoming);

  /// Removes an entry (used when a peer is detected dead). Returns whether
  /// it was present.
  bool remove(NodeId id);

  /// Successors sorted by increasing successor-direction distance.
  DescriptorView successors() const { return {ids_.data(), addrs_.data(), succ_count_}; }
  /// Predecessors sorted by increasing predecessor-direction distance.
  DescriptorView predecessors() const {
    return {ids_.data() + succ_count_, addrs_.data() + succ_count_, pred_count_};
  }
  /// All entries (successors then predecessors; no duplicates), zero-copy.
  DescriptorView all_view() const { return {ids_.data(), addrs_.data(), size()}; }

  /// All entries (successors then predecessors; no duplicates).
  DescriptorList all() const;

  /// Entries sorted by shortest ring distance from the own ID, a successor
  /// before a predecessor at the same distance (closer_on_ring).
  DescriptorList sorted_by_ring_distance() const;

  bool contains(NodeId id) const;
  std::size_t size() const { return succ_count_ + pred_count_; }
  bool empty() const { return size() == 0; }
  std::size_t capacity() const { return ids_.size(); }
  NodeId own_id() const { return own_; }

 private:
  NodeId own_;
  std::vector<NodeId> ids_;     // c slots; the first size() are live
  std::vector<Address> addrs_;  // parallel to ids_
  std::size_t succ_count_ = 0;
  std::size_t pred_count_ = 0;
};

}  // namespace bsvc
