// The prefix table (paper §4).
//
// For every pair (i, j) — i the length in digits of the longest common
// prefix with the own ID, j the first differing digit — the table holds up
// to k descriptors. Cell (i, j) therefore covers exactly the IDs in the
// half-open interval [prefix_range_lo, prefix_range_hi): the first i digits
// equal the own ID's, digit i equals j (≠ own digit i). Those intervals are
// disjoint, so storing all entries in one ID-sorted run keeps every cell
// contiguous and memory compact. An insert is one search for its position;
// the cell's (at most k) entries are its neighbours there.
//
// Storage is struct-of-arrays, two vectors holding exactly the entries: the
// searches walk a dense NodeId lane (8 bytes/element, no interleaved
// addresses), and an insert shifts the tail of both lanes by one. The lanes
// grow together, doubling from 16 slots, so a table that has reached its
// steady size inserts and removes without touching the allocator.
// entries() hands out a DescriptorView; views are invalidated by any
// mutation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/config.hpp"
#include "id/descriptor.hpp"
#include "id/digits.hpp"

namespace bsvc {

class PrefixTable {
 public:
  /// Coordinates of a cell.
  struct Cell {
    int row = 0;  // common prefix length i
    int col = 0;  // first differing digit j
  };

  PrefixTable(NodeId own, DigitConfig digits, int k);

  /// The cell a foreign ID falls into. Precondition: id != own ID.
  Cell cell_of(NodeId id) const;

  /// UPDATEPREFIXTABLE for one descriptor: fills a missing entry if the cell
  /// has free capacity and the ID is not already present. Returns whether
  /// the table changed. Own-ID and null-address descriptors are ignored.
  bool insert(const NodeDescriptor& d);

  /// Bulk UPDATEPREFIXTABLE, in list order. Returns the number of entries
  /// added. Each search starts where the previous one ended, so runs of
  /// ascending or descending IDs are cheap.
  std::size_t insert_all(const DescriptorList& ds);

  /// Removes an entry by ID (dead-peer cleanup). Returns whether present.
  bool remove(NodeId id);

  /// Number of entries currently in cell (row, col).
  std::size_t cell_count(int row, int col) const;

  /// Copies the entries of one cell (at most k).
  DescriptorList cell(int row, int col) const;

  /// All entries, sorted by ID. This is the view CREATEMESSAGE unions into
  /// its candidate set.
  DescriptorView entries() const { return {ids_.data(), addrs_.data(), ids_.size()}; }

  /// Total number of filled entries.
  std::size_t filled() const { return ids_.size(); }

  bool contains(NodeId id) const;

  NodeId own_id() const { return own_; }
  const DigitConfig& digits() const { return digits_; }
  int k() const { return k_; }
  int rows() const { return rows_; }

 private:
  /// insert() with the search for d's position starting at `hint`, which
  /// is left at that position.
  bool insert_near(const NodeDescriptor& d, std::size_t& hint);
  /// Index of the first entry >= id, searched outward from `hint`.
  std::size_t lower_bound_from(std::size_t hint, NodeId id) const;
  /// [first, last) index range of a cell in the sorted run.
  std::pair<std::size_t, std::size_t> cell_range(int row, int col) const;

  NodeId own_;
  DigitConfig digits_;
  int k_;
  int rows_;
  std::vector<NodeId> ids_;     // every entry, sorted by ID
  std::vector<Address> addrs_;  // parallel to ids_
};

}  // namespace bsvc
