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
// Storage is struct-of-arrays in a DescriptorArena block: the searches walk
// a dense NodeId lane (8 bytes/element, no interleaved addresses), and in
// steady state an insert is a memmove within the block — growth doubles the
// block at the arena tip without touching the allocator once the slabs are
// warm. entries() hands out a DescriptorView; views are invalidated by any
// mutation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/arena.hpp"
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

  /// Self-backed: entries live in a private arena.
  PrefixTable(NodeId own, DigitConfig digits, int k);
  /// Entries live in `arena` (not owned; must outlive the table).
  PrefixTable(NodeId own, DigitConfig digits, int k, DescriptorArena* arena);

  PrefixTable(const PrefixTable& other);
  PrefixTable& operator=(const PrefixTable& other);
  PrefixTable(PrefixTable&& other) noexcept;
  PrefixTable& operator=(PrefixTable&& other) noexcept;
  ~PrefixTable() = default;

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
  DescriptorView entries() const { return {ids(), addrs(), size_}; }

  /// Total number of filled entries.
  std::size_t filled() const { return size_; }

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
  void ensure_capacity(std::uint32_t need);
  void copy_from(const PrefixTable& other);

  const NodeId* ids() const { return arena_->ids(block_); }
  const Address* addrs() const { return arena_->addrs(block_); }
  NodeId* ids() { return arena_->ids(block_); }
  Address* addrs() { return arena_->addrs(block_); }

  NodeId own_;
  DigitConfig digits_;
  int k_;
  int rows_;
  DescriptorArena own_arena_;  // backs the block when no external arena given
  DescriptorArena* arena_;
  DescriptorArena::Block block_;  // sorted-by-id run of size_ entries
  std::uint32_t size_ = 0;
};

}  // namespace bsvc
