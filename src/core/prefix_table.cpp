#include "core/prefix_table.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace bsvc {

PrefixTable::PrefixTable(NodeId own, DigitConfig digits, int k)
    : own_(own),
      digits_(digits),
      k_(k),
      rows_(digits.num_digits<NodeId>()),
      arena_(&own_arena_) {
  digits_.validate<NodeId>();
  BSVC_CHECK(k_ >= 1);
}

PrefixTable::PrefixTable(NodeId own, DigitConfig digits, int k, DescriptorArena* arena)
    : own_(own),
      digits_(digits),
      k_(k),
      rows_(digits.num_digits<NodeId>()),
      arena_(arena) {
  digits_.validate<NodeId>();
  BSVC_CHECK(k_ >= 1);
  BSVC_CHECK(arena != nullptr);
}

void PrefixTable::copy_from(const PrefixTable& other) {
  own_ = other.own_;
  digits_ = other.digits_;
  k_ = other.k_;
  rows_ = other.rows_;
  size_ = other.size_;
  std::copy_n(other.ids(), other.size_, ids());
  std::copy_n(other.addrs(), other.size_, addrs());
}

PrefixTable::PrefixTable(const PrefixTable& other)
    : own_(other.own_),
      digits_(other.digits_),
      k_(other.k_),
      rows_(other.rows_),
      arena_(&own_arena_),
      block_(arena_->allocate(other.block_.cap)) {
  copy_from(other);
}

PrefixTable& PrefixTable::operator=(const PrefixTable& other) {
  if (this == &other) return *this;
  // Copies always land in the private arena (see LeafSet::operator=).
  own_arena_.reset();
  arena_ = &own_arena_;
  block_ = arena_->allocate(other.block_.cap);
  copy_from(other);
  return *this;
}

PrefixTable::PrefixTable(PrefixTable&& other) noexcept
    : own_(other.own_),
      digits_(other.digits_),
      k_(other.k_),
      rows_(other.rows_),
      own_arena_(std::move(other.own_arena_)),
      arena_(other.arena_ == &other.own_arena_ ? &own_arena_ : other.arena_),
      block_(other.block_),
      size_(other.size_) {
  other.arena_ = &other.own_arena_;
  other.block_ = {};
  other.size_ = 0;
}

PrefixTable& PrefixTable::operator=(PrefixTable&& other) noexcept {
  if (this == &other) return *this;
  own_ = other.own_;
  digits_ = other.digits_;
  k_ = other.k_;
  rows_ = other.rows_;
  own_arena_ = std::move(other.own_arena_);
  arena_ = other.arena_ == &other.own_arena_ ? &own_arena_ : other.arena_;
  block_ = other.block_;
  size_ = other.size_;
  other.arena_ = &other.own_arena_;
  other.block_ = {};
  other.size_ = 0;
  return *this;
}

PrefixTable::Cell PrefixTable::cell_of(NodeId id) const {
  BSVC_CHECK_MSG(id != own_, "cell_of is undefined for the own ID");
  const int row = common_prefix_digits(own_, id, digits_);
  return {row, digit(id, row, digits_)};
}

void PrefixTable::ensure_capacity(std::uint32_t need) {
  if (need <= block_.cap) return;
  std::uint32_t new_cap = block_.cap == 0 ? 16 : block_.cap * 2;
  while (new_cap < need) new_cap *= 2;
  arena_->grow(block_, new_cap, size_);
}

bool PrefixTable::insert(const NodeDescriptor& d) {
  std::size_t hint = 0;
  return insert_near(d, hint);
}

std::size_t PrefixTable::insert_all(const DescriptorList& ds) {
  // A message arrives as a few ID-monotone runs (each part's successors
  // ascending, then its predecessors descending), so every search starts
  // from where the previous descriptor's search ended.
  std::size_t added = 0;
  std::size_t hint = 0;
  for (const auto& d : ds) {
    if (insert_near(d, hint)) ++added;
  }
  return added;
}

bool PrefixTable::insert_near(const NodeDescriptor& d, std::size_t& hint) {
  if (d.id == own_ || d.addr == kNullAddress) return false;
  const std::size_t pos = lower_bound_from(hint, d.id);
  hint = pos;
  const NodeId* ids_p = ids();
  if (pos != size_ && ids_p[pos] == d.id) return false;
  // The cell is the ID interval [lo, top] around pos and holds at most k
  // entries, so counting them walks at most k steps from pos.
  const Cell c = cell_of(d.id);
  const NodeId lo = prefix_range_lo(own_, c.row, c.col, digits_);
  const NodeId top = prefix_range_hi(own_, c.row, c.col, digits_) - 1;  // hi is 0 at the top
  std::size_t in_cell = 0;
  for (std::size_t i = pos; i > 0 && ids_p[i - 1] >= lo; --i) ++in_cell;
  for (std::size_t i = pos; i < size_ && ids_p[i] <= top; ++i) ++in_cell;
  if (in_cell >= static_cast<std::size_t>(k_)) return false;
  ensure_capacity(size_ + 1);
  NodeId* mut_ids = ids();
  Address* mut_addrs = addrs();
  std::copy_backward(mut_ids + pos, mut_ids + size_, mut_ids + size_ + 1);
  std::copy_backward(mut_addrs + pos, mut_addrs + size_, mut_addrs + size_ + 1);
  mut_ids[pos] = d.id;
  mut_addrs[pos] = d.addr;
  ++size_;
  return true;
}

std::size_t PrefixTable::lower_bound_from(std::size_t hint, NodeId id) const {
  // Galloping search: probes 1, 2, 4, ... entries away from the hint bracket
  // the answer, then a binary search finishes inside the bracket.
  const NodeId* ids_p = ids();
  const std::size_t size = size_;
  std::size_t lo = 0;
  std::size_t hi = std::min(hint, size);
  if (hi < size && ids_p[hi] < id) {  // the answer lies above the hint
    for (std::size_t step = 1;; step *= 2) {
      lo = hi + 1;
      hi = std::min(lo + step - 1, size);
      if (hi == size || ids_p[hi] >= id) break;
    }
  } else {  // the answer is at or below the hint
    for (std::size_t step = 1; hi > 0; step *= 2) {
      const std::size_t probe = hi > step ? hi - step : 0;
      if (ids_p[probe] < id) {
        lo = probe + 1;
        break;
      }
      hi = probe;
    }
  }
  return static_cast<std::size_t>(std::lower_bound(ids_p + lo, ids_p + hi, id) - ids_p);
}

bool PrefixTable::remove(NodeId id) {
  NodeId* ids_p = ids();
  const std::size_t pos =
      static_cast<std::size_t>(std::lower_bound(ids_p, ids_p + size_, id) - ids_p);
  if (pos == size_ || ids_p[pos] != id) return false;
  Address* addrs_p = addrs();
  std::copy(ids_p + pos + 1, ids_p + size_, ids_p + pos);
  std::copy(addrs_p + pos + 1, addrs_p + size_, addrs_p + pos);
  --size_;
  return true;
}

std::size_t PrefixTable::cell_count(int row, int col) const {
  const auto [first, last] = cell_range(row, col);
  return last - first;
}

DescriptorList PrefixTable::cell(int row, int col) const {
  const auto [first, last] = cell_range(row, col);
  DescriptorList out;
  out.reserve(last - first);
  const NodeId* ids_p = ids();
  const Address* addrs_p = addrs();
  for (std::size_t i = first; i < last; ++i) out.push_back({ids_p[i], addrs_p[i]});
  return out;
}

bool PrefixTable::contains(NodeId id) const {
  const NodeId* ids_p = ids();
  const std::size_t pos =
      static_cast<std::size_t>(std::lower_bound(ids_p, ids_p + size_, id) - ids_p);
  return pos != size_ && ids_p[pos] == id;
}

std::pair<std::size_t, std::size_t> PrefixTable::cell_range(int row, int col) const {
  BSVC_CHECK(row >= 0 && row < rows_);
  BSVC_CHECK(col >= 0 && col < digits_.radix());
  // (row, own digit) is not a cell: that interval belongs to deeper rows.
  BSVC_CHECK_MSG(col != digit(own_, row, digits_), "queried the own-digit column");
  const NodeId lo = prefix_range_lo(own_, row, col, digits_);
  const NodeId hi = prefix_range_hi(own_, row, col, digits_);
  const NodeId* ids_p = ids();
  const std::size_t first =
      static_cast<std::size_t>(std::lower_bound(ids_p, ids_p + size_, lo) - ids_p);
  // hi == 0 means the range runs to the top of the ID space.
  const std::size_t last =
      hi == 0 ? size_
              : static_cast<std::size_t>(
                    std::lower_bound(ids_p + first, ids_p + size_, hi) - ids_p);
  return {first, last};
}

}  // namespace bsvc
