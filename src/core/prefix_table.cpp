#include "core/prefix_table.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace bsvc {

PrefixTable::PrefixTable(NodeId own, DigitConfig digits, int k)
    : own_(own), digits_(digits), k_(k), rows_(digits.num_digits<NodeId>()) {
  digits_.validate<NodeId>();
  BSVC_CHECK(k_ >= 1);
}

PrefixTable::Cell PrefixTable::cell_of(NodeId id) const {
  BSVC_CHECK_MSG(id != own_, "cell_of is undefined for the own ID");
  const int row = common_prefix_digits(own_, id, digits_);
  return {row, digit(id, row, digits_)};
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
  const std::size_t size = ids_.size();
  if (pos != size && ids_[pos] == d.id) return false;
  // The cell is the ID interval [lo, top] around pos and holds at most k
  // entries, so counting them walks at most k steps from pos.
  const Cell c = cell_of(d.id);
  const NodeId lo = prefix_range_lo(own_, c.row, c.col, digits_);
  const NodeId top = prefix_range_hi(own_, c.row, c.col, digits_) - 1;  // hi is 0 at the top
  std::size_t in_cell = 0;
  for (std::size_t i = pos; i > 0 && ids_[i - 1] >= lo; --i) ++in_cell;
  for (std::size_t i = pos; i < size && ids_[i] <= top; ++i) ++in_cell;
  if (in_cell >= static_cast<std::size_t>(k_)) return false;
  if (size == ids_.capacity()) {  // grow both lanes together, doubling from 16
    const std::size_t cap = size == 0 ? 16 : 2 * size;
    ids_.reserve(cap);
    addrs_.reserve(cap);
  }
  const auto at = static_cast<std::ptrdiff_t>(pos);
  ids_.insert(ids_.begin() + at, d.id);
  addrs_.insert(addrs_.begin() + at, d.addr);
  return true;
}

std::size_t PrefixTable::lower_bound_from(std::size_t hint, NodeId id) const {
  // Galloping search: probes 1, 2, 4, ... entries away from the hint bracket
  // the answer, then a binary search finishes inside the bracket.
  const NodeId* ids_p = ids_.data();
  const std::size_t size = ids_.size();
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
  const auto it = std::lower_bound(ids_.begin(), ids_.end(), id);
  if (it == ids_.end() || *it != id) return false;
  addrs_.erase(addrs_.begin() + (it - ids_.begin()));
  ids_.erase(it);
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
  for (std::size_t i = first; i < last; ++i) out.push_back({ids_[i], addrs_[i]});
  return out;
}

bool PrefixTable::contains(NodeId id) const {
  return std::binary_search(ids_.begin(), ids_.end(), id);
}

std::pair<std::size_t, std::size_t> PrefixTable::cell_range(int row, int col) const {
  BSVC_CHECK(row >= 0 && row < rows_);
  BSVC_CHECK(col >= 0 && col < digits_.radix());
  // (row, own digit) is not a cell: that interval belongs to deeper rows.
  BSVC_CHECK_MSG(col != digit(own_, row, digits_), "queried the own-digit column");
  const NodeId lo = prefix_range_lo(own_, row, col, digits_);
  const NodeId hi = prefix_range_hi(own_, row, col, digits_);
  const auto first = std::lower_bound(ids_.begin(), ids_.end(), lo);
  // hi == 0 means the range runs to the top of the ID space.
  const auto last = hi == 0 ? ids_.end() : std::lower_bound(first, ids_.end(), hi);
  return {static_cast<std::size_t>(first - ids_.begin()),
          static_cast<std::size_t>(last - ids_.begin())};
}

}  // namespace bsvc
