// StampedMap: a uint32 -> uint32 hash map for scratch that is refilled once
// per call (the Newscast merge's address map, Floyd's taken set).
//
// Linear probing over a power-of-two table at most half full, with a
// Fibonacci hash. A slot is live only while its stamp equals the map's, so
// reset() empties the map in O(1) by bumping the stamp (64 bits, so it never
// wraps). The table is sized by the number of keys a round inserts, never by
// a key's value, and only grows: a warm map allocates nothing.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace bsvc {

class StampedMap {
 public:
  /// Empties the map and makes room for `keys` insertions.
  void reset(std::size_t keys) {
    const std::size_t cap = std::max<std::size_t>(16, std::bit_ceil(2 * keys));
    if (cap > slots_.size()) slots_.assign(cap, Slot{});
    mask_ = cap - 1;
    shift_ = 64 - std::countr_zero(cap);
    ++stamp_;
  }

  /// The value stored for `key`, after storing `value` if `key` was
  /// absent; `.second` tells whether it was.
  std::pair<std::uint32_t&, bool> find_or_insert(std::uint32_t key, std::uint32_t value) {
    auto i = static_cast<std::size_t>((std::uint64_t{key} * 0x9E3779B97F4A7C15ull) >> shift_);
    while (true) {
      Slot& slot = slots_[i];
      if (slot.stamp != stamp_) {
        slot = {stamp_, key, value};
        return {slot.value, true};
      }
      if (slot.key == key) return {slot.value, false};
      i = (i + 1) & mask_;
    }
  }

 private:
  struct Slot {
    std::uint64_t stamp = 0;  // live only when equal to stamp_
    std::uint32_t key = 0;
    std::uint32_t value = 0;
  };
  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  int shift_ = 0;
  std::uint64_t stamp_ = 0;
};

}  // namespace bsvc
