#include "core/leaf_set.hpp"

#include <algorithm>
#include <iterator>

#include "common/assert.hpp"

namespace bsvc {

namespace {
// UPDATELEAFSET staging: each direction's closest candidates. Thread-local so
// the steady-state update allocates nothing once warm; safe because the
// sharded engine's worker lanes are persistent threads and update() never
// re-enters itself.
struct UpdateScratch {
  std::vector<NodeDescriptor> succ;
  std::vector<NodeDescriptor> pred;
};

UpdateScratch& scratch() {
  thread_local UpdateScratch s;
  return s;
}

// Offers `d` to `side`, which keeps at most `cap` candidates sorted by
// `dist` (distance from the own ID in the side's direction). A full side
// rejects anything no closer than its worst entry with one comparison. Equal
// distance means equal ID, so a repeated ID is dropped: the first occurrence
// wins.
template <typename Dist>
void offer(std::vector<NodeDescriptor>& side, std::size_t cap, const NodeDescriptor& d,
           Dist dist) {
  const NodeId key = dist(d.id);
  if (side.size() == cap && key >= dist(side.back().id)) return;
  const auto pos = std::upper_bound(
      side.begin(), side.end(), key,
      [&dist](NodeId k, const NodeDescriptor& e) { return k < dist(e.id); });
  if (pos != side.begin() && std::prev(pos)->id == d.id) return;
  side.insert(pos, d);
  if (side.size() > cap) side.pop_back();
}
}  // namespace

LeafSet::LeafSet(NodeId own, std::size_t capacity)
    : own_(own),
      capacity_(capacity),
      arena_(&own_arena_),
      block_(arena_->allocate(static_cast<std::uint32_t>(capacity))) {
  BSVC_CHECK(capacity >= 2);
}

LeafSet::LeafSet(NodeId own, std::size_t capacity, DescriptorArena* arena)
    : own_(own),
      capacity_(capacity),
      arena_(arena),
      block_(arena_->allocate(static_cast<std::uint32_t>(capacity))) {
  BSVC_CHECK(capacity >= 2);
  BSVC_CHECK(arena != nullptr);
}

void LeafSet::copy_from(const LeafSet& other) {
  own_ = other.own_;
  capacity_ = other.capacity_;
  succ_count_ = other.succ_count_;
  pred_count_ = other.pred_count_;
  std::copy_n(other.ids(), other.size(), ids());
  std::copy_n(other.addrs(), other.size(), addrs());
}

LeafSet::LeafSet(const LeafSet& other)
    : own_(other.own_),
      capacity_(other.capacity_),
      arena_(&own_arena_),
      block_(arena_->allocate(static_cast<std::uint32_t>(other.capacity_))) {
  copy_from(other);
}

LeafSet& LeafSet::operator=(const LeafSet& other) {
  if (this == &other) return *this;
  // Copies always land in the private arena: an externally-backed set's
  // block capacity is tied to its own `capacity`, not the source's.
  own_arena_.reset();
  arena_ = &own_arena_;
  block_ = arena_->allocate(static_cast<std::uint32_t>(other.capacity_));
  copy_from(other);
  return *this;
}

LeafSet::LeafSet(LeafSet&& other) noexcept
    : own_(other.own_),
      capacity_(other.capacity_),
      own_arena_(std::move(other.own_arena_)),
      arena_(other.arena_ == &other.own_arena_ ? &own_arena_ : other.arena_),
      block_(other.block_),
      succ_count_(other.succ_count_),
      pred_count_(other.pred_count_) {
  other.arena_ = &other.own_arena_;
  other.block_ = {};
  other.succ_count_ = 0;
  other.pred_count_ = 0;
}

LeafSet& LeafSet::operator=(LeafSet&& other) noexcept {
  if (this == &other) return *this;
  own_ = other.own_;
  capacity_ = other.capacity_;
  own_arena_ = std::move(other.own_arena_);
  arena_ = other.arena_ == &other.own_arena_ ? &own_arena_ : other.arena_;
  block_ = other.block_;
  succ_count_ = other.succ_count_;
  pred_count_ = other.pred_count_;
  other.arena_ = &other.own_arena_;
  other.block_ = {};
  other.succ_count_ = 0;
  other.pred_count_ = 0;
  return *this;
}

void LeafSet::update(std::span<const NodeDescriptor> incoming) {
  // Merge the current content with the parameter set, keeping per direction
  // only the c closest candidates (no side can take more, even after the
  // top-up below). The current entries seed both sides already sorted and
  // go first, so duplicate IDs resolve to the current entry, then to the
  // earliest in `incoming`.
  auto& succ = scratch().succ;
  auto& pred = scratch().pred;
  const DescriptorView cur_succ = successors();
  const DescriptorView cur_pred = predecessors();
  succ.assign(cur_succ.begin(), cur_succ.end());
  pred.assign(cur_pred.begin(), cur_pred.end());
  const NodeId own = own_;
  for (const auto& d : incoming) {
    if (d.id == own || d.addr == kNullAddress) continue;
    if (is_successor(own, d.id)) {
      offer(succ, capacity_, d, [own](NodeId id) { return successor_distance(own, id); });
    } else {
      offer(pred, capacity_, d, [own](NodeId id) { return predecessor_distance(own, id); });
    }
  }

  // Keep c/2 closest per direction; spare capacity from a short side tops up
  // the other ("filled with the closest elements in the other direction").
  const std::size_t half = capacity_ / 2;
  std::size_t take_s = std::min(succ.size(), half);
  std::size_t take_p = std::min(pred.size(), half);
  std::size_t spare = capacity_ - take_s - take_p;
  const std::size_t extra_s = std::min(succ.size() - take_s, spare);
  take_s += extra_s;
  spare -= extra_s;
  take_p += std::min(pred.size() - take_p, spare);

  NodeId* ids_p = ids();
  Address* addrs_p = addrs();
  for (std::size_t i = 0; i < take_s; ++i) {
    ids_p[i] = succ[i].id;
    addrs_p[i] = succ[i].addr;
  }
  for (std::size_t i = 0; i < take_p; ++i) {
    ids_p[take_s + i] = pred[i].id;
    addrs_p[take_s + i] = pred[i].addr;
  }
  succ_count_ = static_cast<std::uint32_t>(take_s);
  pred_count_ = static_cast<std::uint32_t>(take_p);
}

bool LeafSet::remove(NodeId id) {
  NodeId* ids_p = ids();
  Address* addrs_p = addrs();
  const std::size_t n = size();
  for (std::size_t i = 0; i < n; ++i) {
    if (ids_p[i] != id) continue;
    std::copy(ids_p + i + 1, ids_p + n, ids_p + i);
    std::copy(addrs_p + i + 1, addrs_p + n, addrs_p + i);
    if (i < succ_count_) {
      --succ_count_;
    } else {
      --pred_count_;
    }
    return true;
  }
  return false;
}

DescriptorList LeafSet::all() const {
  DescriptorList out;
  out.reserve(size());
  const DescriptorView view = all_view();
  out.insert(out.end(), view.begin(), view.end());
  return out;
}

DescriptorList LeafSet::sorted_by_ring_distance() const {
  // Each lane is already sorted by its own direction's distance, which for
  // its entries is the ring distance, so merging the lanes by
  // closer_on_ring gives the order of a full sort.
  DescriptorList out;
  out.reserve(size());
  const DescriptorView succ = successors();
  const DescriptorView pred = predecessors();
  std::merge(succ.begin(), succ.end(), pred.begin(), pred.end(), std::back_inserter(out),
             [this](const NodeDescriptor& a, const NodeDescriptor& b) {
               return closer_on_ring(own_, a.id, b.id);
             });
  return out;
}

bool LeafSet::contains(NodeId id) const {
  const NodeId* ids_p = ids();
  const std::size_t n = size();
  for (std::size_t i = 0; i < n; ++i) {
    if (ids_p[i] == id) return true;
  }
  return false;
}

}  // namespace bsvc
