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
    : own_(own), ids_(capacity), addrs_(capacity) {
  BSVC_CHECK(capacity >= 2);
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
  const std::size_t cap = capacity();
  for (const auto& d : incoming) {
    if (d.id == own || d.addr == kNullAddress) continue;
    if (is_successor(own, d.id)) {
      offer(succ, cap, d, [own](NodeId id) { return successor_distance(own, id); });
    } else {
      offer(pred, cap, d, [own](NodeId id) { return predecessor_distance(own, id); });
    }
  }

  // Keep c/2 closest per direction; spare capacity from a short side tops up
  // the other ("filled with the closest elements in the other direction").
  const std::size_t half = cap / 2;
  std::size_t take_s = std::min(succ.size(), half);
  std::size_t take_p = std::min(pred.size(), half);
  std::size_t spare = cap - take_s - take_p;
  const std::size_t extra_s = std::min(succ.size() - take_s, spare);
  take_s += extra_s;
  spare -= extra_s;
  take_p += std::min(pred.size() - take_p, spare);

  for (std::size_t i = 0; i < take_s; ++i) {
    ids_[i] = succ[i].id;
    addrs_[i] = succ[i].addr;
  }
  for (std::size_t i = 0; i < take_p; ++i) {
    ids_[take_s + i] = pred[i].id;
    addrs_[take_s + i] = pred[i].addr;
  }
  succ_count_ = take_s;
  pred_count_ = take_p;
}

bool LeafSet::remove(NodeId id) {
  const std::size_t n = size();
  for (std::size_t i = 0; i < n; ++i) {
    if (ids_[i] != id) continue;
    std::copy(ids_.begin() + i + 1, ids_.begin() + n, ids_.begin() + i);
    std::copy(addrs_.begin() + i + 1, addrs_.begin() + n, addrs_.begin() + i);
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
  const auto live = ids_.begin() + static_cast<std::ptrdiff_t>(size());
  return std::find(ids_.begin(), live, id) != live;
}

}  // namespace bsvc
