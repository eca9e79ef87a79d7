#include "sim/event_queue.hpp"

#include <algorithm>

namespace bsvc {

void TwoTierQueue::push(const SlimEvent& ev) {
  BSVC_CHECK_MSG(ev.time >= cursor_, "event scheduled in the past");
  if (ev.time < base_ + kWheelSpan) {
    Bucket& bucket = wheel_[ev.time & (kWheelSpan - 1)];
    bucket.events.push_back(ev);
    bucket.dirty = true;
    ++wheel_count_;
  } else {
    heap_.push_back(ev);
    std::push_heap(heap_.begin(), heap_.end(), LaterFirst{});
  }
  ++size_;
}

void TwoTierQueue::settle(Bucket& bucket) {
  if (!bucket.dirty) return;
  // Sorting only the unpopped tail is sound: any event inserted into a
  // bucket mid-drain was created while dispatching an event of this very
  // tick, and the engine only ever self-schedules at the current tick
  // (zero-delay timers), so the insert carries the dispatching node's
  // own origin key with a counter above everything that node already popped.
  std::sort(bucket.events.begin() + bucket.head, bucket.events.end(),
            [](const SlimEvent& a, const SlimEvent& b) { return a.seq < b.seq; });
  bucket.dirty = false;
}

SimTime TwoTierQueue::min_time() const {
  if (size_ == 0) return ~SimTime{0};
  if (wheel_count_ == 0) return heap_.front().time;
  for (SimTime tick = cursor_;; ++tick) {
    const Bucket& b = wheel_[tick & (kWheelSpan - 1)];
    if (b.head < b.events.size()) return tick;
    BSVC_CHECK_MSG(tick < base_ + kWheelSpan, "wheel count out of sync");
  }
}

bool TwoTierQueue::pop_if_at_most(SimTime limit, SlimEvent& out) {
  if (size_ == 0) return false;
  if (wheel_count_ == 0) {
    // The minimum is the heap root. Only re-base once we know we will pop:
    // a failed probe must leave base_/cursor_ alone, or events pushed later
    // at times below the heap minimum would land behind the cursor.
    if (heap_.front().time > limit) return false;
    base_ = heap_.front().time;
    cursor_ = base_;
    // Drain everything inside the new window; drained buckets get the same
    // lazy sort as directly pushed ones.
    while (!heap_.empty() && heap_.front().time < base_ + kWheelSpan) {
      std::pop_heap(heap_.begin(), heap_.end(), LaterFirst{});
      const SlimEvent& ev = heap_.back();
      Bucket& bucket = wheel_[ev.time & (kWheelSpan - 1)];
      bucket.events.push_back(ev);
      bucket.dirty = true;
      heap_.pop_back();
      ++wheel_count_;
    }
  }
  // The wheel minimum sits in the first non-empty bucket at or after the
  // cursor (every bucket behind it has been drained and cleared by pops).
  SimTime tick = cursor_;
  while (true) {
    const Bucket& b = wheel_[tick & (kWheelSpan - 1)];
    if (b.head < b.events.size()) break;
    ++tick;
    BSVC_CHECK_MSG(tick < base_ + kWheelSpan, "wheel count out of sync");
  }
  Bucket& bucket = wheel_[tick & (kWheelSpan - 1)];
  settle(bucket);
  const SlimEvent& min = bucket.events[bucket.head];
  if (min.time > limit) return false;  // probe failed: do not commit the scan
  cursor_ = tick;
  out = min;
  ++bucket.head;
  if (bucket.head == bucket.events.size()) {
    bucket.events.clear();
    bucket.head = 0;
    bucket.dirty = false;
  }
  --wheel_count_;
  --size_;
  return true;
}

}  // namespace bsvc
