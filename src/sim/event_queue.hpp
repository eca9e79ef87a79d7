// The engine's event representation and priority queue.
//
// Events used to be ~80-byte structs carrying a std::unique_ptr<Payload> and
// a std::function directly inside a single binary heap, so every sift moved
// non-trivial objects and every Call event dragged a 32-byte function object
// through the heap. Here the queue stores trivially copyable 40-byte
// SlimEvents; payloads and call closures live in free-list slot pools on the
// side and are referenced by index.
//
// Ordering contract: events are popped in strictly non-decreasing
// (time, seq) order, where seq is an arbitrary 64-bit ordering key. The
// engine packs (origin node, per-origin counter) into it, so same-tick
// ordering is content-addressed — independent of shard count and of the
// order pushes arrive in. The determinism suite replays recorded golden
// runs to pin this down bit-for-bit.
#pragma once

#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "id/node_id.hpp"
#include "sim/protocol.hpp"

namespace bsvc {

/// Virtual time in abstract ticks. Experiments use kDelta ticks per protocol
/// cycle; with the paper's Δ ≈ 10 s one tick is roughly 10 ms.
using SimTime = std::uint64_t;

/// Default cycle length Δ in ticks.
inline constexpr SimTime kDelta = 1000;

enum class EventKind : std::uint8_t { Message, Timer, Start };

/// One queued event. Trivially copyable on purpose: the wheel buckets and
/// the overflow heap shuffle these around by the million. `aux` is
/// kind-dependent: the timer id (Timer) or a payload-pool slot (Message);
/// unused for Start.
struct SlimEvent {
  SimTime time = 0;
  std::uint64_t seq = 0;  // tie-break among equal times: the ordering key
  std::uint64_t aux = 0;
  Address addr = kNullAddress;  // destination node
  Address from = kNullAddress;  // sender (Message)
  EventKind kind = EventKind::Start;
  ProtocolSlot slot = 0;
};
static_assert(std::is_trivially_copyable_v<SlimEvent>);
static_assert(sizeof(SlimEvent) <= 40);

/// Free-list slot pool: parks a movable value, hands back a dense uint32
/// index, and recycles slots so steady-state traffic stops allocating.
/// Used for in-flight payload owners and scheduled-call closures.
template <typename T>
class SlotPool {
 public:
  /// Parks `value`; returns its slot index.
  std::uint32_t store(T value) {
    if (!free_.empty()) {
      const std::uint32_t slot = free_.back();
      free_.pop_back();
      slots_[slot] = std::move(value);
      ++live_;
      return slot;
    }
    BSVC_CHECK_MSG(slots_.size() < 0xFFFFFFFFu, "slot pool exhausted");
    slots_.push_back(std::move(value));
    ++live_;
    return static_cast<std::uint32_t>(slots_.size() - 1);
  }

  /// Takes the value back and recycles the slot.
  T take(std::uint32_t slot) {
    BSVC_CHECK(slot < slots_.size());
    T value = std::move(slots_[slot]);
    slots_[slot] = T{};  // release any resource still held by the slot
    free_.push_back(slot);
    --live_;
    return value;
  }

  /// Number of currently parked values.
  std::size_t live() const { return live_; }
  /// High-water slot count (allocated capacity).
  std::size_t capacity() const { return slots_.size(); }

 private:
  std::vector<T> slots_;
  std::vector<std::uint32_t> free_;
  std::size_t live_ = 0;
};

/// Two-tier event queue: a bucket wheel covering the next kWheelSpan ticks
/// (a few Δ — transport latencies and cycle timers, i.e. almost all
/// traffic) with a binary-heap fallback for far-future events.
///
/// Invariants:
///  - the wheel holds exactly the events with time in [base, base + span);
///    bucket index is time & (span - 1), so each bucket holds one tick;
///    pushes may arrive in any seq order, and a bucket's unpopped tail is
///    sorted by seq lazily, at its first inspection after a push;
///  - the heap holds exactly the events with time >= base + span;
///  - the wheel re-bases only inside pop (lazy), when it is empty and the
///    heap is not: base jumps to the heap minimum and every heap event
///    inside the new window drains into the wheel.
/// Together these give exact (time, seq) pops.
class TwoTierQueue {
 public:
  static constexpr SimTime kWheelSpan = 4096;  // power of two, ~4 Δ

  /// Enqueues `ev` (seq must already be assigned, and ev.time must be >= the
  /// time of the last popped event).
  void push(const SlimEvent& ev);

  /// If the earliest event has time <= `limit`, pops it into `out` and
  /// returns true; otherwise leaves the queue untouched and returns false.
  bool pop_if_at_most(SimTime limit, SlimEvent& out);

  /// Time of the earliest queued event without popping it; ~SimTime{0} when
  /// empty. Used by the engine to jump idle gaps between windows.
  SimTime min_time() const;

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

 private:
  struct Bucket {
    std::vector<SlimEvent> events;
    std::uint32_t head = 0;  // pop cursor; bucket is clear()ed when drained
    bool dirty = false;      // [head, end) needs a sort by seq
  };

  // Heap comparator for a min-heap on (time, seq) via std::push/pop_heap.
  struct LaterFirst {
    bool operator()(const SlimEvent& a, const SlimEvent& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  /// Sorts the unpopped tail of `bucket` by seq key.
  static void settle(Bucket& bucket);

  std::vector<Bucket> wheel_{kWheelSpan};
  SimTime base_ = 0;    // wheel window is [base_, base_ + kWheelSpan)
  SimTime cursor_ = 0;  // next tick to inspect; base_ <= cursor_
  std::size_t wheel_count_ = 0;
  std::vector<SlimEvent> heap_;
  std::size_t size_ = 0;
};

}  // namespace bsvc
