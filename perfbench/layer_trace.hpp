// Per-layer wall-clock attribution from the engine's trace records.
//
// The engine emits a Deliver or TimerFire record immediately before it hands
// an event to a protocol, and a Send record for every message a protocol
// sends. LayerTrace stamps each record with steady_clock time and books the
// gap since the previous record to the segment that was open: the event's
// (slot, kind, tag), refined at the sends that split a handler in two
// (CREATEMESSAGE before the bootstrap request or answer goes out, the rest
// after). Single-lane use only: the engine must run with one shard.
//
// Deliveries are counted per (slot, tag) for the whole run so they can be
// checked against the engine's msg.delivered.<tag> counters; time is booked
// only between resume() and pause(), which the benchmark places around each
// Engine::run_until of the measured phase.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace perfbench {

enum class Segment : std::uint8_t {
  SimDispatch,       // bootstrap timer after its request left, plus the engine
  SimOther,          // engine work before the first record of a run_until
  NewscastActive,    // Newscast timer
  NewscastRequest,   // Newscast request delivered: answer + merge
  NewscastAnswer,    // Newscast answer delivered: merge
  CreateActive,      // bootstrap timer until the request is sent
  CreatePassive,     // bootstrap request delivered until the answer is sent
  Update,            // UPDATELEAFSET + UPDATEPREFIXTABLE (either side)
  CoreOther,         // other bootstrap-slot traffic (probes)
  KvRequest,         // put/get/replica hop at a node
  KvResponse,        // answer back at the origin
  Cast,              // prefix broadcast hop
  WorkloadTimer,     // request timeout timers
  Issue,             // driver-side request or broadcast launch
  Count,
};

/// Stable metric name of a segment ("core.createmessage.active", ...).
const char* segment_name(Segment s);
/// Module a segment belongs to ("sim", "sampling", "core", "workload").
const char* segment_layer(Segment s);

class LayerTrace final : public bsvc::obs::TraceSink {
 public:
  void record(const bsvc::obs::TraceRecord& r) override;

  /// Starts booking time (segment SimOther until the first record).
  void resume();
  /// Books the open gap and stops booking time.
  void pause();
  /// Books the open gap, then attributes time to Segment::Issue until
  /// leave_issue(); sends in between are part of the issue.
  void enter_issue();
  void leave_issue();

  std::uint64_t ns(Segment s) const { return ns_[static_cast<std::size_t>(s)]; }
  std::uint64_t calls(Segment s) const { return calls_[static_cast<std::size_t>(s)]; }

  struct Delivered {
    std::uint8_t slot = 0;
    const char* tag = nullptr;
    std::uint64_t count = 0;
  };
  const std::vector<Delivered>& delivered() const { return delivered_; }

 private:
  using Clock = std::chrono::steady_clock;
  static constexpr std::size_t kSegments = static_cast<std::size_t>(Segment::Count);

  void switch_to(Segment s, Clock::time_point now);
  void count_delivery(std::uint8_t slot, const char* tag);

  std::array<std::uint64_t, kSegments> ns_{};
  std::array<std::uint64_t, kSegments> calls_{};
  std::vector<Delivered> delivered_;
  Clock::time_point last_{};
  Segment open_ = Segment::SimOther;
  bsvc::Address open_node_ = bsvc::kNullAddress;
  bool booking_ = false;
  bool in_issue_ = false;
};

}  // namespace perfbench
