// Engine profiler for the window engine: per-shard wall-clock
// accounting that splits every conservative time window into four phases —
// dispatch (in-window event processing), mailbox drain (cross-shard
// hand-off), barrier stall (waiting for the slowest lane) and idle
// (coordinator bookkeeping between crew rounds) — plus queue-depth and
// mailbox-occupancy gauges per window.
//
// The engine hands the profiler one WindowSample per window from the
// coordinator thread at the barrier, where the crew's synchronization has
// already made the per-lane timings visible; the profiler itself is
// single-threaded and lock-free. Aggregates export through summary() into
// the BENCH_*.json "prof" section, and the bounded per-window slice buffer
// exports as Chrome trace-event JSON (write_chrome_trace) loadable in
// chrome://tracing or https://ui.perfetto.dev.
//
// Phase times are constructed to partition the measured wall time exactly:
// per shard, dispatch-work + drain-work + stall + idle == window wall (work
// clamped to its phase wall), so the per-shard phase sum over a whole run
// accounts for 100% of measured window wall time — scripts/check_profile.py
// gates on >= 95%.
//
// Like the rest of obs/, this header must not depend on sim/.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace bsvc::obs {

/// One window's measurements, handed over by the engine at the barrier.
/// The per-shard pointers refer to `shards` entries each and are only read
/// during the record_window call.
struct WindowSample {
  std::uint64_t virtual_time = 0;      // window end, virtual ticks
  std::uint64_t wall_ns = 0;           // whole window, merge included
  std::uint64_t dispatch_wall_ns = 0;  // crew dispatch phase, caller clock
  std::uint64_t drain_wall_ns = 0;     // crew mailbox-drain phase
  const std::uint64_t* dispatch_work_ns = nullptr;  // per-lane busy time
  const std::uint64_t* drain_work_ns = nullptr;
  const std::uint64_t* queue_depth = nullptr;  // pending events, end of window
  const std::uint64_t* mailbox_in = nullptr;   // messages drained in this window
  std::uint64_t events = 0;                    // events dispatched this window
  std::size_t shards = 0;
};

/// Aggregate profile over every recorded window (see EngineProfiler::summary).
struct ProfileSummary {
  std::uint64_t shards = 0;
  std::uint64_t windows = 0;
  std::uint64_t events = 0;
  std::uint64_t mailbox_messages = 0;
  double wall_seconds = 0.0;      // sum of window wall times
  double dispatch_seconds = 0.0;  // per-shard work, summed over shards
  double drain_seconds = 0.0;
  double stall_seconds = 0.0;
  double idle_seconds = 0.0;
  /// Fraction of total shard-time spent waiting at barriers:
  /// stall / (wall * shards).
  double barrier_stall_fraction = 0.0;
  /// Mean messages crossing into one shard per window.
  double mailbox_mean_per_window = 0.0;
  /// Mean pending-event queue depth per shard at window ends.
  double queue_depth_mean = 0.0;
  std::uint64_t trace_events = 0;
  std::uint64_t trace_events_dropped = 0;
};

class EngineProfiler {
 public:
  /// Caps the Chrome trace buffer (slices + counter samples); windows past
  /// the cap still aggregate into the summary but emit no trace events,
  /// counted in trace_events_dropped.
  static constexpr std::size_t kDefaultMaxTraceEvents = std::size_t{1} << 20;

  explicit EngineProfiler(std::size_t shards,
                          std::size_t max_trace_events = kDefaultMaxTraceEvents);

  EngineProfiler(const EngineProfiler&) = delete;
  EngineProfiler& operator=(const EngineProfiler&) = delete;

  std::size_t shards() const { return shards_; }

  /// Folds one window into the aggregates and (buffer permitting) the trace.
  /// Coordinator thread only.
  void record_window(const WindowSample& sample);

  ProfileSummary summary() const;

  /// Writes the buffered slices as Chrome trace-event JSON (object form:
  /// {"traceEvents": [...], "displayTimeUnit": "ms", "bsvc_profile": {...}}).
  /// The bsvc_profile object carries the aggregate totals check_profile.py
  /// validates. Returns false when the file cannot be written.
  bool write_chrome_trace(const std::string& path) const;

 private:
  enum class Phase : std::uint8_t { Dispatch, Drain, Stall, Idle };

  struct Slice {
    std::uint64_t ts_ns = 0;
    std::uint64_t dur_ns = 0;
    std::uint32_t shard = 0;
    Phase phase = Phase::Dispatch;
  };

  struct CounterSample {
    std::uint64_t ts_ns = 0;
    std::uint32_t shard = 0;
    std::uint32_t queue_depth = 0;
    std::uint32_t mailbox_in = 0;
  };

  std::size_t shards_;
  std::size_t max_trace_events_;
  std::vector<Slice> slices_;
  std::vector<CounterSample> counters_;
  std::uint64_t cursor_ns_ = 0;  // wall-time layout cursor for the trace
  std::uint64_t windows_ = 0;
  std::uint64_t events_ = 0;
  std::uint64_t mailbox_messages_ = 0;
  std::uint64_t queue_depth_total_ = 0;
  std::uint64_t wall_ns_total_ = 0;
  std::uint64_t dispatch_ns_total_ = 0;
  std::uint64_t drain_ns_total_ = 0;
  std::uint64_t stall_ns_total_ = 0;
  std::uint64_t idle_ns_total_ = 0;
  std::uint64_t trace_events_dropped_ = 0;
};

}  // namespace bsvc::obs
