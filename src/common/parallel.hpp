// Minimal threading layer: fans independent work items (bench replicas,
// parameter-sweep points) across hardware threads, and runs the sharded
// engine's window crew (one persistent worker per extra shard).
//
// Parallelism happens in two sanctioned places only: ABOVE whole Engine
// instances (one engine per work item, no shared mutable state), and
// INSIDE one sharded engine through WindowCrew, whose barrier protocol is
// the engine's only cross-thread synchronization point. parallel_for with
// threads <= 1 degenerates to a plain loop on the calling thread, and a
// WindowCrew of size 1 never spawns a thread, so sequential runs are not
// merely equivalent but literally the same code path.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace bsvc {

/// Number of hardware threads, at least 1 (hardware_concurrency may be 0).
std::size_t hardware_threads();

/// Runs body(0..count-1), fanned across up to `threads` lanes (capped at
/// `count`; 0 means hardware_threads()) of a WindowCrew, lane 0 on the
/// calling thread. Indices are claimed in order but may complete out of
/// order; the call returns only when all have finished. threads <= 1 runs
/// inline sequentially. If any invocation throws, the exception thrown by
/// the lowest index is rethrown after all work has settled.
void parallel_for(std::size_t count, std::size_t threads,
                  const std::function<void(std::size_t)>& body);

/// A crew of `size` lanes for barrier-synchronized phases: run(fn) invokes
/// fn(lane) once per lane — lane 0 on the calling thread, lanes 1..size-1 on
/// persistent workers — and returns only when every lane has finished, with
/// full acquire/release ordering between the lanes' work and the caller's
/// continuation. The sharded engine calls run() a few times per time window
/// (event phase, mailbox drain), so workers park on a condition variable
/// between rounds rather than spinning; round-trip cost is measured by the
/// micro_ops crew-round benchmark.
///
/// size == 1 spawns no threads and run(fn) is a plain inline call, making a
/// one-shard engine literally serial code.
class WindowCrew {
 public:
  explicit WindowCrew(std::size_t size);
  ~WindowCrew();

  WindowCrew(const WindowCrew&) = delete;
  WindowCrew& operator=(const WindowCrew&) = delete;

  std::size_t size() const { return size_; }

  /// Runs fn(0..size-1), one lane per thread; blocks until all lanes return.
  /// fn must not throw. Not reentrant (the engine never nests windows).
  void run(const std::function<void(std::size_t)>& fn);

  /// Enables per-lane busy-time accounting: with timing on, every run()
  /// stamps each lane's fn duration (steady clock, nanoseconds) into the
  /// slot read back via last_lane_ns(). Off by default — the engine
  /// profiler switches it on when installed. Call between rounds only.
  void set_timing(bool enabled) { timing_ = enabled; }
  bool timing() const { return timing_; }

  /// Per-lane busy time of the most recent run(), valid only while timing
  /// is enabled. Safe to read after run() returns: worker writes happen
  /// before the barrier hand-off under mutex_.
  const std::vector<std::uint64_t>& last_lane_ns() const { return lane_ns_; }

 private:
  void lane_loop(std::size_t lane);
  void time_lane(std::size_t lane, const std::function<void(std::size_t)>& fn);

  const std::size_t size_;
  bool timing_ = false;
  std::vector<std::uint64_t> lane_ns_;
  std::mutex mutex_;
  std::condition_variable round_start_;
  std::condition_variable round_done_;
  const std::function<void(std::size_t)>* job_ = nullptr;
  std::uint64_t round_ = 0;     // bumped per run(); workers wait for a new round
  std::size_t outstanding_ = 0; // lanes still inside the current round
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

/// Maps fn(item, index) over `items`, results returned in input order
/// regardless of completion order. Result type must be default-constructible
/// and movable.
template <typename Item, typename Fn>
auto parallel_map(const std::vector<Item>& items, std::size_t threads, Fn&& fn) {
  using Result = std::decay_t<std::invoke_result_t<Fn&, const Item&, std::size_t>>;
  std::vector<Result> results(items.size());
  parallel_for(items.size(), threads,
               [&](std::size_t i) { results[i] = fn(items[i], i); });
  return results;
}

}  // namespace bsvc
