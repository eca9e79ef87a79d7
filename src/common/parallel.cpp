#include "common/parallel.hpp"

#include <atomic>
#include <chrono>
#include <exception>
#include <limits>
#include <utility>

#include "common/assert.hpp"

namespace bsvc {

std::size_t hardware_threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<std::size_t>(n);
}

WindowCrew::WindowCrew(std::size_t size) : size_(size == 0 ? 1 : size) {
  lane_ns_.assign(size_, 0);
  workers_.reserve(size_ - 1);
  for (std::size_t lane = 1; lane < size_; ++lane) {
    workers_.emplace_back([this, lane] { lane_loop(lane); });
  }
}

WindowCrew::~WindowCrew() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  round_start_.notify_all();
  for (auto& w : workers_) w.join();
}

// Stamps lane_ns_[lane] with fn's duration. Each lane writes only its own
// slot mid-round; readers see the writes after the run() barrier, whose
// mutex hand-off orders them.
void WindowCrew::time_lane(std::size_t lane, const std::function<void(std::size_t)>& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn(lane);
  lane_ns_[lane] = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(std::chrono::steady_clock::now() -
                                                           start)
          .count());
}

void WindowCrew::run(const std::function<void(std::size_t)>& fn) {
  if (size_ == 1) {
    if (timing_) {
      time_lane(0, fn);
    } else {
      fn(0);
    }
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    BSVC_CHECK_MSG(outstanding_ == 0 && job_ == nullptr, "WindowCrew::run is not reentrant");
    job_ = &fn;
    outstanding_ = size_ - 1;
    ++round_;
  }
  round_start_.notify_all();
  // Lane 0 runs on the caller — K shards need only K-1 workers.
  if (timing_) {
    time_lane(0, fn);
  } else {
    fn(0);
  }
  std::unique_lock<std::mutex> lock(mutex_);
  round_done_.wait(lock, [this] { return outstanding_ == 0; });
  job_ = nullptr;
}

void WindowCrew::lane_loop(std::size_t lane) {
  std::uint64_t seen = 0;
  while (true) {
    const std::function<void(std::size_t)>* job = nullptr;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      round_start_.wait(lock, [&] { return stop_ || round_ != seen; });
      if (stop_) return;
      seen = round_;
      job = job_;
    }
    if (timing_) {
      time_lane(lane, *job);
    } else {
      (*job)(lane);
    }
    bool last = false;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      last = --outstanding_ == 0;
    }
    // Only the caller of run() waits on round_done_, and only the final
    // lane's notification can satisfy its predicate.
    if (last) round_done_.notify_one();
  }
}

void parallel_for(std::size_t count, std::size_t threads,
                  const std::function<void(std::size_t)>& body) {
  if (count == 0) return;
  const std::size_t n = std::min(threads == 0 ? hardware_threads() : threads, count);
  if (n <= 1) {
    for (std::size_t i = 0; i < count; ++i) body(i);
    return;
  }

  std::atomic<std::size_t> next{0};
  std::mutex error_mutex;
  std::size_t first_error_index = std::numeric_limits<std::size_t>::max();
  std::exception_ptr first_error;

  // One claim loop per lane; it catches everything, as WindowCrew::run
  // requires.
  WindowCrew crew(n);
  crew.run([&](std::size_t) {
    while (true) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) return;
      try {
        body(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (i < first_error_index) {
          first_error_index = i;
          first_error = std::current_exception();
        }
      }
    }
  });
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace bsvc
