// parallel_for / parallel_map semantics that the replica harness leans on:
// full coverage of the index range, results in input order, exception
// propagation, and graceful handling of degenerate shapes (zero items, more
// threads than items, single thread).
#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/parallel.hpp"

namespace bsvc {
namespace {

TEST(HardwareThreads, AtLeastOne) { EXPECT_GE(hardware_threads(), 1u); }

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  for (const std::size_t threads : {1u, 2u, 4u, 16u}) {
    std::vector<std::atomic<int>> hits(257);
    parallel_for(hits.size(), threads,
                 [&hits](std::size_t i) { hits[i].fetch_add(1, std::memory_order_relaxed); });
    for (std::size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i << " threads " << threads;
    }
  }
}

TEST(ParallelFor, ZeroCountIsANoop) {
  parallel_for(0, 8, [](std::size_t) { FAIL() << "body must not run"; });
}

TEST(ParallelFor, MoreThreadsThanItems) {
  std::vector<std::atomic<int>> hits(3);
  parallel_for(hits.size(), 64, [&hits](std::size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, PropagatesExceptions) {
  EXPECT_THROW(
      parallel_for(100, 4,
                   [](std::size_t i) {
                     if (i == 37) throw std::runtime_error("item 37 failed");
                   }),
      std::runtime_error);
}

TEST(ParallelFor, ReportsLowestFailingIndexDeterministically) {
  // Several items throw; the rethrown exception must always be the lowest
  // index so failures are reproducible regardless of scheduling.
  for (int attempt = 0; attempt < 5; ++attempt) {
    try {
      parallel_for(64, 8, [](std::size_t i) {
        if (i % 13 == 5) throw std::runtime_error(std::to_string(i));
      });
      FAIL() << "expected an exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "5");
    }
  }
}

TEST(ParallelMap, PreservesInputOrder) {
  std::vector<int> items(100);
  std::iota(items.begin(), items.end(), 0);
  for (const std::size_t threads : {1u, 4u}) {
    const auto squares = parallel_map(items, threads, [](int v, std::size_t idx) {
      EXPECT_EQ(static_cast<std::size_t>(v), idx);
      return v * v;
    });
    ASSERT_EQ(squares.size(), items.size());
    for (int v : items) EXPECT_EQ(squares[static_cast<std::size_t>(v)], v * v);
  }
}

TEST(ParallelMap, EmptyInput) {
  const std::vector<int> none;
  const auto out = parallel_map(none, 4, [](int v, std::size_t) { return v; });
  EXPECT_TRUE(out.empty());
}

TEST(ParallelMap, NonTrivialResultType) {
  const std::vector<int> items{3, 1, 2};
  const auto out = parallel_map(
      items, 2, [](int v, std::size_t) { return std::string(static_cast<std::size_t>(v), 'x'); });
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0], "xxx");
  EXPECT_EQ(out[1], "x");
  EXPECT_EQ(out[2], "xx");
}

TEST(WindowCrew, EveryLaneRunsExactlyOncePerRound) {
  WindowCrew crew(4);
  EXPECT_EQ(crew.size(), 4u);
  std::vector<std::atomic<int>> hits(4);
  const std::function<void(std::size_t)> job = [&hits](std::size_t lane) {
    hits[lane].fetch_add(1, std::memory_order_relaxed);
  };
  for (int round = 0; round < 100; ++round) crew.run(job);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 100);
}

TEST(WindowCrew, RunIsABarrier) {
  // Work left behind by a round must be complete when run() returns, for
  // every lane — the engine reads shard state right after the call.
  WindowCrew crew(3);
  std::vector<std::uint64_t> sums(3, 0);
  const std::function<void(std::size_t)> job = [&sums](std::size_t lane) {
    std::uint64_t acc = 0;
    for (std::uint64_t i = 0; i <= 10000; ++i) acc += i;
    sums[lane] = acc;
  };
  crew.run(job);
  for (const auto s : sums) EXPECT_EQ(s, 50005000u);
}

TEST(WindowCrew, SizeOneRunsInline) {
  WindowCrew crew(1);
  const auto caller = std::this_thread::get_id();
  std::thread::id seen;
  const std::function<void(std::size_t)> job = [&seen, caller](std::size_t lane) {
    EXPECT_EQ(lane, 0u);
    seen = std::this_thread::get_id();
  };
  crew.run(job);
  EXPECT_EQ(seen, caller);
}

TEST(WindowCrew, TimingRecordsPerLaneWork) {
  // With timing on, every lane's wall time for the round is readable after
  // the run() barrier; lanes that do real work read > 0.
  for (const std::size_t size : {1u, 3u}) {
    WindowCrew crew(size);
    EXPECT_FALSE(crew.timing());
    crew.set_timing(true);
    EXPECT_TRUE(crew.timing());
    std::vector<std::uint64_t> sums(size, 0);
    const std::function<void(std::size_t)> job = [&sums](std::size_t lane) {
      std::uint64_t acc = 0;
      for (std::uint64_t i = 0; i <= 200000; ++i) acc += i * i;
      sums[lane] = acc;
    };
    crew.run(job);
    const std::vector<std::uint64_t>& ns = crew.last_lane_ns();
    ASSERT_EQ(ns.size(), size);
    for (std::size_t lane = 0; lane < size; ++lane) {
      EXPECT_GT(ns[lane], 0u) << "lane " << lane << " crew size " << size;
    }
    // Turning timing back off stops the stamping (stale values remain).
    crew.set_timing(false);
    EXPECT_FALSE(crew.timing());
    crew.run(job);
  }
}

}  // namespace
}  // namespace bsvc
