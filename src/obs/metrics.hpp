// Metrics registry: named counters, gauges and fixed-bucket histograms.
//
// One registry is owned per Engine (see sim/engine.hpp), so parallel bench
// replicas stay fully isolated — there is no process-global metric state.
// Registration returns a stable reference; the hot path then increments
// through that reference with zero lookup cost. Names follow the dotted
// scheme documented in docs/observability.md ("msg.sent.<tag>",
// "bootstrap.requests", "convergence.leaf_completeness", ...).
//
// This layer deliberately knows nothing about the simulation engine; the
// periodic Sampler that snapshots a registry against virtual time lives in
// obs/sampler.hpp.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace bsvc::obs {

/// Monotone event count. Increments are relaxed atomics so sharded-engine
/// workers may bump shared handles concurrently; totals are only *read* at
/// window barriers (or after the run), where the crew's synchronization
/// makes every increment visible. At K = 1 the atomic costs one
/// uncontended lock-free add — negligible next to the dispatch path.
class Counter {
 public:
  void inc() { value_.fetch_add(1, std::memory_order_relaxed); }
  void add(std::uint64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-write-wins instantaneous value.
class Gauge {
 public:
  void set(double v) { value_ = v; }
  void add(double v) { value_ += v; }
  double value() const { return value_; }
  void reset() { value_ = 0.0; }

 private:
  double value_ = 0.0;
};

/// Fixed-width bucket histogram over [lo, hi); out-of-range observations are
/// clamped into the first/last bucket (same contract as common/stats.hpp).
/// Tracks sum/min/max so snapshots can report the mean without the buckets.
class HistogramMetric {
 public:
  HistogramMetric(double lo, double hi, std::size_t buckets);

  void add(double x);
  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double mean() const { return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_); }
  double min() const { return count_ == 0 ? 0.0 : min_; }
  double max() const { return count_ == 0 ? 0.0 : max_; }
  std::size_t buckets() const { return counts_.size(); }
  std::uint64_t bucket_count(std::size_t b) const { return counts_.at(b); }
  /// Lower edge of bucket b.
  double bucket_lo(std::size_t b) const;
  /// Estimated q-quantile (q in [0, 1]): linear interpolation inside the
  /// bucket holding the q*count-th observation, clamped to the exact
  /// observed [min, max] so single-value histograms report that value.
  /// 0 when empty.
  double quantile(double q) const;
  void reset();

 private:
  double lo_, hi_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

enum class MetricKind : std::uint8_t { Counter, Gauge, Histogram };

/// A named collection of metrics with stable handles.
///
/// Lookups by the same name return the same instance; registering a name
/// under a different kind is a programming error and aborts. Handed-out
/// references stay valid for the registry's lifetime (entries are
/// heap-allocated and never removed).
///
/// Registration (counter()/gauge()/histogram()) is guarded by a mutex:
/// under the sharded engine, protocols register their handles from
/// on_start callbacks running on different shard workers. The hot path —
/// incrementing through an already-held handle — never touches the lock.
/// Gauge and Histogram *observations* are not synchronized; they are
/// written from barrier context only (probes, fault bookkeeping calls).
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  /// First registration fixes the bucket layout; later calls with the same
  /// name return the existing histogram regardless of the bounds passed.
  HistogramMetric& histogram(std::string_view name, double lo, double hi, std::size_t buckets);

  /// True if `name` is registered (any kind).
  bool has(std::string_view name) const {
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.find(name) != entries_.end();
  }
  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.size();
  }

  /// Zeroes every metric's observations; registrations (and handed-out
  /// references) survive.
  void reset();

  /// Emits every metric as (name, value) pairs in lexicographic name order:
  /// counters as their count, gauges as their value, histograms expanded to
  /// "<name>.count", "<name>.mean", "<name>.max" and the "<name>.p50"/
  /// ".p95"/".p99" quantile estimates. The deterministic order is what makes
  /// sampled series and JSON exports byte-stable.
  void snapshot(const std::function<void(const std::string&, double)>& emit) const;

 private:
  struct Entry {
    MetricKind kind;
    Counter counter;
    Gauge gauge;
    std::unique_ptr<HistogramMetric> histogram;
  };

  Entry& entry_of(std::string_view name, MetricKind kind);

  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Entry>, std::less<>> entries_;
};

/// Per-metric time series collected by a Sampler: name -> [(virtual time,
/// value)], deterministically ordered by name. The bench reports embed this
/// verbatim as JSON ("series": {"name": [[t, v], ...]}).
struct MetricSeries {
  std::map<std::string, std::vector<std::pair<std::uint64_t, double>>> by_name;

  bool empty() const { return by_name.empty(); }
  std::size_t metrics() const { return by_name.size(); }
};

}  // namespace bsvc::obs
