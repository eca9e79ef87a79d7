// Workload aggregator: request/broadcast outcome counters and the
// request-latency histogram behind the bench's p50/p95/p99 rows.
//
// One instance is shared by every node's WorkloadService. Issues happen in
// barrier context (the driver), but completions, timeouts and cast receipts
// run inside shard windows on different worker lanes, so — like obs::SpanLog
// — every method takes one mutex. All aggregates are commutative sums over
// per-event contributions and every latency is virtual time, which is what
// keeps summary() byte-identical across --shards K (and across thread
// schedules within one K).
#pragma once

#include <cstdint>
#include <mutex>

#include "obs/metrics.hpp"
#include "sim/event_queue.hpp"
#include "workload/messages.hpp"

namespace bsvc {

/// Order-independent aggregate view of one workload run. Latencies are
/// virtual ticks; every field is a pure function of the trajectory.
struct WorkloadSummary {
  std::uint64_t puts = 0;  // issued
  std::uint64_t gets = 0;
  std::uint64_t put_ok = 0;  // answered by the root
  std::uint64_t get_ok = 0;
  std::uint64_t get_found = 0;
  std::uint64_t get_miss = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t unroutable = 0;  // origin's bootstrap not yet active
  // Request->response latency over answered requests.
  std::uint64_t rtt_count = 0;
  double rtt_mean = 0.0;
  double rtt_max = 0.0;
  double rtt_p50 = 0.0;
  double rtt_p95 = 0.0;
  double rtt_p99 = 0.0;
  // Request-path forwards per answered request.
  double hops_mean = 0.0;
  double hops_max = 0.0;
  // Prefix broadcast.
  std::uint64_t casts = 0;
  std::uint64_t cast_delivered = 0;   // first copies across all nodes
  std::uint64_t cast_duplicates = 0;  // extra copies (structurally 0)
  std::uint64_t cast_forwards = 0;    // delegate messages sent
  // Retry/hedging layer (all zero while the features are off).
  std::uint64_t kv_retries = 0;         // origin-side retransmissions
  std::uint64_t hedges_sent = 0;        // hedge copies dispatched
  std::uint64_t hedge_wins = 0;         // answers carried by a hedge copy
  std::uint64_t cast_redelegations = 0; // silent cells handed to an alternate
  std::uint64_t rtt_samples = 0;        // clean samples fed to the estimator

  std::uint64_t issued() const { return puts + gets; }
  std::uint64_t answered() const { return put_ok + get_ok; }
  /// Answered fraction of issued requests — the bench's goodput row.
  double goodput() const {
    return issued() == 0 ? 0.0
                         : static_cast<double>(answered()) / static_cast<double>(issued());
  }
};

/// Bounded-footprint, thread-safe workload aggregator. Counter mirrors into
/// an engine registry are optional (bind_registry) so sampled time series
/// pick the workload up alongside traffic and convergence gauges.
class WorkloadLog {
 public:
  WorkloadLog();

  WorkloadLog(const WorkloadLog&) = delete;
  WorkloadLog& operator=(const WorkloadLog&) = delete;

  /// Mirrors live counters into `registry` ("workload.put.sent",
  /// "workload.get.sent", "workload.answered", "workload.timeout",
  /// "workload.unroutable", "workload.cast.delivered",
  /// "workload.cast.forwarded"). Call before the run; the registry must
  /// outlive the log.
  void bind_registry(obs::MetricsRegistry& registry);

  /// Mirrors the retry-layer counters ("retry.kv", "hedge.sent",
  /// "hedge.win", "retry.cast", "rtt.samples"). Separate from
  /// bind_registry so a run with the features off keeps the registry —
  /// and every golden metric dump — byte-identical to the pre-retry tree.
  /// WorkloadStack::bind_registry decides which of the two to call.
  void bind_retry_registry(obs::MetricsRegistry& registry);

  void on_issue(KvOp op);
  void on_unroutable(KvOp op);
  void on_answer(KvOp op, SimTime rtt, std::uint32_t hops, bool found);
  void on_timeout(KvOp op);
  void on_retry(KvOp op);
  void on_hedge_sent();
  void on_hedge_win();
  void on_rtt_sample();

  void on_cast_launch();
  /// One cast copy reached a node; `first` is false for duplicates.
  void on_cast_receipt(bool first);
  void on_cast_forward();
  void on_cast_redelegate();

  WorkloadSummary summary() const;

 private:
  mutable std::mutex mutex_;
  std::uint64_t puts_ = 0, gets_ = 0;
  std::uint64_t put_ok_ = 0, get_ok_ = 0;
  std::uint64_t get_found_ = 0, get_miss_ = 0;
  std::uint64_t timeouts_ = 0, unroutable_ = 0;
  std::uint64_t hops_total_ = 0, hops_max_ = 0;
  std::uint64_t casts_ = 0, cast_delivered_ = 0, cast_duplicates_ = 0,
                cast_forwards_ = 0;
  std::uint64_t kv_retries_ = 0, hedges_sent_ = 0, hedge_wins_ = 0,
                cast_redelegations_ = 0, rtt_samples_ = 0;
  obs::HistogramMetric rtt_;
  obs::Counter* reg_put_sent_ = nullptr;
  obs::Counter* reg_get_sent_ = nullptr;
  obs::Counter* reg_answered_ = nullptr;
  obs::Counter* reg_timeout_ = nullptr;
  obs::Counter* reg_unroutable_ = nullptr;
  obs::Counter* reg_cast_delivered_ = nullptr;
  obs::Counter* reg_cast_forwarded_ = nullptr;
  obs::Counter* reg_retry_kv_ = nullptr;
  obs::Counter* reg_hedge_sent_ = nullptr;
  obs::Counter* reg_hedge_win_ = nullptr;
  obs::Counter* reg_retry_cast_ = nullptr;
  obs::Counter* reg_rtt_samples_ = nullptr;
};

}  // namespace bsvc
