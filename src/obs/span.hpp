// Causal exchange spans: one span per bootstrap request/answer exchange,
// allocated by the protocol when CREATEMESSAGE opens an exchange and closed
// exactly once on answer, timeout, supersession or eviction.
//
// Simulation-side only: the span id rides on the in-memory Payload and is
// never encoded on the wire (the codec round trip drops it — see
// docs/observability.md#causal-exchange-spans). The engine feeds per-span
// transport events (send/drop/deliver/dead-destination) through the same
// nullptr-default hook pattern as the trace layer, so an uninstalled
// SpanLog costs one pointer test per hook.
//
// The log is bounded: at most `max_in_flight` spans are tracked at once
// (overflow opens are counted and ignored), and closed spans retain no
// per-span state — only order-independent aggregates (atomically-merged
// counters and fixed-bucket histograms guarded by the log's mutex). Every
// aggregate is a commutative sum over per-event contributions, which is
// what keeps the exported summary byte-identical across --shards K.
//
// Like the rest of obs/, this header must not depend on sim/ — span ids and
// times are plain integers here; the engine and protocols own the mapping.
#pragma once

#include <cstdint>
#include <mutex>
#include <unordered_map>

#include "obs/metrics.hpp"

namespace bsvc::obs {

/// Simulation-side exchange identifier; 0 means "no span". Allocated
/// content-addressed like the sharded engine's event keys — (requester
/// address << 40) | per-requester sequence — so ids are a pure function of
/// the trajectory, independent of shard count and thread schedule.
using SpanId = std::uint64_t;

inline constexpr SpanId kNoSpan = 0;

/// Why a span closed. Answered: the peer's answer reached the requester.
/// Timeout: the per-exchange timer fired with no answer (liveness extension
/// on). Superseded: the next cycle's ACTIVESTEP opened a new exchange while
/// this one was still pending. Evicted: the peer was condemned while the
/// exchange was pending.
enum class SpanOutcome : std::uint8_t { Answered, Timeout, Superseded, Evicted };

/// Transport event kinds the engine attributes to a span, mirroring the
/// trace layer's message kinds.
enum class SpanTransport : std::uint8_t { Send, Drop, Deliver, DeadDest };

/// Order-independent aggregate view of a SpanLog (see SpanLog::summary()).
/// Latencies are virtual ticks.
struct SpanSummary {
  std::uint64_t opened = 0;
  std::uint64_t closed = 0;
  std::uint64_t in_flight = 0;         // still open at summary time
  std::uint64_t overflow_dropped = 0;  // opens ignored: table at capacity
  std::uint64_t stray_closes = 0;      // close without a matching open (tripwire)
  std::uint64_t answered = 0;
  std::uint64_t timeout = 0;
  std::uint64_t superseded = 0;
  std::uint64_t evicted = 0;
  std::uint64_t sends = 0;
  std::uint64_t drops = 0;
  std::uint64_t delivers = 0;
  std::uint64_t dead_letters = 0;
  // Request->answer latency, answered exchanges only.
  std::uint64_t rtt_count = 0;
  double rtt_mean = 0.0;
  double rtt_max = 0.0;
  double rtt_p50 = 0.0;
  double rtt_p95 = 0.0;
  double rtt_p99 = 0.0;
  // Open->close lifetime, every closed span (supersession waits a full cycle).
  double lifetime_p50 = 0.0;
  double lifetime_p95 = 0.0;
  double lifetime_p99 = 0.0;
  // Per-closed-span means.
  double hops_mean = 0.0;     // transport deliveries per span (request + answer)
  double retries_mean = 0.0;  // explicit retransmissions per span (on_retry)
  double request_descriptors_mean = 0.0;
  double answer_descriptors_mean = 0.0;  // over answered spans
};

/// Bounded, thread-safe span aggregator. One instance per Engine, installed
/// with Engine::set_span_log; protocols open/close through the engine's
/// pointer. All methods are serialized by one mutex — open/close/transport
/// rates are per-exchange, far off the per-event hot path.
class SpanLog {
 public:
  static constexpr std::size_t kDefaultMaxInFlight = std::size_t{1} << 16;

  explicit SpanLog(std::size_t max_in_flight = kDefaultMaxInFlight);

  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  /// Optionally mirrors live outcome counters into an engine registry
  /// ("span.opened", "span.answered", "span.timeout", "span.superseded",
  /// "span.evicted") so periodic samplers pick spans up as time series.
  /// Call before the run; the registry must outlive the log.
  void bind_registry(MetricsRegistry& registry);

  /// Starts tracking span `id` opened at virtual time `now` with
  /// `request_descriptors` descriptors in the request message. When the
  /// in-flight table is at capacity the open is counted as dropped and the
  /// span is not tracked (its close will then count as stray).
  void open(SpanId id, std::uint64_t now, std::uint32_t request_descriptors);

  /// Closes span `id` at virtual time `now`. Exactly one close per open is
  /// the contract; a close with no matching open (double close, or open
  /// dropped on overflow) bumps the stray_closes tripwire instead.
  void close(SpanId id, std::uint64_t now, SpanOutcome outcome,
             std::uint32_t answer_descriptors = 0);

  /// Attributes one engine transport event to span `id`. Unknown ids still
  /// count in the global transport tallies (e.g. a duplicate delivered
  /// after the span closed) but update no per-span state.
  void on_transport(SpanId id, SpanTransport transport);

  /// Records one explicit retransmission on span `id` (the retry layer's
  /// hook — transport sends alone cannot distinguish a retry from a
  /// multi-hop forward). Mirrors into the "span.retries" registry counter.
  void on_retry(SpanId id);

  SpanSummary summary() const;

 private:
  struct InFlight {
    std::uint64_t opened_at = 0;
    std::uint32_t request_descriptors = 0;
    std::uint32_t sends = 0;
    std::uint32_t delivers = 0;
    std::uint32_t retries = 0;
  };

  mutable std::mutex mutex_;
  std::size_t max_in_flight_;
  std::unordered_map<SpanId, InFlight> in_flight_;
  std::uint64_t opened_ = 0;
  std::uint64_t closed_ = 0;
  std::uint64_t overflow_dropped_ = 0;
  std::uint64_t stray_closes_ = 0;
  std::uint64_t outcomes_[4] = {0, 0, 0, 0};    // indexed by SpanOutcome
  std::uint64_t transports_[4] = {0, 0, 0, 0};  // indexed by SpanTransport
  std::uint64_t hops_total_ = 0;
  std::uint64_t retries_total_ = 0;
  std::uint64_t request_descriptors_total_ = 0;
  std::uint64_t answer_descriptors_total_ = 0;
  HistogramMetric rtt_;
  HistogramMetric lifetime_;
  Counter* reg_opened_ = nullptr;
  Counter* reg_retries_ = nullptr;
  Counter* reg_outcomes_[4] = {nullptr, nullptr, nullptr, nullptr};
};

}  // namespace bsvc::obs
