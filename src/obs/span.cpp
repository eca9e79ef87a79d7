#include "obs/span.hpp"

namespace bsvc::obs {

namespace {

// Latency histograms in virtual ticks. The transport draws per-hop latency
// in [min_latency, max_latency] (tens of ticks by default) and supersession
// waits out a full gossip cycle, so these ranges cover the realistic span
// comfortably; the clamped-bucket contract plus quantile()'s min/max clamp
// keep estimates sane for outliers either way.
constexpr double kRttHi = 4096.0;
constexpr double kLifetimeHi = 16384.0;
constexpr std::size_t kLatencyBuckets = 256;

}  // namespace

SpanLog::SpanLog(std::size_t max_in_flight)
    : max_in_flight_(max_in_flight),
      rtt_(0.0, kRttHi, kLatencyBuckets),
      lifetime_(0.0, kLifetimeHi, kLatencyBuckets) {}

void SpanLog::bind_registry(MetricsRegistry& registry) {
  std::lock_guard<std::mutex> lock(mutex_);
  reg_opened_ = &registry.counter("span.opened");
  reg_outcomes_[static_cast<std::size_t>(SpanOutcome::Answered)] =
      &registry.counter("span.answered");
  reg_outcomes_[static_cast<std::size_t>(SpanOutcome::Timeout)] =
      &registry.counter("span.timeout");
  reg_outcomes_[static_cast<std::size_t>(SpanOutcome::Superseded)] =
      &registry.counter("span.superseded");
  reg_outcomes_[static_cast<std::size_t>(SpanOutcome::Evicted)] =
      &registry.counter("span.evicted");
  reg_retries_ = &registry.counter("span.retries");
}

void SpanLog::open(SpanId id, std::uint64_t now, std::uint32_t request_descriptors) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++opened_;
  if (reg_opened_ != nullptr) reg_opened_->inc();
  if (in_flight_.size() >= max_in_flight_) {
    ++overflow_dropped_;
    return;
  }
  InFlight& rec = in_flight_[id];
  rec.opened_at = now;
  rec.request_descriptors = request_descriptors;
}

void SpanLog::close(SpanId id, std::uint64_t now, SpanOutcome outcome,
                    std::uint32_t answer_descriptors) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = in_flight_.find(id);
  if (it == in_flight_.end()) {
    ++stray_closes_;
    return;
  }
  const InFlight rec = it->second;
  in_flight_.erase(it);
  ++closed_;
  ++outcomes_[static_cast<std::size_t>(outcome)];
  if (Counter* c = reg_outcomes_[static_cast<std::size_t>(outcome)]; c != nullptr) c->inc();
  const std::uint64_t lifetime = now >= rec.opened_at ? now - rec.opened_at : 0;
  lifetime_.add(static_cast<double>(lifetime));
  if (outcome == SpanOutcome::Answered) {
    rtt_.add(static_cast<double>(lifetime));
    answer_descriptors_total_ += answer_descriptors;
  }
  hops_total_ += rec.delivers;
  // Explicit retransmissions only: transport sends also count multi-hop
  // forwards and answer legs, so sends - 1 over-reported for anything but a
  // plain two-leg exchange.
  retries_total_ += rec.retries;
  request_descriptors_total_ += rec.request_descriptors;
}

void SpanLog::on_transport(SpanId id, SpanTransport transport) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++transports_[static_cast<std::size_t>(transport)];
  const auto it = in_flight_.find(id);
  if (it == in_flight_.end()) return;
  if (transport == SpanTransport::Send) ++it->second.sends;
  if (transport == SpanTransport::Deliver) ++it->second.delivers;
}

void SpanLog::on_retry(SpanId id) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (reg_retries_ != nullptr) reg_retries_->inc();
  const auto it = in_flight_.find(id);
  if (it != in_flight_.end()) ++it->second.retries;
}

SpanSummary SpanLog::summary() const {
  std::lock_guard<std::mutex> lock(mutex_);
  SpanSummary s;
  s.opened = opened_;
  s.closed = closed_;
  s.in_flight = in_flight_.size();
  s.overflow_dropped = overflow_dropped_;
  s.stray_closes = stray_closes_;
  s.answered = outcomes_[static_cast<std::size_t>(SpanOutcome::Answered)];
  s.timeout = outcomes_[static_cast<std::size_t>(SpanOutcome::Timeout)];
  s.superseded = outcomes_[static_cast<std::size_t>(SpanOutcome::Superseded)];
  s.evicted = outcomes_[static_cast<std::size_t>(SpanOutcome::Evicted)];
  s.sends = transports_[static_cast<std::size_t>(SpanTransport::Send)];
  s.drops = transports_[static_cast<std::size_t>(SpanTransport::Drop)];
  s.delivers = transports_[static_cast<std::size_t>(SpanTransport::Deliver)];
  s.dead_letters = transports_[static_cast<std::size_t>(SpanTransport::DeadDest)];
  s.rtt_count = rtt_.count();
  s.rtt_mean = rtt_.mean();
  s.rtt_max = rtt_.max();
  s.rtt_p50 = rtt_.quantile(0.50);
  s.rtt_p95 = rtt_.quantile(0.95);
  s.rtt_p99 = rtt_.quantile(0.99);
  s.lifetime_p50 = lifetime_.quantile(0.50);
  s.lifetime_p95 = lifetime_.quantile(0.95);
  s.lifetime_p99 = lifetime_.quantile(0.99);
  if (closed_ > 0) {
    const auto n = static_cast<double>(closed_);
    s.hops_mean = static_cast<double>(hops_total_) / n;
    s.retries_mean = static_cast<double>(retries_total_) / n;
    s.request_descriptors_mean = static_cast<double>(request_descriptors_total_) / n;
  }
  if (s.answered > 0) {
    s.answer_descriptors_mean =
        static_cast<double>(answer_descriptors_total_) / static_cast<double>(s.answered);
  }
  return s;
}

}  // namespace bsvc::obs
