// Adaptive round-trip-time estimation and retry policy.
//
// RttEstimator is the classic Jacobson/Karn smoother (RFC 6298 shape):
// SRTT/RTTVAR updated per sample, retransmission timeout srtt + 4 * rttvar
// clamped to configurable bounds, and exponential timeout backoff while a
// request keeps timing out. Karn's rule — never feed a sample measured on a
// retransmitted request — is the caller's responsibility: the caller knows
// which request was retransmitted, the estimator only sees clean samples.
//
// RetryPolicy is the matching send-side half: an exponential backoff
// schedule with deterministic jitter (callers bound the attempts). The
// jitter draw comes from the caller-supplied Rng — protocols pass their
// per-node stream, which is what keeps retry timing a pure function of the
// trajectory and byte-identical across the sharded engine's --shards K.
//
// Times are plain ticks (std::uint64_t): like obs/, this header must not
// depend on sim/ — the simulator and a future real-clock backend both feed
// it their own tick domain.
#pragma once

#include <cstdint>

#include "common/rng.hpp"

namespace bsvc {

/// Bounds and seed state for one RttEstimator.
struct RttConfig {
  /// Timeout used before the first sample arrives.
  std::uint64_t initial_timeout = 400;
  /// Clamp bounds for the computed timeout. min_timeout must stay above the
  /// transport's minimum one-way latency or every request "times out" while
  /// its answer is still in flight.
  std::uint64_t min_timeout = 64;
  std::uint64_t max_timeout = 4000;
};

/// Per-node SRTT/RTTVAR smoother. All arithmetic is integer ticks with the
/// standard 1/8 and 1/4 gains, so two nodes fed the same samples in the same
/// order hold bit-identical state on every platform.
class RttEstimator {
 public:
  RttEstimator() = default;
  explicit RttEstimator(RttConfig config) : config_(config) {}

  bool has_sample() const { return has_sample_; }
  std::uint64_t srtt() const { return srtt_; }
  std::uint64_t rttvar() const { return rttvar_; }
  std::uint64_t samples() const { return samples_; }

  /// Feeds one clean round-trip sample (Karn's rule: the caller must not
  /// pass samples measured on retransmitted requests). First sample seeds
  /// srtt = rtt, rttvar = rtt / 2; later samples apply the Jacobson gains.
  void on_sample(std::uint64_t rtt);

  /// Current retransmission timeout: srtt + 4 * rttvar (the initial timeout
  /// before any sample), times the backoff accumulated by on_timeout(),
  /// clamped into [min_timeout, max_timeout].
  std::uint64_t timeout() const;

  /// Doubles the effective timeout (capped at max_timeout) — called when a
  /// request times out, so consecutive losses back off exponentially even
  /// between samples. A subsequent clean sample resets the backoff.
  void on_timeout();

  const RttConfig& config() const { return config_; }

 private:
  RttConfig config_{};
  std::uint64_t srtt_ = 0;
  std::uint64_t rttvar_ = 0;
  std::uint64_t samples_ = 0;
  std::uint32_t backoff_shift_ = 0;  // timeout multiplier: 1 << shift
  bool has_sample_ = false;
};

/// Exponential-backoff retry schedule with deterministic jitter. The
/// caller owns the retry budget.
struct RetryPolicy {
  /// Delay multiplier per consecutive attempt (integer doubling keeps the
  /// schedule platform-independent; values other than 2 round down).
  double backoff = 2.0;
  /// Jitter fraction: the delay for attempt k is base * backoff^k plus a
  /// uniform draw from [0, jitter * that). Desynchronizes retry storms.
  double jitter = 0.1;

  /// Delay before retransmission number `attempt` (1-based), given the
  /// current base timeout. Draws the jitter from `rng` — pass the owning
  /// node's stream for shard-count independence. Never returns 0.
  std::uint64_t delay(int attempt, std::uint64_t base, Rng& rng) const;
};

}  // namespace bsvc
