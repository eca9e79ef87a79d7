// The per-node workload service: a small KV store served over the
// bootstrapped overlay, plus prefix-space broadcast.
//
// Requests are routed hop by hop with the same Pastry decision the routing
// validation uses (overlay/pastry_next_hop) over the co-located bootstrap
// protocol's live tables, with dead table entries skipped — the simulator's
// shorthand for timeout-and-try-alternate. The root stores/serves the key,
// replicates puts onto its closest leaf-set neighbours, and answers the
// origin directly. Every request is one causal span (PR 7 machinery): opened
// at issue, closed on answer or timeout, transport events attributed via the
// payload's span id.
//
// Request ids are content-addressed like the engine's event keys —
// (origin address << 40) | kWorkloadIdBit | per-origin sequence — so they
// are a pure function of the trajectory and never collide with the
// bootstrap protocol's exchange span ids (which keep bit 39 clear).
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rtt.hpp"
#include "core/bootstrap.hpp"
#include "sim/protocol.hpp"
#include "sim/slot_ref.hpp"
#include "workload/messages.hpp"
#include "workload/workload_log.hpp"

namespace bsvc {

/// Bit 39 of the 40-bit id counter field: set on workload request ids,
/// clear on bootstrap exchange span ids — the two spaces stay disjoint.
inline constexpr std::uint64_t kWorkloadIdBit = 1ull << 39;
/// Additionally set (with kWorkloadIdBit) on broadcast cast ids.
inline constexpr std::uint64_t kCastIdBit = 1ull << 38;
/// Timer-id tags within the same counter field (per-origin sequences stay
/// far below 2^36, so the tag bits never collide with real ids): bit 37
/// marks the hedge timer of the request id with the bit cleared, bit 36
/// (together with the cast bits) a cast re-delegation ack timeout.
inline constexpr std::uint64_t kHedgeTimerBit = 1ull << 37;
inline constexpr std::uint64_t kDelegTimerBit = 1ull << 36;

/// Tunables of the workload service (shared by every node); everything else
/// is a constant of service.cpp. All off by default: a disabled service is
/// bit-identical to the pre-retry one (see docs/workloads.md).
struct WorkloadParams {
  /// Retransmit an unanswered request from the origin — re-routed over the
  /// live tables, exponential backoff, per-node-RNG jitter — before the
  /// final timeout. The request id (and its causal span) stays the same.
  /// Also replaces the fixed 2Δ timeout with a per-node Jacobson/Karn
  /// estimate (srtt + 4 * rttvar clamped to [64, 2Δ]); Karn's rule:
  /// retried or hedged requests contribute no sample.
  bool retry = false;
  /// Retransmissions allowed per request. Must be positive with retry on.
  int retry_budget = 3;
  /// Delay multiplier per consecutive retransmission.
  double retry_backoff = 2.0;
  /// Hedged gets: when > 0 and the get is still unanswered this many ticks
  /// after issue, a second copy goes out over an alternate first hop, and
  /// any node holding the key (a leaf-set replica) may answer it directly.
  SimTime hedge_delay = 0;
  /// Per-cell cast re-delegation budget: when > 0 every delegated cell
  /// entry must ack within Δ/2, and a silent entry is re-delegated to an
  /// alternate entry of the same cell up to this many times. 0 disables
  /// the handshake entirely (no ack traffic).
  int cast_retries = 0;

  /// Returns "" when coherent, else the first problem.
  std::string validate() const {
    if (retry && retry_budget <= 0) {
      return "retry_budget must be positive when retry is set (got " +
             std::to_string(retry_budget) + ")";
    }
    if (cast_retries < 0) return "cast_retries must be >= 0";
    return "";
  }
};

class WorkloadService final : public Protocol {
 public:
  /// `bootstrap` locates the co-located BootstrapProtocol whose tables the
  /// service routes over; `log` is the shared aggregator (never null).
  WorkloadService(WorkloadParams params, SlotRef<BootstrapProtocol> bootstrap,
                  WorkloadLog* log);

  void on_timer(Context& ctx, std::uint64_t timer_id) override;
  void on_message(Context& ctx, Address from, const Payload& payload) override;

  /// Issues one KV request from this node. Driver entry point, called from
  /// barrier context (schedule_call) or tests; returns the request id (0
  /// when the request was unroutable — the origin's bootstrap protocol has
  /// not activated yet).
  std::uint64_t begin_kv(Context& ctx, KvOp op, NodeId key, std::uint32_t value_bytes);

  /// Launches one prefix broadcast rooted at this node. The origin counts as
  /// its own first delivery.
  void begin_cast(Context& ctx, std::uint64_t cast_id, std::uint32_t payload_bytes);

  // --- observers (tests, the driver's coverage verification) -------------
  bool has_key(NodeId key) const { return store_.find(key) != store_.end(); }
  std::size_t store_size() const { return store_.size(); }
  /// Copies of `cast_id` received by this node (0 = never reached).
  std::uint32_t cast_copies(std::uint64_t cast_id) const;
  std::size_t pending_requests() const { return pending_.size(); }

 private:
  struct Pending {
    KvOp op;
    SimTime issued_at;
    // Retry/hedge state (inert while both features are off).
    NodeId key = 0;
    std::uint32_t value_bytes = 0;
    int attempts = 1;        // transmissions so far (1 = original only)
    bool retried = false;    // Karn's rule: sample only unambiguous answers
    bool hedge_sent = false;
  };

  /// One outstanding cast delegation awaiting an ack (cast_retries > 0).
  struct OutstandingDelegation {
    std::uint64_t cast_id = 0;
    NodeDescriptor origin;
    int cell_row = 0;    // prefix-table cell the delegate covers
    int cell_digit = 0;
    std::uint32_t payload_bytes = 0;
    int attempts = 1;
    std::vector<Address> tried;  // entries already delegated for this cell
  };

  /// The Pastry next hop at this node for `key` over the live tables, with
  /// dead entries skipped; own address when this node is the root,
  /// kNullAddress when the bootstrap protocol is not active yet.
  Address route_step(Context& ctx, NodeId key) const;
  /// Same, but never returns `exclude` (hedge diversity: the second copy
  /// leaves over a different first hop when one exists).
  Address route_step_excluding(Context& ctx, NodeId key, Address exclude) const;

  /// The origin-side timeout for the next (re)transmission: the adaptive
  /// estimate with retry on, else the fixed 2Δ.
  SimTime timeout_value() const;
  /// Retransmits request `id` (budget already checked): re-routes, resends
  /// under the same id/span, schedules the next backed-off timeout.
  void retry_request(Context& ctx, std::uint64_t id, Pending& p);
  void on_hedge_timer(Context& ctx, std::uint64_t id);
  void on_delegation_timeout(Context& ctx, std::uint64_t token);

  void handle_request(Context& ctx, const KvRequestMessage& req);
  /// Serves the request at the root: stores/looks up, replicates puts,
  /// answers the origin.
  void serve_as_root(Context& ctx, const KvRequestMessage& req);
  void replicate_put(Context& ctx, const KvRequestMessage& req);
  void finish(Context& ctx, std::uint64_t request_id, KvOp op, std::uint32_t hops,
              bool found);
  void handle_cast(Context& ctx, Address from, const PrefixCastMessage& msg);
  /// Delegates every cell (row >= `row`, digit != own) to one alive entry.
  void forward_cast(Context& ctx, std::uint64_t cast_id, const NodeDescriptor& origin,
                    int row, std::uint32_t payload_bytes);
  /// Sends one delegation copy with the ack handshake armed (cast_retries
  /// path): allocates a token, records the outstanding delegation, schedules
  /// its ack timeout.
  void send_delegation(Context& ctx, std::uint64_t cast_id, const NodeDescriptor& origin,
                       Address to, int cell_row, int cell_digit,
                       std::uint32_t payload_bytes, std::vector<Address> tried,
                       int attempts);

  WorkloadParams params_;
  SlotRef<BootstrapProtocol> bootstrap_;
  WorkloadLog* log_;
  std::unordered_map<NodeId, std::uint32_t> store_;  // key -> value bytes
  std::unordered_map<std::uint64_t, Pending> pending_;
  std::unordered_map<std::uint64_t, std::uint32_t> cast_copies_;
  std::unordered_map<std::uint64_t, OutstandingDelegation> delegations_;  // token ->
  RttEstimator rtt_;
  std::uint64_t req_seq_ = 0;
  std::uint64_t deleg_seq_ = 0;
};

}  // namespace bsvc
