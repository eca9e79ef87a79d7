// The bootstrapping service protocol (paper §4, Figure 2).
//
// Every Δ ticks the active side picks a peer from the near half of its leaf
// set (SELECTPEER), builds a message optimized for that peer
// (CREATEMESSAGE), and sends it; the passive side answers with a message
// built the same way, and both sides merge what they received into their
// leaf set (UPDATELEAFSET) and prefix table (UPDATEPREFIXTABLE). The ring
// construction and the prefix tables feed each other: prefix entries join
// the ring candidate set, and the ring gossip carries targeted prefix
// entries, so the half-built routing structure already "routes" descriptors
// toward the nodes that need them.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <unordered_set>

#include "common/pool.hpp"
#include "common/rtt.hpp"
#include "common/stats.hpp"
#include "core/config.hpp"
#include "core/leaf_set.hpp"
#include "core/prefix_table.hpp"
#include "obs/span.hpp"
#include "sampling/peer_sampler.hpp"
#include "sim/engine.hpp"
#include "sim/protocol.hpp"

namespace bsvc {

/// A death certificate: `id` was observed unresponsive; suppress it until
/// `expiry` (absolute virtual time). Spread epidemically with the gossip.
struct Tombstone {
  NodeId id = 0;
  SimTime expiry = 0;
};

/// One push or pull message of the protocol: the ring-building part (the c
/// locally known descriptors closest to the peer), the targeted prefix part
/// (descriptors that fit the peer's prefix table), and — with the liveness
/// extension — piggybacked death certificates.
///
/// Both parts live in one flat descriptor buffer (ring entries first) split
/// by an index: CREATEMESSAGE fills the buffer once with a single reserve
/// and receivers read span views — no per-part vector per message. The
/// message object and its buffer both recycle through thread-local pools
/// (common/pool.hpp), so steady-state exchanges touch no allocator.
class BootstrapMessage final : public Payload, public PooledAlloc<BootstrapMessage> {
 public:
  static constexpr PayloadKind kKind = PayloadKind::Bootstrap;

  /// Builder form: the caller fills entries() via append_ring_entry /
  /// append_prefix_entry before publishing (CREATEMESSAGE's path).
  BootstrapMessage(NodeDescriptor sender, bool is_request)
      : Payload(kKind), sender(sender), is_request(is_request) {
    BufferPool<NodeDescriptor>::acquire(entries_);
  }

  /// Assembles from separate lists (codec decode, adversary rewrites, tests).
  BootstrapMessage(NodeDescriptor sender, const DescriptorList& ring,
                   const DescriptorList& prefix, bool is_request)
      : Payload(kKind), sender(sender), is_request(is_request) {
    BufferPool<NodeDescriptor>::acquire(entries_);
    entries_.reserve(ring.size() + prefix.size());
    entries_.insert(entries_.end(), ring.begin(), ring.end());
    entries_.insert(entries_.end(), prefix.begin(), prefix.end());
    ring_count_ = ring.size();
  }

  /// Copying (the adversary's rewrite path) lands the clone's buffer in the
  /// pool too, so a tampered delivery stays allocation-free once warm.
  BootstrapMessage(const BootstrapMessage& other)
      : Payload(other),
        sender(other.sender),
        tombstones(other.tombstones),
        is_request(other.is_request),
        ring_count_(other.ring_count_) {
    BufferPool<NodeDescriptor>::acquire(entries_);
    entries_.assign(other.entries_.begin(), other.entries_.end());
  }
  BootstrapMessage& operator=(const BootstrapMessage&) = delete;

  ~BootstrapMessage() override {
    BufferPool<NodeDescriptor>::release(std::move(entries_));
  }

  std::size_t wire_bytes() const override;
  const char* type_name() const override { return "bootstrap"; }
  const char* metric_tag() const override {
    return is_request ? "bootstrap.request" : "bootstrap.answer";
  }

  /// Total descriptors carried (excluding the sender descriptor).
  std::size_t entry_count() const { return entries_.size(); }

  /// The two parts as views into the flat buffer.
  std::span<const NodeDescriptor> ring_part() const { return {entries_.data(), ring_count_}; }
  std::span<const NodeDescriptor> prefix_part() const {
    return {entries_.data() + ring_count_, entries_.size() - ring_count_};
  }
  /// All descriptors, ring part first — receivers that merge both parts
  /// (UPDATELEAFSET/UPDATEPREFIXTABLE) iterate once instead of twice.
  std::span<const NodeDescriptor> all_entries() const { return entries_; }

  // --- builder interface (pre-publication only) --------------------------
  /// Mutable view over the flat buffer for pre-publication rewrites (the
  /// adversary's copy-on-write path). Never call on a published message.
  std::span<NodeDescriptor> mutable_entries() { return entries_; }
  void reserve_entries(std::size_t n) { entries_.reserve(n); }
  /// Ring entries must all be appended before the first prefix entry.
  void append_ring_entry(const NodeDescriptor& d) {
    entries_.push_back(d);
    ring_count_ = entries_.size();
  }
  void append_prefix_entry(const NodeDescriptor& d) { entries_.push_back(d); }

  NodeDescriptor sender;
  /// Death certificates piggybacked under a liveness policy (empty with
  /// LivenessPolicy::Off). Bounded by kMaxTombstonesPerMessage.
  std::vector<Tombstone> tombstones;
  bool is_request;

  static constexpr std::size_t kMaxTombstonesPerMessage = 64;

 private:
  DescriptorList entries_;  // ring part, then prefix part
  std::size_t ring_count_ = 0;
};

/// Tiny liveness probe (and its echo) used by the liveness policies'
/// maintenance loop. The echo carries the responder's own ID,
/// which doubles as the binding confirmation of the hardened protocol: a
/// probe to an address whose echo contradicts the advertised ID exposes a
/// fabricated ID/address binding (the probe request itself discloses
/// nothing, so a malicious responder cannot tailor its answer).
class ProbeMessage final : public Payload, public PooledAlloc<ProbeMessage> {
 public:
  static constexpr PayloadKind kKind = PayloadKind::Probe;

  explicit ProbeMessage(bool is_reply, NodeId responder_id = 0)
      : Payload(kKind), responder_id(responder_id), is_reply(is_reply) {}
  std::size_t wire_bytes() const override { return 1 + 8; }
  const char* type_name() const override { return "probe"; }
  const char* metric_tag() const override {
    return is_reply ? "probe.reply" : "probe.request";
  }
  /// The responder's own ID (echo only; 0 on requests).
  NodeId responder_id;
  bool is_reply;
};

/// Shared per-experiment counters (owned by the harness, written by every
/// node's protocol instance). The harness hands each node the stats block
/// of its owning shard, so one block is only ever written by one shard
/// lane.
struct BootstrapStats {
  std::uint64_t requests_sent = 0;
  std::uint64_t replies_sent = 0;
  std::uint64_t messages_received = 0;
  std::uint64_t entries_sent = 0;       // descriptors across all messages
  std::uint64_t payload_bytes_sent = 0; // codec bytes, excl. UDP/IP headers
  std::uint64_t max_message_bytes = 0;
  std::uint64_t select_peer_empty = 0;  // active steps skipped: empty leaf set
};

/// Per-node protocol instance.
class BootstrapProtocol final : public Protocol {
 public:
  /// `sampler` is the co-located peer sampling service (never null);
  /// `stats` may be null. The protocol activates `start_delay` ticks after
  /// node start — the harness draws these delays from the paper's "within
  /// an interval of length Δ" to model the loosely synchronized start.
  BootstrapProtocol(BootstrapConfig config, PeerSampler* sampler, BootstrapStats* stats,
                    SimTime start_delay);

  void on_start(Context& ctx) override;
  void on_timer(Context& ctx, std::uint64_t timer_id) override;
  void on_message(Context& ctx, Address from, const Payload& payload) override;

  /// The evolving leaf set (valid after activation).
  const LeafSet& leaf_set() const;
  /// The evolving prefix table (valid after activation).
  const PrefixTable& prefix_table() const;
  /// Whether the protocol has initialized its tables yet.
  bool active() const { return leaf_.has_value(); }

  const BootstrapConfig& config() const { return config_; }

  /// Timer id that (re)initializes the tables from the sampling service and
  /// performs an immediate active step — the "bootstrap on demand" entry
  /// point used by the recovery and merge scenarios. Schedule it with
  /// Engine::schedule_timer(addr, slot, delay, kRestartTimer); the periodic
  /// gossip chain is unaffected (it is started once and keeps running).
  static constexpr std::uint64_t kRestartTimer = 1;

  /// Timer-id base for per-exchange timeouts (liveness policy on only):
  /// exchange n schedules timer kExchangeTimeoutBase + n, so a stale
  /// timeout — the peer answered, or a newer exchange superseded it — is
  /// recognized and ignored on fire.
  static constexpr std::uint64_t kExchangeTimeoutBase = 1ull << 32;

  /// CREATEMESSAGE(q): see file comment. Public because tests assert its
  /// invariants directly and the micro benches time it in isolation; the
  /// protocol itself calls it from the active and passive paths.
  std::unique_ptr<BootstrapMessage> create_message(NodeId peer_id, bool is_request);

 private:
  /// Initializes the leaf set from the sampling service and clears the
  /// prefix table (the paper's start-time step).
  void init_tables(Context& ctx);

  /// One iteration of the active thread.
  void active_step(Context& ctx);

  /// SELECTPEER: random element of the near half of the leaf set, taken per
  /// direction (the closer half of the successors plus the closer half of
  /// the predecessors).
  std::optional<NodeDescriptor> select_peer(Context& ctx);

  /// UPDATELEAFSET + UPDATEPREFIXTABLE over one received message. `from` is
  /// the transport-level sender (hardened filtering keys off it).
  void update_from(const BootstrapMessage& msg, Address from);

  /// Evict and Adaptive: exchange timeouts, probing and death certificates.
  bool evicts() const { return config_.liveness != LivenessPolicy::Off; }
  /// Adaptive only: exchange retries, RTT timeouts and suspicion accrual.
  bool adaptive() const { return config_.liveness == LivenessPolicy::Adaptive; }

  BootstrapConfig config_;
  PeerSampler* sampler_;
  BootstrapStats* stats_;
  // Engine-registry counters, cached at on_start. All instances on one
  // engine share the same counters (registration is idempotent by name).
  obs::Counter* ctr_requests_ = nullptr;
  obs::Counter* ctr_replies_ = nullptr;
  obs::Counter* ctr_select_peer_empty_ = nullptr;
  obs::Counter* ctr_condemned_ = nullptr;
  obs::Counter* ctr_exchange_timeout_ = nullptr;
  // Retry / suspicion counters (registered only under LivenessPolicy::
  // Adaptive, so other runs keep an unchanged metrics registry).
  obs::Counter* ctr_retry_ = nullptr;            // retry.exchange
  obs::Counter* ctr_rtt_samples_ = nullptr;      // rtt.samples
  obs::Counter* ctr_suspect_marked_ = nullptr;   // suspect.marked
  obs::Counter* ctr_suspect_decayed_ = nullptr;  // suspect.decayed
  obs::Counter* ctr_suspect_evicted_ = nullptr;  // suspect.evicted
  // Hardening counters (registered only with config_.harden, so unhardened
  // runs keep an unchanged metrics registry).
  obs::Counter* ctr_q_held_ = nullptr;          // quarantine.held
  obs::Counter* ctr_q_promoted_ = nullptr;      // quarantine.promoted
  obs::Counter* ctr_q_rejected_ = nullptr;      // quarantine.rejected
  obs::Counter* ctr_sanity_rejected_ = nullptr; // bootstrap.sanity_rejected
  obs::Counter* ctr_pin_mismatch_ = nullptr;    // bootstrap.pin_mismatch
  SimTime start_delay_;
  NodeDescriptor self_{};
  std::optional<LeafSet> leaf_;
  std::optional<PrefixTable> prefix_;
  bool chain_started_ = false;
  // Liveness probe state (liveness policy on): the peer the last request
  // went to, and whether anything has been heard from it since.
  NodeDescriptor probe_peer_{0, kNullAddress};
  bool probe_answered_ = true;
  // Maintenance loop state (extension): when each table entry was last
  // heard from, probes awaiting an echo, and the prefix-sweep cursor.
  std::unordered_map<Address, SimTime> last_heard_;
  struct OutstandingProbe {
    NodeDescriptor target;
    SimTime sent = 0;
    int attempts = 1;  // condemned only after kProbeAttempts failures
  };
  static constexpr int kProbeAttempts = 3;
  std::vector<OutstandingProbe> outstanding_probes_;
  std::size_t prefix_probe_cursor_ = 0;
  // Monotone exchange counter; pairs with kExchangeTimeoutBase.
  std::uint64_t exchange_seq_ = 0;
  // --- adaptive retry state (LivenessPolicy::Adaptive) --------------------
  // Per-node RTT estimator fed from clean exchange round trips; Karn's rule
  // is enforced via exchange_retried_ (a retransmitted exchange contributes
  // no sample — its answer could belong to any of its transmissions).
  RttEstimator rtt_;
  int exchange_attempts_ = 1;      // transmissions of the current exchange
  bool exchange_retried_ = false;  // any retransmission happened
  SimTime exchange_sent_at_ = 0;   // first transmission time (RTT sample base)
  /// Current per-exchange answer timeout: the RTT estimate under Adaptive,
  /// else the fixed Δ/2.
  SimTime exchange_timeout_value() const;
  // --- suspicion accrual (LivenessPolicy::Adaptive) -----------------------
  // Suspicion level per address. Raised one unit per unanswered exchange or
  // silent probe round, lowered one unit per message heard; reaching the
  // threshold condemns. Bounded: entries leave on decay-to-zero or condemn.
  std::unordered_map<Address, int> suspicion_;
  /// Adds one suspicion unit; at the threshold it forgets the level and
  /// returns true (the caller condemns).
  bool raise_suspicion(Address addr);
  /// Removes one suspicion unit on any sign of life.
  void decay_suspicion(Address addr);
  // --- causal exchange spans (engine SpanLog installed; else inert) -------
  // The log pointer is cached at on_start; spans only open when it is set,
  // so an uninstalled log leaves every member below untouched.
  obs::SpanLog* span_log_ = nullptr;
  // At most one exchange span is open per protocol: the current cycle's
  // request. Ids are content-addressed — (own address << 40) | span_seq_ —
  // mirroring the sharded engine's event keys, so they are a pure function
  // of the trajectory, independent of shard count.
  obs::SpanId open_span_ = obs::kNoSpan;
  NodeId open_span_peer_ = 0;  // peer the open exchange targets (for Evicted)
  std::uint64_t span_seq_ = 0;
  /// Closes the open span (no-op when none); exactly-once by construction.
  void close_span(SimTime now, obs::SpanOutcome outcome,
                  std::uint32_t answer_descriptors = 0);
  // Active death certificates (id -> expiry), pruned lazily.
  std::unordered_map<NodeId, SimTime> tombstones_;
  // Virtual time at the latest callback (create_message has no Context).
  SimTime now_ = 0;

  /// One round of the maintenance loop: evict timed-out probe targets, then
  /// ping the least-recently-heard leaf entry and a few prefix entries.
  void maintenance_step(Context& ctx);

  /// True if a probe to `addr` is awaiting its echo (the peer is demoted:
  /// SELECTPEER skips it).
  bool already_probing(Address addr) const;
  /// Starts probing `target` unless one is already outstanding.
  void send_probe(Context& ctx, const NodeDescriptor& target);
  /// Fired kExchangeTimeoutBase + seq: the request of exchange `seq` went
  /// unanswered for exchange_timeout_value() ticks.
  void on_exchange_timeout(Context& ctx, std::uint64_t seq);

  /// Records a certificate for an unresponsive peer and removes it locally.
  void condemn(NodeId id, SimTime now);
  /// True if `id` is currently tombstoned.
  bool is_tombstoned(NodeId id, SimTime now) const;
  /// Adopts certificates received from a peer.
  void adopt_tombstones(const std::vector<Tombstone>& incoming, SimTime now);

  // --- Byzantine hardening (config_.harden) -------------------------------

  /// Whether the probe-based defenses are live (harden reuses the liveness
  /// maintenance machinery).
  bool probing_defense() const { return config_.harden && evicts(); }
  /// Handles a probe echo: pins the address→ID binding, exposes fabricated
  /// bindings (believed ID ≠ echoed ID), and settles quarantined entries.
  /// `believed` is the outstanding-probe target this echo answered, if any.
  void on_probe_echo(Context& ctx, Address from, NodeId echoed_id,
                     const std::optional<NodeDescriptor>& believed);
  /// Marks a peer as caught lying and purges its unverified contributions.
  void mark_suspect(Address peer);
  /// Places a descriptor in the bounded quarantine (probe-before-trust).
  void quarantine(const NodeDescriptor& d);

  // Address→ID bindings confirmed by probe echoes (ground truth under the
  // "addresses are unforgeable" transport assumption).
  std::unordered_map<Address, NodeId> pinned_;
  // Peers caught lying; their future contributions are quarantined.
  std::unordered_set<Address> suspects_;
  // Descriptor address -> the peer that first contributed it (bounded
  // provenance, enough to purge a liar's plantings when it is caught).
  std::unordered_map<Address, Address> contributed_by_;
  // Quarantined descriptors awaiting a confirming probe echo.
  std::unordered_map<Address, NodeDescriptor> quarantine_;
  static constexpr std::size_t kQuarantineCap = 64;
  static constexpr std::size_t kProvenanceCap = 4096;
  // CREATEMESSAGE / update_from scratch lives in thread-local buffers in
  // bootstrap.cpp (shared by every instance on a worker lane) rather than
  // per-node members: at 2^18 nodes the per-instance buffers alone were
  // gigabytes of warm capacity held for data only alive within one call.
};

}  // namespace bsvc
