#include "core/bootstrap.hpp"

#include <algorithm>
#include <iterator>

#include "common/assert.hpp"
#include "common/logging.hpp"
#include "id/descriptor.hpp"

namespace bsvc {

namespace {
constexpr std::uint64_t kInitTimer = BootstrapProtocol::kRestartTimer;
constexpr std::uint64_t kActiveTimer = 2;

// The LivenessPolicy::Adaptive bundle (config.hpp documents it).
constexpr int kExchangeRetryBudget = 2;  // retransmissions beyond the first send
constexpr double kRetryBackoff = 2.0;
constexpr double kRetryJitter = 0.1;
constexpr SimTime kRttMinTimeout = 64;
constexpr int kSuspicionThreshold = 3;

// Hot-path scratch shared by every protocol instance on a worker lane.
// Thread-local (not per-node members): the buffers hold data only alive
// within one create_message / update_from / select_peer call, the callbacks
// never re-enter each other, and the sharded engine's lanes are persistent
// threads — so one warm set per lane replaces hundreds of thousands of
// per-node vectors without changing a single RNG draw.
struct BootstrapScratch {
  DescriptorList fresh_buf;  // CREATEMESSAGE: leaf set, samples and self
  DescriptorList union_buf;
  DescriptorList combined_buf;
  DescriptorList candidate_buf;  // select_peer's demotion filter
  std::vector<std::uint8_t> cell_fill_buf;
};

BootstrapScratch& scratch() {
  thread_local BootstrapScratch s;
  return s;
}
}  // namespace

std::size_t BootstrapMessage::wire_bytes() const {
  // sender descriptor + flag byte + the two length-prefixed lists + the
  // length-prefixed tombstone list (id u64 + coarse expiry u32 each),
  // matching the binary codec (tests assert the equivalence).
  return kDescriptorWireBytes + 1 + descriptor_list_wire_bytes(ring_part().size()) +
         descriptor_list_wire_bytes(prefix_part().size()) + 2 + tombstones.size() * 12;
}

BootstrapProtocol::BootstrapProtocol(BootstrapConfig config, PeerSampler* sampler,
                                     BootstrapStats* stats, SimTime start_delay)
    : config_(config), sampler_(sampler), stats_(stats), start_delay_(start_delay) {
  BSVC_CHECK(sampler_ != nullptr);
  BSVC_CHECK(config_.c >= 2);
  BSVC_CHECK(config_.k >= 1);
  config_.digits.validate<NodeId>();
  rtt_ = RttEstimator(RttConfig{config_.delta / 2, kRttMinTimeout, 2 * config_.delta});
}

void BootstrapProtocol::on_start(Context& ctx) {
  self_ = {ctx.self_id(), ctx.self()};
  obs::MetricsRegistry& metrics = ctx.engine().metrics();
  ctr_requests_ = &metrics.counter("bootstrap.requests");
  ctr_replies_ = &metrics.counter("bootstrap.replies");
  ctr_select_peer_empty_ = &metrics.counter("bootstrap.select_peer_empty");
  ctr_condemned_ = &metrics.counter("bootstrap.condemned");
  ctr_exchange_timeout_ = &metrics.counter("bootstrap.exchange_timeout");
  if (adaptive()) {
    ctr_retry_ = &metrics.counter("retry.exchange");
    ctr_rtt_samples_ = &metrics.counter("rtt.samples");
    ctr_suspect_marked_ = &metrics.counter("suspect.marked");
    ctr_suspect_decayed_ = &metrics.counter("suspect.decayed");
    ctr_suspect_evicted_ = &metrics.counter("suspect.evicted");
  }
  if (config_.harden) {
    ctr_q_held_ = &metrics.counter("quarantine.held");
    ctr_q_promoted_ = &metrics.counter("quarantine.promoted");
    ctr_q_rejected_ = &metrics.counter("quarantine.rejected");
    ctr_sanity_rejected_ = &metrics.counter("bootstrap.sanity_rejected");
    ctr_pin_mismatch_ = &metrics.counter("bootstrap.pin_mismatch");
  }
  span_log_ = ctx.engine().span_log();
  ctx.schedule_timer(start_delay_, kInitTimer);
}

void BootstrapProtocol::close_span(SimTime now, obs::SpanOutcome outcome,
                                   std::uint32_t answer_descriptors) {
  if (open_span_ == obs::kNoSpan) return;  // span_log_ is set whenever one is open
  span_log_->close(open_span_, now, outcome, answer_descriptors);
  open_span_ = obs::kNoSpan;
  open_span_peer_ = 0;
}

void BootstrapProtocol::on_timer(Context& ctx, std::uint64_t timer_id) {
  switch (timer_id) {
    case kInitTimer:
      init_tables(ctx);
      active_step(ctx);
      // A restart re-initializes tables but must not spawn a second
      // periodic chain.
      if (!chain_started_) {
        chain_started_ = true;
        ctx.schedule_timer(config_.delta, kActiveTimer);
      }
      break;
    case kActiveTimer:
      active_step(ctx);
      ctx.schedule_timer(config_.delta, kActiveTimer);
      break;
    default:
      if (timer_id > kExchangeTimeoutBase) {
        on_exchange_timeout(ctx, timer_id - kExchangeTimeoutBase);
        break;
      }
      BSVC_CHECK_MSG(false, "unknown timer");
  }
}

SimTime BootstrapProtocol::exchange_timeout_value() const {
  return adaptive() ? static_cast<SimTime>(rtt_.timeout()) : config_.delta / 2;
}

void BootstrapProtocol::on_exchange_timeout(Context& ctx, std::uint64_t seq) {
  // Only the newest exchange counts: a stale timer means the peer answered
  // or a later exchange replaced it.
  if (seq != exchange_seq_ || probe_answered_ || probe_peer_.addr == kNullAddress) return;
  if (!active()) return;
  now_ = ctx.now();
  if (adaptive() && exchange_attempts_ <= kExchangeRetryBudget) {
    // Retransmit to the same peer with a freshly rebuilt message (the tables
    // may have moved since the first send). Karn's rule: a retried exchange
    // contributes no RTT sample — its answer could belong to any copy.
    rtt_.on_timeout();
    exchange_retried_ = true;
    ++exchange_attempts_;
    if (ctr_retry_ != nullptr) ctr_retry_->inc();
    if (span_log_ != nullptr && open_span_ != obs::kNoSpan) span_log_->on_retry(open_span_);
    auto msg = create_message(probe_peer_.id, /*is_request=*/true);
    msg->span = open_span_;
    ctx.send(probe_peer_.addr, std::move(msg));
    const RetryPolicy policy{kRetryBackoff, kRetryJitter};
    const SimTime delay = static_cast<SimTime>(
        policy.delay(exchange_attempts_ - 1, exchange_timeout_value(), ctx.rng()));
    ++exchange_seq_;
    ctx.schedule_timer(delay, kExchangeTimeoutBase + exchange_seq_);
    return;
  }
  if (adaptive()) rtt_.on_timeout();
  if (ctr_exchange_timeout_ != nullptr) ctr_exchange_timeout_->inc();
  close_span(now_, obs::SpanOutcome::Timeout);
  if (adaptive() && raise_suspicion(probe_peer_.addr)) {
    condemn(probe_peer_.id, now_);
    return;
  }
  // Demote the silent peer into the probing path: SELECTPEER skips it until
  // it answers, and kProbeAttempts silent probes condemn it.
  send_probe(ctx, probe_peer_);
}

void BootstrapProtocol::init_tables(Context& /*ctx*/) {
  leaf_.emplace(self_.id, config_.c);
  prefix_.emplace(self_.id, config_.digits, config_.k);
  const DescriptorList seeds = sampler_->sample(config_.c);
  leaf_->update(seeds);
}

void BootstrapProtocol::active_step(Context& ctx) {
  now_ = ctx.now();
  if (evicts()) maintenance_step(ctx);
  // A span still open here got neither answer nor timeout (or the timeout
  // extension is off): this cycle's exchange supersedes it.
  close_span(now_, obs::SpanOutcome::Superseded);
  probe_peer_ = {0, kNullAddress};
  if (leaf_->empty()) {
    // The sampling service had nothing for us at init (or everything we knew
    // died); retry initialization — the paper's "last resort" role of the
    // sampling layer.
    leaf_->update(sampler_->sample(config_.c));
    if (leaf_->empty()) {
      if (stats_ != nullptr) ++stats_->select_peer_empty;
      if (ctr_select_peer_empty_ != nullptr) ctr_select_peer_empty_->inc();
      return;
    }
  }
  const auto peer = select_peer(ctx);
  if (!peer) {
    if (stats_ != nullptr) ++stats_->select_peer_empty;
    if (ctr_select_peer_empty_ != nullptr) ctr_select_peer_empty_->inc();
    return;
  }
  auto msg = create_message(peer->id, /*is_request=*/true);
  if (stats_ != nullptr) ++stats_->requests_sent;
  if (ctr_requests_ != nullptr) ctr_requests_->inc();
  if (span_log_ != nullptr) {
    // Sequence starts at 1 so (addr 0, first span) never collides with
    // kNoSpan. Observe-only: the id changes no wire bytes and no RNG draws.
    open_span_ = (static_cast<std::uint64_t>(self_.addr) << 40) | ++span_seq_;
    open_span_peer_ = peer->id;
    msg->span = open_span_;
    span_log_->open(open_span_, now_, static_cast<std::uint32_t>(msg->entry_count()));
  }
  probe_peer_ = *peer;
  probe_answered_ = false;
  exchange_attempts_ = 1;
  exchange_retried_ = false;
  exchange_sent_at_ = now_;
  ctx.send(peer->addr, std::move(msg));
  if (evicts()) {
    ++exchange_seq_;
    ctx.schedule_timer(exchange_timeout_value(), kExchangeTimeoutBase + exchange_seq_);
  }
}

void BootstrapProtocol::maintenance_step(Context& ctx) {
  // 1. Probes unanswered for a full cycle are retried; only kProbeAttempts
  // consecutive silences condemn the target (a single lost datagram must
  // not spawn a death certificate — spread certificates amplify mistakes).
  const SimTime now = ctx.now();
  for (auto it = outstanding_probes_.begin(); it != outstanding_probes_.end();) {
    if (now - it->sent > config_.delta) {
      // Evict condemns after kProbeAttempts silences; Adaptive adds one
      // suspicion unit per silent round and keeps probing below the
      // threshold, so a transiently slow peer survives (its answers decay
      // the level back down).
      const bool evict =
          adaptive() ? raise_suspicion(it->target.addr) : it->attempts >= kProbeAttempts;
      if (evict) {
        condemn(it->target.id, now);
        last_heard_.erase(it->target.addr);
        if (config_.harden) {
          // A silent quarantined address never gets promoted.
          const auto q = quarantine_.find(it->target.addr);
          if (q != quarantine_.end()) {
            quarantine_.erase(q);
            if (ctr_q_rejected_ != nullptr) ctr_q_rejected_->inc();
          }
        }
        it = outstanding_probes_.erase(it);
        continue;
      }
      ++it->attempts;
      it->sent = now;
      ctx.send(it->target.addr, std::make_unique<ProbeMessage>(/*is_reply=*/false));
    }
    ++it;
  }
  // Lazily drop expired certificates so the map stays bounded.
  for (auto it = tombstones_.begin(); it != tombstones_.end();) {
    it = it->second <= now ? tombstones_.erase(it) : std::next(it);
  }
  // 1b. An unanswered gossip exchange is a liveness hint: verify via the
  // retrying probe path instead of condemning outright.
  if (!probe_answered_ && probe_peer_.addr != kNullAddress) send_probe(ctx, probe_peer_);

  // 2. Ping the least-recently-heard leaf entry (never-heard first) — this
  // sweeps the whole leaf set within ~c cycles.
  {
    NodeDescriptor lru{0, kNullAddress};
    SimTime oldest = ~SimTime{0};
    for (const auto& d : leaf_->all_view()) {
      const auto it = last_heard_.find(d.addr);
      const SimTime heard = it == last_heard_.end() ? 0 : it->second;
      if (heard < oldest) {
        oldest = heard;
        lru = d;
      }
    }
    if (lru.addr != kNullAddress && now - oldest >= config_.delta) send_probe(ctx, lru);
  }

  // 3. Sweep a few prefix entries per cycle (round-robin cursor), so stale
  // far-region entries are eventually cleared too.
  const auto& entries = prefix_->entries();
  constexpr std::size_t kPrefixProbesPerCycle = 3;
  for (std::size_t i = 0; i < kPrefixProbesPerCycle && !entries.empty(); ++i) {
    prefix_probe_cursor_ = (prefix_probe_cursor_ + 1) % entries.size();
    const NodeDescriptor& d = entries[prefix_probe_cursor_];
    const auto it = last_heard_.find(d.addr);
    if (it == last_heard_.end() || now - it->second >= 2 * config_.delta) send_probe(ctx, d);
  }

  // 4. Probe-before-trust: a couple of quarantined descriptors per cycle
  // get a verifying probe; the echo promotes or rejects them (on_probe_echo).
  if (config_.harden) {
    constexpr std::size_t kQuarantineProbesPerCycle = 2;
    std::size_t sent = 0;
    for (const auto& [addr, d] : quarantine_) {
      if (sent >= kQuarantineProbesPerCycle) break;
      if (already_probing(addr)) continue;
      send_probe(ctx, d);
      ++sent;
    }
  }
}

bool BootstrapProtocol::already_probing(Address addr) const {
  for (const auto& p : outstanding_probes_) {
    if (p.target.addr == addr) return true;
  }
  return false;
}

void BootstrapProtocol::send_probe(Context& ctx, const NodeDescriptor& target) {
  if (target.addr == kNullAddress || already_probing(target.addr)) return;
  outstanding_probes_.push_back({target, ctx.now(), 1});
  ctx.send(target.addr, std::make_unique<ProbeMessage>(/*is_reply=*/false));
}

std::optional<NodeDescriptor> BootstrapProtocol::select_peer(Context& ctx) {
  // Random element of the near half of the leaf set, taken per direction:
  // the closest half of the successors plus the closest half of the
  // predecessors. A single distance-sorted cut would, wherever the local ID
  // density is lopsided, consist entirely of one direction — the two nodes
  // flanking such a gap would then never exchange across it and the
  // outermost far-side leaf entries could only arrive via lucky random
  // samples (convergence would stall at a handful of missing entries).
  const auto& succ = leaf_->successors();
  const auto& pred = leaf_->predecessors();
  const std::size_t ns = succ.empty() ? 0 : std::max<std::size_t>(1, succ.size() / 2);
  const std::size_t np = pred.empty() ? 0 : std::max<std::size_t>(1, pred.size() / 2);
  if (ns + np == 0) return std::nullopt;
  if (evicts() && !outstanding_probes_.empty()) {
    // Demotion: suspected peers (probe outstanding) are skipped, so the
    // active thread stops burning exchanges on a partitioned or dark peer.
    // If every near-half candidate is suspected, fall through to the plain
    // pick — suspicion may be wrong, and gossiping anyway is the recovery.
    DescriptorList& candidates = scratch().candidate_buf;
    candidates.clear();
    for (std::size_t i = 0; i < ns; ++i) {
      if (!already_probing(succ[i].addr)) candidates.push_back(succ[i]);
    }
    for (std::size_t i = 0; i < np; ++i) {
      if (!already_probing(pred[i].addr)) candidates.push_back(pred[i]);
    }
    if (!candidates.empty()) {
      return candidates[ctx.rng().below(candidates.size())];
    }
  }
  const std::size_t pick = ctx.rng().below(ns + np);
  return pick < ns ? succ[pick] : pred[pick - ns];
}

std::unique_ptr<BootstrapMessage> BootstrapProtocol::create_message(NodeId peer_id,
                                                                    bool is_request) {
  // Union of all locally available information: leaf set, cr fresh samples,
  // the prefix table, and the own descriptor, deduplicated by ID. When one
  // ID comes with two addresses the first occurrence in that order wins.
  // Only the leaf set, the samples and self need sorting: the prefix table
  // is an ID-sorted run already and is merged in.
  DescriptorList& fresh = scratch().fresh_buf;
  fresh.clear();
  {
    const auto& succ = leaf_->successors();
    const auto& pred = leaf_->predecessors();
    fresh.insert(fresh.end(), succ.begin(), succ.end());
    fresh.insert(fresh.end(), pred.begin(), pred.end());
  }
  if (config_.use_random_samples) {
    // Appends in place with the exact RNG draws sample() would make —
    // golden replays pin the equivalence.
    sampler_->sample_into(config_.cr, fresh);
  }
  fresh.push_back(self_);
  // Stable insertion sort (std::stable_sort would allocate). The table never
  // holds the own ID, so self ranking before the table below is harmless.
  for (std::size_t i = 1; i < fresh.size(); ++i) {
    const NodeDescriptor d = fresh[i];
    std::size_t j = i;
    for (; j > 0 && fresh[j - 1].id > d.id; --j) fresh[j] = fresh[j - 1];
    fresh[j] = d;
  }
  const auto by_id = [](const NodeDescriptor& a, const NodeDescriptor& b) {
    return a.id < b.id;
  };
  DescriptorList& un = scratch().union_buf;
  un.clear();
  const DescriptorView tbl =
      config_.prefix_entries_in_union ? prefix_->entries() : DescriptorView{};
  std::merge(fresh.begin(), fresh.end(), tbl.begin(), tbl.end(), std::back_inserter(un), by_id);
  un.erase(std::unique(un.begin(), un.end(),
                       [](const NodeDescriptor& a, const NodeDescriptor& b) {
                         return a.id == b.id;
                       }),
           un.end());

  // Drop the peer's own descriptor (useless to send back) and rotate the
  // union into the peer's ring order: its successors by increasing distance
  // from the front, up to and including the antipode (is_successor sends
  // that tie to the successors), and its predecessors by increasing
  // distance from the back.
  auto above = std::lower_bound(un.begin(), un.end(), NodeDescriptor{peer_id, kNullAddress},
                                by_id);
  if (above != un.end() && above->id == peer_id) above = un.erase(above);
  std::rotate(un.begin(), above, un.end());
  const std::size_t n = un.size();
  const std::size_t succ_n = static_cast<std::size_t>(
      std::partition_point(un.begin(), un.end(),
                           [peer_id](const NodeDescriptor& d) {
                             return is_successor(peer_id, d.id);
                           }) -
      un.begin());
  const std::size_t pred_n = n - succ_n;
  const auto pred_at = [&un, n](std::size_t i) { return un[n - 1 - i]; };

  // Ring part: the c entries closest to the peer in the leaf-set sense —
  // c/2 closest successors and c/2 closest predecessors of the peer, with
  // the same top-up rule UPDATELEAFSET uses. A symmetric min-distance cut
  // would starve the outermost directional entries wherever the ID
  // distribution is locally lopsided, and the last few leaf entries would
  // never converge.
  const std::size_t half = config_.c / 2;
  std::size_t take_s = std::min(succ_n, half);
  std::size_t take_p = std::min(pred_n, half);
  std::size_t spare = config_.c - take_s - take_p;
  const std::size_t extra_s = std::min(succ_n - take_s, spare);
  take_s += extra_s;
  spare -= extra_s;
  take_p += std::min(pred_n - take_p, spare);

  // Build the flat message: one buffer, one reserve (the union bounds both
  // the ring part and every prefix candidate), ring entries first.
  auto msg = std::make_unique<BootstrapMessage>(self_, is_request);
  msg->reserve_entries(n);
  for (std::size_t i = 0; i < take_s; ++i) msg->append_ring_entry(un[i]);
  for (std::size_t i = 0; i < take_p; ++i) msg->append_ring_entry(pred_at(i));

  // Prefix part: everything else that is potentially useful for the peer's
  // prefix table — shares at least one digit of prefix with the peer — with
  // at most k entries per (i, j) cell, so the part is bounded by the size of
  // a full prefix table. Leftover successors go first, then leftover
  // predecessors, each by increasing distance from the peer.
  if (config_.send_prefix_part) {
    const int rows = config_.digits.num_digits<NodeId>();
    const int radix = config_.digits.radix();
    std::vector<std::uint8_t>& cell_fill = scratch().cell_fill_buf;
    cell_fill.assign(static_cast<std::size_t>(rows) * static_cast<std::size_t>(radix), 0);
    const auto consider = [&](const NodeDescriptor& d) {
      // Every candidate is potentially useful for exactly one (i, j) cell of
      // the peer's table; ship up to k per cell (row 0 included — without it
      // the first-digit cells would starve once leaf sets localize), so the
      // additional part stays bounded by the size of the full prefix table.
      const int i = common_prefix_digits(peer_id, d.id, config_.digits);
      const int j = digit(d.id, i, config_.digits);
      auto& fill = cell_fill[static_cast<std::size_t>(i) * static_cast<std::size_t>(radix) +
                             static_cast<std::size_t>(j)];
      if (fill >= config_.k) return;
      ++fill;
      msg->append_prefix_entry(d);
    };
    for (std::size_t i = take_s; i < succ_n; ++i) consider(un[i]);
    for (std::size_t i = take_p; i < pred_n; ++i) consider(pred_at(i));
  }
  if (evicts() && !tombstones_.empty()) {
    for (const auto& [id, expiry] : tombstones_) {
      if (expiry <= now_) continue;
      msg->tombstones.push_back({id, expiry});
      if (msg->tombstones.size() >= BootstrapMessage::kMaxTombstonesPerMessage) break;
    }
  }
  if (stats_ != nullptr) {
    stats_->entries_sent += msg->entry_count();
    const auto bytes = static_cast<std::uint64_t>(msg->wire_bytes());
    stats_->payload_bytes_sent += bytes;
    stats_->max_message_bytes = std::max(stats_->max_message_bytes, bytes);
  }
  return msg;
}

void BootstrapProtocol::on_message(Context& ctx, Address from, const Payload& payload) {
  // Anything heard from a peer proves liveness. Remember which believed
  // binding an answered probe was verifying — the hardened echo check needs
  // it after the erase.
  std::optional<NodeDescriptor> answered_probe;
  if (evicts()) {
    last_heard_[from] = ctx.now();
    if (adaptive()) decay_suspicion(from);
    for (auto it = outstanding_probes_.begin(); it != outstanding_probes_.end(); ++it) {
      if (it->target.addr == from) {
        answered_probe = it->target;
        outstanding_probes_.erase(it);
        break;
      }
    }
  }
  now_ = ctx.now();
  if (const auto* probe = payload_cast<ProbeMessage>(payload)) {
    if (!probe->is_reply) {
      ctx.send(from, std::make_unique<ProbeMessage>(/*is_reply=*/true, self_.id));
      return;
    }
    if (config_.harden && probe->responder_id != 0 && active()) {
      on_probe_echo(ctx, from, probe->responder_id, answered_probe);
    }
    return;
  }
  const auto* msg = payload_cast<BootstrapMessage>(payload);
  if (msg == nullptr) {
    BSVC_WARN("bootstrap: unexpected payload type %s", payload.type_name());
    return;
  }
  if (!active()) {
    // Not yet initialized (start is loosely synchronized, a neighbour may be
    // ahead of us). A real node would buffer; dropping is equivalent here
    // because the sender retries every cycle.
    return;
  }
  if (config_.harden) {
    // Sender self-consistency: the claimed descriptor must match the
    // transport-level source address, and — once a probe echo pinned the
    // address — the pinned ID. A mismatch marks the peer as caught lying
    // and rejects the whole message.
    if (msg->sender.addr != from) {
      if (ctr_sanity_rejected_ != nullptr) ctr_sanity_rejected_->inc();
      mark_suspect(from);
      return;
    }
    const auto pin = pinned_.find(from);
    if (pin != pinned_.end() && pin->second != msg->sender.id) {
      if (ctr_sanity_rejected_ != nullptr) ctr_sanity_rejected_->inc();
      mark_suspect(from);
      return;
    }
  }
  if (from == probe_peer_.addr) {
    if (!probe_answered_) {
      if (adaptive() && !exchange_retried_ && now_ >= exchange_sent_at_) {
        rtt_.on_sample(now_ - exchange_sent_at_);
        if (ctr_rtt_samples_ != nullptr) ctr_rtt_samples_->inc();
      }
      close_span(now_, obs::SpanOutcome::Answered,
                 static_cast<std::uint32_t>(msg->entry_count()));
    }
    probe_answered_ = true;
  }
  if (msg->is_request) {
    auto reply = create_message(msg->sender.id, /*is_request=*/false);
    if (stats_ != nullptr) ++stats_->replies_sent;
    if (ctr_replies_ != nullptr) ctr_replies_->inc();
    // The answer travels on behalf of the requester's exchange: carry its
    // span id so the engine attributes the return leg to the same span.
    // (Zero when the span rode a codec round trip — ids are not wire data.)
    reply->span = payload.span;
    ctx.send(from, std::move(reply));
  }
  if (stats_ != nullptr) ++stats_->messages_received;
  if (evicts()) adopt_tombstones(msg->tombstones, ctx.now());
  update_from(*msg, from);
}

bool BootstrapProtocol::raise_suspicion(Address addr) {
  if (addr == kNullAddress) return false;
  int& level = suspicion_[addr];
  ++level;
  if (ctr_suspect_marked_ != nullptr) ctr_suspect_marked_->inc();
  if (level < kSuspicionThreshold) return false;
  if (ctr_suspect_evicted_ != nullptr) ctr_suspect_evicted_->inc();
  suspicion_.erase(addr);
  return true;
}

void BootstrapProtocol::decay_suspicion(Address addr) {
  const auto it = suspicion_.find(addr);
  if (it == suspicion_.end()) return;
  if (ctr_suspect_decayed_ != nullptr) ctr_suspect_decayed_->inc();
  if (--it->second <= 0) suspicion_.erase(it);
}

void BootstrapProtocol::condemn(NodeId id, SimTime now) {
  // Condemning the peer of the pending exchange closes its span: no answer
  // can be accepted from an evicted peer. No-op if already closed.
  if (open_span_ != obs::kNoSpan && id == open_span_peer_) {
    close_span(now, obs::SpanOutcome::Evicted);
  }
  if (ctr_condemned_ != nullptr) ctr_condemned_->inc();
  leaf_->remove(id);
  prefix_->remove(id);
  const SimTime expiry = now + config_.tombstone_ttl_cycles * config_.delta;
  auto& slot = tombstones_[id];
  slot = std::max(slot, expiry);
}

bool BootstrapProtocol::is_tombstoned(NodeId id, SimTime now) const {
  const auto it = tombstones_.find(id);
  return it != tombstones_.end() && it->second > now;
}

void BootstrapProtocol::adopt_tombstones(const std::vector<Tombstone>& incoming, SimTime now) {
  for (const auto& ts : incoming) {
    if (ts.expiry <= now || ts.id == self_.id) continue;
    auto& slot = tombstones_[ts.id];
    if (ts.expiry > slot) {
      slot = ts.expiry;
      if (leaf_) leaf_->remove(ts.id);
      if (prefix_) prefix_->remove(ts.id);
    }
  }
}

void BootstrapProtocol::update_from(const BootstrapMessage& msg, Address from) {
  // One combined pass: both methods take "a set of node descriptors", and a
  // single leaf-set rebuild is cheaper than three. The flat message already
  // holds ring-then-prefix in one buffer, and the scratch vector is reused
  // across deliveries.
  DescriptorList& combined = scratch().combined_buf;
  combined.clear();
  combined.reserve(msg.entry_count() + 1);
  const auto all = msg.all_entries();
  combined.insert(combined.end(), all.begin(), all.end());
  combined.push_back(msg.sender);
  if (evicts() && !tombstones_.empty()) {
    combined.erase(std::remove_if(combined.begin(), combined.end(),
                                  [this](const NodeDescriptor& d) {
                                    return is_tombstoned(d.id, now_);
                                  }),
                   combined.end());
  }
  if (config_.harden) {
    // Per-sender contribution cap: one message may carry at most what an
    // honest CREATEMESSAGE can structurally produce — c ring entries, cr
    // random samples, and a prefix part bounded by k entries per cell of a
    // full table — plus the sender. Flooded messages are truncated, not
    // trusted; compliant messages are never touched.
    const std::size_t cap =
        config_.c + config_.cr +
        static_cast<std::size_t>(config_.k) *
            static_cast<std::size_t>(config_.digits.radix()) *
            static_cast<std::size_t>(config_.digits.num_digits<NodeId>()) +
        1;
    if (combined.size() > cap) {
      if (ctr_sanity_rejected_ != nullptr) {
        ctr_sanity_rejected_->add(combined.size() - cap);
      }
      combined.resize(cap);
    }
    // Descriptor sanity: identity theft (our ID or address under a foreign
    // binding) and bindings contradicting a probe-confirmed pin are dropped.
    combined.erase(std::remove_if(combined.begin(), combined.end(),
                                  [this](const NodeDescriptor& d) {
                                    if ((d.addr == self_.addr) != (d.id == self_.id)) {
                                      if (ctr_sanity_rejected_ != nullptr) {
                                        ctr_sanity_rejected_->inc();
                                      }
                                      return true;
                                    }
                                    const auto pin = pinned_.find(d.addr);
                                    if (pin != pinned_.end() && pin->second != d.id) {
                                      if (ctr_pin_mismatch_ != nullptr) {
                                        ctr_pin_mismatch_->inc();
                                      }
                                      return true;
                                    }
                                    return false;
                                  }),
                   combined.end());
    // A peer caught lying gets no direct say anymore: its contributions go
    // to the quarantine and enter the tables only after a probe echo
    // confirms each binding (probe-before-trust).
    if (probing_defense() && suspects_.count(from) != 0) {
      for (const auto& d : combined) quarantine(d);
      return;
    }
    // Bounded provenance: remember who first vouched for each address, so a
    // later catch can purge the liar's plantings.
    if (contributed_by_.size() < kProvenanceCap) {
      for (const auto& d : combined) contributed_by_.emplace(d.addr, from);
    }
  }
  leaf_->update(combined);
  prefix_->insert_all(combined);
}

void BootstrapProtocol::on_probe_echo(Context& /*ctx*/, Address from, NodeId echoed_id,
                                      const std::optional<NodeDescriptor>& believed) {
  // The echo is ground truth for the address→ID binding (transport
  // addresses are unforgeable in this threat model; IDs are what gets lied
  // about). Newest echo wins.
  pinned_[from] = echoed_id;
  if (believed.has_value() && believed->id != echoed_id) {
    // Fabricated binding caught: the advertised ID does not live at this
    // address. Condemn the fake ID (the tombstone spreads the suppression)
    // and stop trusting whoever planted it.
    if (ctr_pin_mismatch_ != nullptr) ctr_pin_mismatch_->inc();
    condemn(believed->id, now_);
    const auto planter = contributed_by_.find(from);
    if (planter != contributed_by_.end()) mark_suspect(planter->second);
  }
  // The echo also tells us the true descriptor of the responder — adopt it
  // (unless it is tombstoned, e.g. a recently condemned flapper).
  if (!is_tombstoned(echoed_id, now_)) {
    const NodeDescriptor truth{echoed_id, from};
    leaf_->update({&truth, 1});
    prefix_->insert(truth);
  }
  // Settle a quarantined entry for this address: promote on a matching
  // echo, reject on a contradiction.
  const auto q = quarantine_.find(from);
  if (q != quarantine_.end()) {
    if (q->second.id == echoed_id) {
      if (ctr_q_promoted_ != nullptr) ctr_q_promoted_->inc();
    } else if (ctr_q_rejected_ != nullptr) {
      ctr_q_rejected_->inc();
    }
    quarantine_.erase(q);
  }
}

void BootstrapProtocol::mark_suspect(Address peer) {
  if (peer == kNullAddress || suspects_.count(peer) != 0) return;
  suspects_.insert(peer);
  if (leaf_.has_value()) {
    // Purge the liar's unverified plantings: table entries whose address it
    // vouched for and whose binding no probe echo has confirmed. Local
    // removal only — no tombstones, because the liar may have relayed some
    // honest descriptors and spreading certificates would amplify the lie.
    for (const auto& d : leaf_->all()) {
      const auto it = contributed_by_.find(d.addr);
      if (it == contributed_by_.end() || it->second != peer) continue;
      const auto pin = pinned_.find(d.addr);
      if (pin != pinned_.end() && pin->second == d.id) continue;
      leaf_->remove(d.id);
      prefix_->remove(d.id);
      if (ctr_q_rejected_ != nullptr) ctr_q_rejected_->inc();
    }
  }
}

void BootstrapProtocol::quarantine(const NodeDescriptor& d) {
  if (d.addr == kNullAddress || d.addr == self_.addr) return;
  const auto pin = pinned_.find(d.addr);
  if (pin != pinned_.end()) return;  // already settled, either way
  if (quarantine_.size() >= kQuarantineCap) return;
  if (quarantine_.emplace(d.addr, d).second && ctr_q_held_ != nullptr) {
    ctr_q_held_->inc();
  }
}

const LeafSet& BootstrapProtocol::leaf_set() const {
  BSVC_CHECK_MSG(leaf_.has_value(), "protocol not yet activated");
  return *leaf_;
}

const PrefixTable& BootstrapProtocol::prefix_table() const {
  BSVC_CHECK_MSG(prefix_.has_value(), "protocol not yet activated");
  return *prefix_;
}

}  // namespace bsvc
