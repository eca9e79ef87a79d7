#include "workload/service.hpp"

#include <memory>

#include "common/assert.hpp"
#include "id/digits.hpp"
#include "overlay/pastry_router.hpp"

namespace bsvc {

namespace {

// Service constants. Exhausting the hop budget drops a request, so
// misrouted loops surface as timeouts, not infinite traffic.
constexpr std::size_t kReplicas = 2;             // put copies beside the root's
constexpr SimTime kRequestTimeout = 2 * kDelta;  // fixed; RTT seed and ceiling
constexpr SimTime kRttMinTimeout = 64;           // adaptive timeout floor
constexpr int kMaxHops = 64;                     // forwarding budget per request
constexpr double kRetryJitter = 0.1;             // backoff jitter fraction
constexpr SimTime kCastAckTimeout = kDelta / 2;  // cast re-delegation ack wait

/// Table entries whose node is dead are skipped — the routing validation's
/// timeout-and-try-alternate shorthand. Liveness flags only change at window
/// barriers, so reading them inside shard windows is deterministic.
bool usable_entry(const Engine& engine, const NodeDescriptor& d) {
  return d.addr < engine.node_count() && engine.is_alive(d.addr);
}

}  // namespace

WorkloadService::WorkloadService(WorkloadParams params,
                                 SlotRef<BootstrapProtocol> bootstrap, WorkloadLog* log)
    : params_(params), bootstrap_(bootstrap), log_(log) {
  BSVC_CHECK(log_ != nullptr);
  rtt_ = RttEstimator(RttConfig{kRequestTimeout, kRttMinTimeout, kRequestTimeout});
}

SimTime WorkloadService::timeout_value() const {
  return params_.retry ? rtt_.timeout() : kRequestTimeout;
}

Address WorkloadService::route_step(Context& ctx, NodeId key) const {
  const Engine& engine = ctx.engine();
  const BootstrapProtocol& bp = bootstrap_.of(ctx.engine(), ctx.self());
  if (!bp.active()) return kNullAddress;
  return pastry_next_hop(ctx.self_id(), ctx.self(), bp.leaf_set(), bp.prefix_table(),
                         key,
                         [&engine](const NodeDescriptor& d) { return usable_entry(engine, d); });
}

Address WorkloadService::route_step_excluding(Context& ctx, NodeId key,
                                              Address exclude) const {
  const Engine& engine = ctx.engine();
  const BootstrapProtocol& bp = bootstrap_.of(ctx.engine(), ctx.self());
  if (!bp.active()) return kNullAddress;
  return pastry_next_hop(
      ctx.self_id(), ctx.self(), bp.leaf_set(), bp.prefix_table(), key,
      [&engine, exclude](const NodeDescriptor& d) {
        return d.addr != exclude && usable_entry(engine, d);
      });
}

std::uint64_t WorkloadService::begin_kv(Context& ctx, KvOp op, NodeId key,
                                        std::uint32_t value_bytes) {
  log_->on_issue(op);
  const Address hop = route_step(ctx, key);
  if (hop == kNullAddress) {
    // The origin cannot consult its tables yet (bootstrap mid-warmup or a
    // fresh churn joiner): fail fast, no span, no timer.
    log_->on_unroutable(op);
    return 0;
  }
  const std::uint64_t id =
      (static_cast<std::uint64_t>(ctx.self()) << 40) | kWorkloadIdBit | req_seq_++;
  if (obs::SpanLog* spans = ctx.engine().span_log(); spans != nullptr) {
    spans->open(id, ctx.now(), 0);
  }
  Pending pend{op, ctx.now()};
  pend.key = key;
  pend.value_bytes = value_bytes;
  pending_.emplace(id, pend);
  ctx.schedule_timer(timeout_value(), id);

  KvRequestMessage req(id, op, key, value_bytes, ctx.engine().descriptor_of(ctx.self()),
                       static_cast<std::uint8_t>(kMaxHops), 0, false);
  if (hop == ctx.self()) {
    // Already the root: serve locally, no wire traffic for the request.
    serve_as_root(ctx, req);
  } else {
    if (op == KvOp::Get && params_.hedge_delay > 0) {
      ctx.schedule_timer(params_.hedge_delay, id | kHedgeTimerBit);
    }
    auto msg = std::make_unique<KvRequestMessage>(req);
    // `hops` counts request-path messages, so the origin's own send is the
    // first one; a request served by its first receiver reports hops = 1.
    msg->ttl = req.ttl - 1;
    msg->hops = 1;
    msg->span = id;
    ctx.send(hop, std::move(msg));
  }
  return id;
}

void WorkloadService::on_timer(Context& ctx, std::uint64_t timer_id) {
  if ((timer_id & kDelegTimerBit) != 0) {
    on_delegation_timeout(ctx, timer_id);
    return;
  }
  if ((timer_id & kHedgeTimerBit) != 0) {
    on_hedge_timer(ctx, timer_id & ~kHedgeTimerBit);
    return;
  }
  const auto it = pending_.find(timer_id);
  if (it == pending_.end()) return;  // answered before the timeout fired
  if (params_.retry && it->second.attempts <= params_.retry_budget) {
    retry_request(ctx, timer_id, it->second);
    return;
  }
  const KvOp op = it->second.op;
  pending_.erase(it);
  if (params_.retry) rtt_.on_timeout();
  log_->on_timeout(op);
  if (obs::SpanLog* spans = ctx.engine().span_log(); spans != nullptr) {
    spans->close(timer_id, ctx.now(), obs::SpanOutcome::Timeout);
  }
}

void WorkloadService::retry_request(Context& ctx, std::uint64_t id, Pending& p) {
  ++p.attempts;
  p.retried = true;
  rtt_.on_timeout();
  // Schedule the next backed-off timeout before resending: a same-node root
  // serve completes synchronously and erases the pending record, so nothing
  // may touch `p` after the send below.
  const RetryPolicy policy{params_.retry_backoff, kRetryJitter};
  ctx.schedule_timer(policy.delay(p.attempts - 1, timeout_value(), ctx.rng()), id);
  const KvOp op = p.op;
  const NodeId key = p.key;
  const std::uint32_t value_bytes = p.value_bytes;
  const Address hop = route_step(ctx, key);
  if (hop == kNullAddress) return;  // tables unusable right now; timer still set
  log_->on_retry(op);
  if (obs::SpanLog* spans = ctx.engine().span_log(); spans != nullptr) {
    spans->on_retry(id);
  }
  KvRequestMessage req(id, op, key, value_bytes, ctx.engine().descriptor_of(ctx.self()),
                       static_cast<std::uint8_t>(kMaxHops), 0, false);
  if (hop == ctx.self()) {
    serve_as_root(ctx, req);  // erases the pending record via finish()
    return;
  }
  auto msg = std::make_unique<KvRequestMessage>(req);
  msg->ttl = req.ttl - 1;
  msg->hops = 1;
  msg->span = id;
  ctx.send(hop, std::move(msg));
}

void WorkloadService::on_hedge_timer(Context& ctx, std::uint64_t id) {
  const auto it = pending_.find(id);
  if (it == pending_.end()) return;  // answered (or timed out) already
  Pending& p = it->second;
  if (p.op != KvOp::Get) return;
  // Prefer a first hop different from the one the primary copy took; fall
  // back to the primary route when the tables offer no alternative.
  const Address primary = route_step(ctx, p.key);
  Address hop = route_step_excluding(ctx, p.key, primary);
  if (hop == kNullAddress || hop == ctx.self()) hop = primary;
  if (hop == kNullAddress || hop == ctx.self()) return;
  p.hedge_sent = true;
  log_->on_hedge_sent();
  auto msg = std::make_unique<KvRequestMessage>(
      id, KvOp::Get, p.key, p.value_bytes, ctx.engine().descriptor_of(ctx.self()),
      static_cast<std::uint8_t>(kMaxHops - 1), 1, false);
  msg->hedge = true;
  msg->span = id;
  ctx.send(hop, std::move(msg));
}

void WorkloadService::on_message(Context& ctx, Address from, const Payload& payload) {
  if (const auto* req = payload_cast<KvRequestMessage>(payload)) {
    handle_request(ctx, *req);
    return;
  }
  if (const auto* resp = payload_cast<KvResponseMessage>(payload)) {
    const auto it = pending_.find(resp->request_id);
    if (it == pending_.end()) return;  // timed out (or a hedge copy lost the race)
    const Pending pending = it->second;
    pending_.erase(it);
    // Karn's rule: only unambiguous answers — no retransmission, no hedge
    // copy in flight — feed the estimator.
    if (params_.retry && !pending.retried && !pending.hedge_sent &&
        ctx.now() >= pending.issued_at) {
      rtt_.on_sample(ctx.now() - pending.issued_at);
      log_->on_rtt_sample();
    }
    if (resp->hedged) log_->on_hedge_win();
    log_->on_answer(pending.op, ctx.now() - pending.issued_at, resp->hops, resp->found);
    if (obs::SpanLog* spans = ctx.engine().span_log(); spans != nullptr) {
      spans->close(resp->request_id, ctx.now(), obs::SpanOutcome::Answered);
    }
    return;
  }
  if (const auto* cast = payload_cast<PrefixCastMessage>(payload)) {
    handle_cast(ctx, from, *cast);
  }
}

void WorkloadService::handle_request(Context& ctx, const KvRequestMessage& req) {
  if (req.replicate) {
    store_[req.key] = req.value_bytes;  // replica placement: store only
    return;
  }
  if (req.hedge && req.op == KvOp::Get) {
    // Hedged gets relax root-only serving: any node holding the key — a
    // leaf-set replica en route — answers directly, shaving the tail.
    const auto hit = store_.find(req.key);
    if (hit != store_.end()) {
      auto resp = std::make_unique<KvResponseMessage>(
          req.request_id, req.op, true, hit->second,
          ctx.engine().descriptor_of(ctx.self()), req.hops);
      resp->hedged = true;
      resp->span = req.request_id;
      ctx.send(req.origin.addr, std::move(resp));
      return;
    }
  }
  const Address hop = route_step(ctx, req.key);
  if (hop == ctx.self()) {
    serve_as_root(ctx, req);
    return;
  }
  // A node that cannot consult its tables, has exhausted the hop budget, or
  // finds no usable next hop drops the request — the origin's timeout is the
  // failure signal, exactly as in a deployment.
  if (hop == kNullAddress || req.ttl == 0) return;
  auto msg = std::make_unique<KvRequestMessage>(req);
  msg->ttl = req.ttl - 1;
  msg->hops = req.hops + 1;
  msg->span = req.request_id;
  ctx.send(hop, std::move(msg));
}

void WorkloadService::serve_as_root(Context& ctx, const KvRequestMessage& req) {
  bool found = true;
  if (req.op == KvOp::Put) {
    store_[req.key] = req.value_bytes;
    replicate_put(ctx, req);
  } else {
    found = store_.find(req.key) != store_.end();
  }
  if (req.origin.addr == ctx.self()) {
    // Origin is the root: complete synchronously, no response on the wire.
    finish(ctx, req.request_id, req.op, req.hops, found);
    return;
  }
  auto resp = std::make_unique<KvResponseMessage>(
      req.request_id, req.op, found, req.value_bytes,
      ctx.engine().descriptor_of(ctx.self()), req.hops);
  resp->hedged = req.hedge;
  resp->span = req.request_id;
  ctx.send(req.origin.addr, std::move(resp));
}

void WorkloadService::replicate_put(Context& ctx, const KvRequestMessage& req) {
  const BootstrapProtocol& bp = bootstrap_.of(ctx.engine(), ctx.self());
  if (!bp.active()) return;
  std::size_t placed = 0;
  for (const NodeDescriptor& d : bp.leaf_set().sorted_by_ring_distance()) {
    if (placed == kReplicas) break;
    if (!usable_entry(ctx.engine(), d)) continue;
    auto copy = std::make_unique<KvRequestMessage>(req);
    copy->replicate = true;
    copy->ttl = 0;
    copy->span = req.request_id;
    ctx.send(d.addr, std::move(copy));
    ++placed;
  }
}

void WorkloadService::finish(Context& ctx, std::uint64_t request_id, KvOp op,
                             std::uint32_t hops, bool found) {
  const auto it = pending_.find(request_id);
  if (it == pending_.end()) return;
  const Pending pending = it->second;
  pending_.erase(it);
  log_->on_answer(op, ctx.now() - pending.issued_at, hops, found);
  if (obs::SpanLog* spans = ctx.engine().span_log(); spans != nullptr) {
    spans->close(request_id, ctx.now(), obs::SpanOutcome::Answered);
  }
}

void WorkloadService::begin_cast(Context& ctx, std::uint64_t cast_id,
                                 std::uint32_t payload_bytes) {
  log_->on_cast_launch();
  auto& copies = cast_copies_[cast_id];
  ++copies;
  log_->on_cast_receipt(copies == 1);
  forward_cast(ctx, cast_id, ctx.engine().descriptor_of(ctx.self()), 0, payload_bytes);
}

void WorkloadService::handle_cast(Context& ctx, Address from, const PrefixCastMessage& msg) {
  if (msg.ack) {
    // The delegate answered: the subtree is covered, disarm the timeout
    // (the pending timer finds no record and no-ops).
    delegations_.erase(msg.token);
    return;
  }
  if (msg.want_ack) {
    // Acks are sent for duplicates too — the delegator is waiting on this
    // token regardless of whether another copy arrived first.
    auto ack = std::make_unique<PrefixCastMessage>(msg.cast_id, msg.origin, msg.row, 0);
    ack->ack = true;
    ack->token = msg.token;
    ctx.send(from, std::move(ack));
  }
  auto& copies = cast_copies_[msg.cast_id];
  ++copies;
  log_->on_cast_receipt(copies == 1);
  // The dissemination tree is duplicate-free by construction (cells cover
  // disjoint ID regions); not re-forwarding duplicates is a backstop, and
  // with re-delegation it also keeps a re-covered subtree from re-casting.
  if (copies > 1) return;
  forward_cast(ctx, msg.cast_id, msg.origin, msg.row, msg.payload_bytes);
}

void WorkloadService::forward_cast(Context& ctx, std::uint64_t cast_id,
                                   const NodeDescriptor& origin, int row,
                                   std::uint32_t payload_bytes) {
  const BootstrapProtocol& bp = bootstrap_.of(ctx.engine(), ctx.self());
  if (!bp.active()) return;  // cannot delegate: this subtree is lost
  const PrefixTable& table = bp.prefix_table();
  const DigitConfig& digits = table.digits();
  const NodeId own = ctx.self_id();
  for (int i = row; i < table.rows(); ++i) {
    const int own_digit = digit(own, i, digits);
    for (int j = 0; j < digits.radix(); ++j) {
      if (j == own_digit) continue;
      if (table.cell_count(i, j) == 0) continue;
      // First alive entry of the cell; every entry covers the same disjoint
      // region, so any one of them keeps the tree duplicate-free.
      for (const NodeDescriptor& d : table.cell(i, j)) {
        if (!usable_entry(ctx.engine(), d)) continue;
        if (params_.cast_retries > 0) {
          send_delegation(ctx, cast_id, origin, d.addr, i, j, payload_bytes, {}, 1);
        } else {
          auto msg = std::make_unique<PrefixCastMessage>(
              cast_id, origin, static_cast<std::uint8_t>(i + 1), payload_bytes);
          ctx.send(d.addr, std::move(msg));
          log_->on_cast_forward();
        }
        break;
      }
    }
  }
}

void WorkloadService::send_delegation(Context& ctx, std::uint64_t cast_id,
                                      const NodeDescriptor& origin, Address to,
                                      int cell_row, int cell_digit,
                                      std::uint32_t payload_bytes,
                                      std::vector<Address> tried, int attempts) {
  const std::uint64_t token = (static_cast<std::uint64_t>(ctx.self()) << 40) |
                              kWorkloadIdBit | kCastIdBit | kDelegTimerBit |
                              deleg_seq_++;
  auto msg = std::make_unique<PrefixCastMessage>(
      cast_id, origin, static_cast<std::uint8_t>(cell_row + 1), payload_bytes);
  msg->want_ack = true;
  msg->token = token;
  ctx.send(to, std::move(msg));
  log_->on_cast_forward();
  tried.push_back(to);
  OutstandingDelegation rec;
  rec.cast_id = cast_id;
  rec.origin = origin;
  rec.cell_row = cell_row;
  rec.cell_digit = cell_digit;
  rec.payload_bytes = payload_bytes;
  rec.attempts = attempts;
  rec.tried = std::move(tried);
  delegations_.emplace(token, std::move(rec));
  ctx.schedule_timer(kCastAckTimeout, token);
}

void WorkloadService::on_delegation_timeout(Context& ctx, std::uint64_t token) {
  const auto it = delegations_.find(token);
  if (it == delegations_.end()) return;  // acked in time
  OutstandingDelegation d = std::move(it->second);
  delegations_.erase(it);
  if (d.attempts > params_.cast_retries) return;  // budget exhausted: subtree lost
  const BootstrapProtocol& bp = bootstrap_.of(ctx.engine(), ctx.self());
  if (!bp.active()) return;
  const PrefixTable& table = bp.prefix_table();
  if (d.cell_row >= table.rows()) return;
  for (const NodeDescriptor& alt : table.cell(d.cell_row, d.cell_digit)) {
    if (!usable_entry(ctx.engine(), alt)) continue;
    bool already = false;
    for (const Address a : d.tried) {
      if (a == alt.addr) { already = true; break; }
    }
    if (already) continue;
    log_->on_cast_redelegate();
    send_delegation(ctx, d.cast_id, d.origin, alt.addr, d.cell_row, d.cell_digit,
                    d.payload_bytes, std::move(d.tried), d.attempts + 1);
    return;
  }
  // No untried alive alternate in the cell: retransmit to an already-tried
  // entry instead (single-entry cells are common, and an unacked delegation
  // usually means a lost datagram, not a dead delegate). A duplicate from a
  // lost ack is absorbed by the receiver's dedup.
  for (const NodeDescriptor& alt : table.cell(d.cell_row, d.cell_digit)) {
    if (!usable_entry(ctx.engine(), alt)) continue;
    log_->on_cast_redelegate();
    send_delegation(ctx, d.cast_id, d.origin, alt.addr, d.cell_row, d.cell_digit,
                    d.payload_bytes, std::move(d.tried), d.attempts + 1);
    return;
  }
  // Nobody usable in the cell at all: the subtree stays uncovered.
}

std::uint32_t WorkloadService::cast_copies(std::uint64_t cast_id) const {
  const auto it = cast_copies_.find(cast_id);
  return it == cast_copies_.end() ? 0 : it->second;
}

}  // namespace bsvc
