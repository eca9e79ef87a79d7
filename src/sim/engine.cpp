#include "sim/engine.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <string>
#include <utility>

#include "common/assert.hpp"

namespace bsvc {

// --- Context (declared in protocol.hpp, implemented against Engine) -----

NodeId Context::self_id() const { return engine_.id_of(self_); }
std::uint64_t Context::now() const { return engine_.now(); }

Rng& Context::rng() {
  // Accessing node state through the engine keeps Context trivially small.
  return engine_.node_rng(self_);
}

void Context::send(Address to, PayloadRef payload) {
  engine_.send_message(self_, to, slot_, std::move(payload));
}

void Context::schedule_timer(std::uint64_t delay, std::uint64_t timer_id) {
  engine_.schedule_timer(self_, slot_, delay, timer_id);
}

// --- TransportConfig ----------------------------------------------------

std::string TransportConfig::validate() const {
  if (!(drop_probability >= 0.0 && drop_probability <= 1.0)) {
    return "drop_probability " + std::to_string(drop_probability) +
           " outside [0, 1]";
  }
  if (min_latency < 1) {
    // The lookahead: a zero-latency transport has no window inside which
    // shards can run independently.
    return "min_latency " + std::to_string(min_latency) + " < 1 (the engine's window width)";
  }
  if (min_latency > max_latency) {
    return "min_latency " + std::to_string(min_latency) + " > max_latency " +
           std::to_string(max_latency);
  }
  return "";
}

// --- Engine ------------------------------------------------------------

thread_local Engine::ShardCtx* Engine::active_shard_ = nullptr;

Engine::Engine(std::uint64_t seed, TransportConfig transport, std::size_t shards)
    : rng_(seed), node_seed_state_(seed ^ 0xA24BAED4963EE407ull), transport_(transport),
      shards_(shards) {
  const std::string transport_error = transport_.validate();
  BSVC_CHECK_MSG(transport_error.empty(), transport_error.c_str());
  BSVC_CHECK_MSG(shards_ >= 1 && shards_ <= 4096, "shard count outside [1, 4096]");
  // min_latency is the conservative lookahead (validate() keeps it >= 1).
  window_ticks_ = transport_.min_latency;
  shard_ctx_.reserve(shards_);
  for (std::size_t i = 0; i < shards_; ++i) {
    auto ctx = std::make_unique<ShardCtx>();
    ctx->index = static_cast<std::uint32_t>(i);
    ctx->out.resize(shards_);
    shard_ctx_.push_back(std::move(ctx));
  }
  crew_ = std::make_unique<WindowCrew>(shards_);
  metrics_.gauge("shard.count").set(static_cast<double>(shards_));
  shard_windows_ = &metrics_.counter("shard.windows");
  shard_mailbox_ = &metrics_.counter("shard.mailbox.messages");
  // Events one shard dispatches per window; the paper-scale runs sit in the
  // hundreds, the top bucket absorbs bursts.
  shard_window_events_ = &metrics_.histogram("shard.window_events", 0.0, 4096.0, 64);
  msg_corrupt_ = &metrics_.counter("msg.corrupt");
}

void Engine::reset_traffic() {
  traffic_ = {};
  // Shard deltas are zero at every barrier (merged each window); clearing
  // them keeps reset correct even if called between construction and run.
  for (const auto& sc : shard_ctx_) sc->traffic = {};
}

void Engine::set_profiler(obs::EngineProfiler* profiler) {
  if (profiler != nullptr) {
    BSVC_CHECK_MSG(profiler->shards() == shards_, "profiler shard count mismatch");
    prof_dispatch_ns_.assign(shards_, 0);
    prof_drain_ns_.assign(shards_, 0);
    prof_queue_depth_.assign(shards_, 0);
    prof_mailbox_delta_.assign(shards_, 0);
  }
  profiler_ = profiler;
  crew_->set_timing(profiler != nullptr);
}

void Engine::set_fault_model(FaultModel* model) {
  fault_ = model;
  if (model != nullptr && fault_dup_ == nullptr) {
    fault_dup_ = &metrics_.counter("msg.dup");
    fault_dark_dropped_ = &metrics_.counter("fault.dark.dropped");
    fault_dark_deferred_ = &metrics_.counter("fault.dark.deferred");
  }
}

Address Engine::add_node(NodeId id) {
  BSVC_CHECK_MSG(nodes_.size() < kNullAddress, "address space exhausted");
  BSVC_CHECK_MSG(active_shard_ == nullptr, "add_node inside a window");
  // Ordering keys pack the origin address into the top 24 bits.
  BSVC_CHECK_MSG(nodes_.size() < (1u << 24), "the engine caps addresses below 2^24");
  Node node;
  node.id = id;
  // Exactly one splitmix step of the shared seed state per node — golden
  // replays pin this down. The transport stream is split off the same
  // primary seed locally, so both streams depend only on (engine seed,
  // address) and transport draws are independent of the shard count.
  const std::uint64_t primary = splitmix64(node_seed_state_);
  node.rng = Rng(primary);
  std::uint64_t salted = primary ^ 0x9E3779B97F4A7C15ull;
  node.net_rng = Rng(splitmix64(salted));
  nodes_.push_back(std::move(node));
  return static_cast<Address>(nodes_.size() - 1);
}

ProtocolSlot Engine::attach(Address addr, std::unique_ptr<Protocol> protocol) {
  Node& node = node_at(addr);
  BSVC_CHECK(protocol != nullptr);
  BSVC_CHECK_MSG(node.stack.size() < 255, "protocol stack overflow");
  node.stack.push_back(std::move(protocol));
  return static_cast<ProtocolSlot>(node.stack.size() - 1);
}

Engine::TypeCounters& Engine::counters_for(const char* tag) {
  // Tags are per-class string literals, so pointer equality almost always
  // hits; the strcmp fallback catches a literal duplicated across TUs. The
  // table has one entry per payload type in flight — single digits — so a
  // linear scan beats any hash on this path.
  for (TypeCounters& tc : type_counters_) {
    if (tc.tag == tag || std::strcmp(tc.tag, tag) == 0) return tc;
  }
  const std::string name(tag);
  TypeCounters tc;
  tc.tag = tag;
  tc.sent = &metrics_.counter("msg.sent." + name);
  tc.delivered = &metrics_.counter("msg.delivered." + name);
  type_counters_.push_back(tc);
  return type_counters_.back();
}

void Engine::start_node(Address addr, SimTime delay) {
  BSVC_CHECK_MSG(active_shard_ == nullptr, "start_node inside a window");
  Node& node = node_at(addr);
  if (!node.alive) {
    node.alive = true;
    ++alive_count_;
  }
  if (trace_ != nullptr) {
    obs::TraceRecord r;
    r.time = now_;
    r.kind = obs::TraceKind::NodeStart;
    r.node = addr;
    r.aux = delay;
    trace_->record(r);
  }
  for (ProtocolSlot slot = 0; slot < node.stack.size(); ++slot) {
    SlimEvent ev;
    ev.time = now_ + delay;
    ev.kind = EventKind::Start;
    ev.addr = addr;
    ev.slot = slot;
    ev.seq = make_key(addr, node.order_counter++);
    shard_ctx_[shard_of(addr)]->queue.push(ev);
  }
}

void Engine::kill_node(Address addr) {
  BSVC_CHECK_MSG(active_shard_ == nullptr, "kill_node inside a window");
  Node& node = node_at(addr);
  if (node.alive) {
    node.alive = false;
    --alive_count_;
    if (trace_ != nullptr) {
      obs::TraceRecord r;
      r.time = now_;
      r.kind = obs::TraceKind::NodeKill;
      r.node = addr;
      trace_->record(r);
    }
  }
}

Protocol& Engine::protocol(Address addr, ProtocolSlot slot) {
  Node& node = node_at(addr);
  BSVC_CHECK(slot < node.stack.size());
  return *node.stack[slot];
}

const Protocol& Engine::protocol(Address addr, ProtocolSlot slot) const {
  const Node& node = node_at(addr);
  BSVC_CHECK(slot < node.stack.size());
  return *node.stack[slot];
}

std::vector<Address> Engine::alive_addresses() const {
  std::vector<Address> out;
  out.reserve(alive_count_);
  for (Address a = 0; a < nodes_.size(); ++a) {
    if (nodes_[a].alive) out.push_back(a);
  }
  return out;
}

SimTime Engine::now() const {
  const ShardCtx* sc = active_shard_;
  return sc != nullptr ? sc->now : now_;
}

Rng& Engine::rng() {
  BSVC_CHECK_MSG(active_shard_ == nullptr, "Engine::rng() used inside a window");
  return rng_;
}

Rng& Engine::node_rng(Address addr) { return node_at(addr).rng; }

Engine::TypeDelta& Engine::delta_for(ShardCtx& sc, const char* tag) {
  // Same tag-resolution strategy as counters_for, against the shard's
  // private delta table — no shared registry access inside a window.
  for (TypeDelta& d : sc.type_deltas) {
    if (d.tag == tag || std::strcmp(d.tag, tag) == 0) return d;
  }
  sc.type_deltas.push_back(TypeDelta{tag, 0, 0});
  return sc.type_deltas.back();
}

void Engine::send_message(Address from, Address to, ProtocolSlot slot, PayloadRef payload) {
  BSVC_CHECK(payload);
  BSVC_CHECK_MSG(to < nodes_.size(), "send to unknown address");
  ShardCtx* sc = active_shard_;
  // In-window sends come from the sender's own shard (Context::send); the
  // sender's streams and counter are that shard's private state.
  BSVC_CHECK_MSG(sc == nullptr || shard_of(from) == sc->index,
                 "cross-shard send on behalf of a foreign node inside a window");
  Node& sender = node_at(from);
  const SimTime now = sc != nullptr ? sc->now : now_;
  TrafficStats& tr = sc != nullptr ? sc->traffic : traffic_;
  // The span id outlives tamper replacement below: a rewritten payload still
  // travels on behalf of the same logical exchange. SpanLog aggregation is
  // commutative, so lane-concurrent notes stay K-invariant.
  const std::uint64_t span_id = payload->span;
  ++tr.messages_sent;
  tr.bytes_sent += payload->wire_bytes() + kUdpIpHeaderBytes;
  if (sc != nullptr) {
    ++delta_for(*sc, payload->metric_tag()).sent;
  } else {
    counters_for(payload->metric_tag()).sent->inc();
  }
  if (trace_ != nullptr) trace_message(obs::TraceKind::Send, from, to, slot, *payload);
  note_span(span_id, obs::SpanTransport::Send);

  // Fault verdict before the base drop: a partition cut or correlated link
  // loss kills the message outright; survivors still face the i.i.d. drop.
  // Every random draw comes from the sender's transport stream — the
  // decisions depend only on (trajectory, sender), never on shard packing.
  FaultModel::SendDecision fault;
  if (fault_ != nullptr) {
    fault = fault_->on_send(now, from, to, sender.net_rng);
    if (fault.drop) {
      ++tr.messages_dropped;
      if (trace_ != nullptr) trace_message(obs::TraceKind::Drop, from, to, slot, *payload);
      note_span(span_id, obs::SpanTransport::Drop);
      return;
    }
    // Tamper verdict: Byzantine senders may withhold, damage or rewrite the
    // content. The byte accounting above already charged the original
    // transmission; a rewritten payload travels in its place.
    auto tamper = fault_->on_payload(now, from, to, *payload, sender.net_rng);
    using Action = FaultModel::TamperVerdict::Action;
    if (tamper.action == Action::Suppress || tamper.action == Action::Corrupt) {
      ++tr.messages_dropped;
      if (tamper.action == Action::Corrupt) msg_corrupt_->inc();
      if (trace_ != nullptr) trace_message(obs::TraceKind::Drop, from, to, slot, *payload);
      note_span(span_id, obs::SpanTransport::Drop);
      return;
    }
    if (tamper.action == Action::Replace) {
      // Copy-on-write at the tamper point: only this transmission switches
      // to the rewritten payload; other refs to the original are untouched.
      BSVC_CHECK(tamper.replacement);
      payload = std::move(tamper.replacement);
    }
  }
  if (sender.net_rng.chance(transport_.drop_probability)) {
    ++tr.messages_dropped;
    if (trace_ != nullptr) trace_message(obs::TraceKind::Drop, from, to, slot, *payload);
    note_span(span_id, obs::SpanTransport::Drop);
    return;
  }
  SimTime latency;
  if (fault.replace_latency) {
    // Heavy-tail mode replaces the base draw entirely; the sender's stream
    // is NOT advanced, which is fine — determinism only requires that the
    // same trajectory makes the same draws.
    latency = fault.latency;
  } else {
    latency = transport_.min_latency +
              sender.net_rng.below(transport_.max_latency - transport_.min_latency + 1);
  }
  latency += fault.extra_delay;
  // Conservative lookahead: nothing may arrive inside the window it was
  // sent in. Only fault-replaced latencies can fall below min_latency; they
  // are clamped up to the window width.
  if (latency < window_ticks_) latency = window_ticks_;

  SlimEvent ev;
  ev.time = now + latency;
  ev.kind = EventKind::Message;
  ev.addr = to;
  ev.from = from;
  ev.slot = slot;
  ev.seq = make_key(from, sender.order_counter++);
  // Inject one extra copy, arriving duplicate_delay after the original. A
  // duplicate is a second reference to the same immutable payload (no deep
  // copy, so no payload type can opt out) and bypasses the base drop model:
  // it already survived the fault layer's own verdict.
  PayloadRef copy;
  if (fault.duplicate) copy = payload;
  route(ev, std::move(payload), sc);
  if (copy) {
    ++tr.messages_duplicated;
    tr.bytes_sent += copy->wire_bytes() + kUdpIpHeaderBytes;
    fault_dup_->inc();
    SlimEvent dup = ev;
    dup.time = ev.time + fault.duplicate_delay;
    // A fresh key: the duplicate is its own event, ordered after the
    // original on ties (higher per-origin counter).
    dup.seq = make_key(from, sender.order_counter++);
    route(dup, std::move(copy), sc);
  }
}

void Engine::route(SlimEvent ev, PayloadRef payload, ShardCtx* src) {
  const std::uint32_t dest = shard_of(ev.addr);
  if (src != nullptr && dest != src->index) {
    // Cross-shard, in-window: park in the outbox; the destination shard
    // assigns the payload slot when it drains the mailbox at the barrier.
    src->out[dest].push_back(MailboxEntry{ev, std::move(payload)});
    return;
  }
  // Same-shard (cursor is behind ev.time, so pushing mid-drain is safe) or
  // barrier context (no lanes running).
  ShardCtx& dst = *shard_ctx_[dest];
  ev.aux = dst.payload_pool.store(std::move(payload));
  dst.queue.push(ev);
}

void Engine::dispatch(ShardCtx& sc, const SlimEvent& ev) {
  ++sc.events;
  // Message payloads are reclaimed from the pool unconditionally — even when
  // the destination died in flight.
  PayloadRef payload;
  if (ev.kind == EventKind::Message) {
    payload = sc.payload_pool.take(static_cast<std::uint32_t>(ev.aux));
  }
  Node& node = node_at(ev.addr);
  if (!node.alive) {
    if (ev.kind == EventKind::Message) {
      ++sc.traffic.messages_to_dead;
      if (trace_ != nullptr) {
        trace_message(obs::TraceKind::DeadDest, ev.from, ev.addr, ev.slot, *payload);
      }
      note_span(payload->span, obs::SpanTransport::DeadDest);
    }
    return;  // dead nodes neither receive nor act
  }
  if (fault_ != nullptr) {
    const SimTime recover = fault_->dark_until(sc.now, ev.addr);
    if (recover > sc.now) {
      // Crash–recover semantics: a dark node keeps its state but neither
      // receives nor acts. Messages to it are lost; its timers and starts
      // are deferred to the recovery time.
      if (ev.kind == EventKind::Message) {
        ++sc.traffic.messages_dropped;
        fault_dark_dropped_->inc();
        if (trace_ != nullptr) {
          trace_message(obs::TraceKind::Drop, ev.from, ev.addr, ev.slot, *payload);
        }
        note_span(payload->span, obs::SpanTransport::Drop);
      } else {
        fault_dark_deferred_->inc();
        // Deferred events keep their original key: keys are unique per
        // origin for the whole run, so re-pushing at the recovery time
        // cannot collide, and relative order among one node's deferred
        // events is preserved — independent of shard count.
        SlimEvent deferred = ev;
        deferred.time = recover;
        sc.queue.push(deferred);
      }
      return;
    }
  }
  BSVC_CHECK(ev.slot < node.stack.size());
  Context ctx(*this, ev.addr, ev.slot);
  switch (ev.kind) {
    case EventKind::Start:
      node.stack[ev.slot]->on_start(ctx);
      break;
    case EventKind::Timer:
      if (trace_ != nullptr) {
        obs::TraceRecord r;
        r.time = sc.now;
        r.kind = obs::TraceKind::TimerFire;
        r.node = ev.addr;
        r.slot = ev.slot;
        r.aux = ev.aux;
        record_trace(r);
      }
      node.stack[ev.slot]->on_timer(ctx, ev.aux);
      break;
    case EventKind::Message: {
      // Span id survives the transcoder below: a codec round trip rebuilds
      // the payload and deliberately does not carry the simulation-side id.
      const std::uint64_t span_id = payload->span;
      if (transcoder_) {
        // The transcoder must be a pure function of the payload — shard
        // lanes invoke it concurrently (the wire codec round trip is).
        PayloadRef decoded = transcoder_(*payload);
        if (!decoded) {
          // A frame the wire codec cannot decode is a corrupt datagram: a
          // counted drop, never a crash.
          ++sc.traffic.messages_dropped;
          msg_corrupt_->inc();
          if (trace_ != nullptr) {
            trace_message(obs::TraceKind::Drop, ev.from, ev.addr, ev.slot, *payload);
          }
          note_span(span_id, obs::SpanTransport::Drop);
          break;
        }
        payload = std::move(decoded);
      }
      ++sc.traffic.messages_delivered;
      ++delta_for(sc, payload->metric_tag()).delivered;
      if (trace_ != nullptr) {
        trace_message(obs::TraceKind::Deliver, ev.from, ev.addr, ev.slot, *payload);
      }
      note_span(span_id, obs::SpanTransport::Deliver);
      node.stack[ev.slot]->on_message(ctx, ev.from, *payload);
      break;
    }
  }
}

void Engine::schedule_timer(Address addr, ProtocolSlot slot, SimTime delay,
                            std::uint64_t timer_id) {
  ShardCtx* sc = active_shard_;
  // In-window timers are self-timers (Context::schedule_timer); a timer for
  // a foreign shard's node would race on its queue.
  BSVC_CHECK_MSG(sc == nullptr || shard_of(addr) == sc->index,
                 "cross-shard timer scheduled inside a window");
  Node& node = node_at(addr);
  SlimEvent ev;
  ev.time = (sc != nullptr ? sc->now : now_) + delay;
  ev.kind = EventKind::Timer;
  ev.addr = addr;
  ev.slot = slot;
  ev.aux = timer_id;
  ev.seq = make_key(addr, node.order_counter++);
  shard_ctx_[shard_of(addr)]->queue.push(ev);
}

void Engine::schedule_call(SimTime delay, std::function<void(Engine&)> fn) {
  BSVC_CHECK(fn != nullptr);
  // Calls are coordinator-side: they run single-threaded at barriers and may
  // touch anything (topology, filters, fault plans, Engine::rng()).
  BSVC_CHECK_MSG(active_shard_ == nullptr, "schedule_call inside a window");
  PendingCall call;
  call.time = now_ + delay;
  call.seq = call_seq_++;
  call.slot = call_pool_.store(std::move(fn));
  calls_.push_back(call);
  std::push_heap(calls_.begin(), calls_.end(), call_later);
}

void Engine::run_until(SimTime t_end) { run_windows(t_end, /*settle_clock=*/true); }

void Engine::run_all() { run_windows(~SimTime{0}, /*settle_clock=*/false); }

// --- window runtime -----------------------------------------------------

void Engine::run_windows(SimTime t_end, bool settle_clock) {
  constexpr SimTime kNever = ~SimTime{0};
  for (;;) {
    const SimTime tc = calls_.empty() ? kNever : calls_.front().time;
    SimTime te = kNever;
    for (const auto& sc : shard_ctx_) te = std::min(te, sc->queue.min_time());
    const SimTime t = std::min(tc, te);
    if (t == kNever || t > t_end) break;
    now_ = t;
    if (tc <= t) {
      // Same-tick ordering between calls and node events is fixed by rule —
      // calls first — so it cannot depend on how nodes are packed into
      // shards.
      run_due_calls();
      continue;
    }
    // Conservative window [t, limit]: aligned to the lookahead grid so
    // nothing sent inside it can arrive inside it, capped by the horizon
    // and by the next scheduled call (which must run at a barrier).
    SimTime limit = t - (t % window_ticks_) + window_ticks_ - 1;
    limit = std::min(limit, t_end);
    if (tc != kNever) limit = std::min(limit, tc - 1);
    run_window(limit);
    now_ = limit;
  }
  if (settle_clock) now_ = std::max(now_, t_end);
}

void Engine::run_due_calls() {
  while (!calls_.empty() && calls_.front().time <= now_) {
    std::pop_heap(calls_.begin(), calls_.end(), call_later);
    const PendingCall call = calls_.back();
    calls_.pop_back();
    ++events_dispatched_;
    const auto fn = call_pool_.take(call.slot);
    fn(*this);
  }
}

void Engine::run_window(SimTime limit) {
  using Clock = std::chrono::steady_clock;
  const auto elapsed_ns = [](Clock::time_point a, Clock::time_point b) {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
  };
  const bool profiling = profiler_ != nullptr;
  Clock::time_point w0;
  if (profiling) w0 = Clock::now();
  // Phase 1: every lane drains its own shard's queue through the window.
  crew_->run([this, limit](std::size_t lane) {
    ShardCtx& sc = *shard_ctx_[lane];
    active_shard_ = &sc;
    SlimEvent ev;
    while (sc.queue.pop_if_at_most(limit, ev)) {
      BSVC_CHECK_MSG(ev.time >= sc.now, "shard queue time went backwards");
      sc.now = ev.time;
      dispatch(sc, ev);
    }
    sc.now = limit;
    active_shard_ = nullptr;
  });
  Clock::time_point t1;
  if (profiling) {
    t1 = Clock::now();
    // Lane timings are visible after the run() barrier; copy into scratch
    // before the next round overwrites them.
    const auto& lanes = crew_->last_lane_ns();
    std::copy(lanes.begin(), lanes.end(), prof_dispatch_ns_.begin());
  }
  // Phase 2: drain inbound mailboxes into destination queues. The crew
  // barrier between the phases publishes every outbox; each lane reads only
  // boxes addressed to it and writes only its own queue. Drain order does
  // not matter for determinism — event order comes from the keys.
  crew_->run([this](std::size_t lane) {
    ShardCtx& dst = *shard_ctx_[lane];
    for (const auto& src : shard_ctx_) {
      std::vector<MailboxEntry>& box = src->out[lane];
      for (MailboxEntry& entry : box) {
        SlimEvent ev = entry.ev;
        ev.aux = dst.payload_pool.store(std::move(entry.payload));
        dst.queue.push(ev);
      }
      dst.mailbox_in += box.size();
      box.clear();
    }
  });
  if (!profiling) {
    merge_shard_deltas();
    return;
  }
  const Clock::time_point t2 = Clock::now();
  {
    const auto& lanes = crew_->last_lane_ns();
    std::copy(lanes.begin(), lanes.end(), prof_drain_ns_.begin());
  }
  // Gauges must be read before merge_shard_deltas resets the per-window
  // shard state (events, mailbox_in).
  std::uint64_t window_events = 0;
  for (std::size_t i = 0; i < shards_; ++i) {
    const ShardCtx& sc = *shard_ctx_[i];
    prof_queue_depth_[i] = sc.queue.size();
    prof_mailbox_delta_[i] = sc.mailbox_in;
    window_events += sc.events;
  }
  merge_shard_deltas();
  const Clock::time_point t3 = Clock::now();
  obs::WindowSample sample;
  sample.virtual_time = limit;
  sample.wall_ns = elapsed_ns(w0, t3);
  sample.dispatch_wall_ns = elapsed_ns(w0, t1);
  sample.drain_wall_ns = elapsed_ns(t1, t2);
  sample.dispatch_work_ns = prof_dispatch_ns_.data();
  sample.drain_work_ns = prof_drain_ns_.data();
  sample.queue_depth = prof_queue_depth_.data();
  sample.mailbox_in = prof_mailbox_delta_.data();
  sample.events = window_events;
  sample.shards = shards_;
  profiler_->record_window(sample);
}

void Engine::merge_shard_deltas() {
  for (const auto& scp : shard_ctx_) {
    ShardCtx& sc = *scp;
    traffic_.messages_sent += sc.traffic.messages_sent;
    traffic_.messages_dropped += sc.traffic.messages_dropped;
    traffic_.messages_to_dead += sc.traffic.messages_to_dead;
    traffic_.messages_delivered += sc.traffic.messages_delivered;
    traffic_.messages_duplicated += sc.traffic.messages_duplicated;
    traffic_.bytes_sent += sc.traffic.bytes_sent;
    sc.traffic = {};
    events_dispatched_ += sc.events;
    shard_window_events_->add(static_cast<double>(sc.events));
    sc.events = 0;
    shard_mailbox_->add(sc.mailbox_in);
    sc.mailbox_in = 0;
    for (TypeDelta& d : sc.type_deltas) {
      if (d.sent != 0) counters_for(d.tag).sent->add(d.sent);
      if (d.delivered != 0) counters_for(d.tag).delivered->add(d.delivered);
      d.sent = 0;
      d.delivered = 0;
    }
  }
  shard_windows_->inc();
}

Node& Engine::node_at(Address addr) {
  BSVC_CHECK_MSG(addr < nodes_.size(), "address out of range");
  return nodes_[addr];
}

const Node& Engine::node_at(Address addr) const {
  BSVC_CHECK_MSG(addr < nodes_.size(), "address out of range");
  return nodes_[addr];
}

}  // namespace bsvc
