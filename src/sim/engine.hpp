// The discrete-event simulation engine (PeerSim equivalent).
//
// Virtual-time, deterministic given a seed. The engine owns all nodes, the
// per-shard event queues ordered by (time, key), and the unreliable
// transport model (i.i.d. message drop + bounded uniform latency) under
// which the paper evaluates the bootstrapping service.
//
// Nodes are partitioned addr % K across K >= 1 shards, each with its own
// event queue and worker lane, synchronized at conservative time-window
// barriers of width min_latency (the transport lookahead: no message can
// arrive inside the window it was sent in). Cross-shard sends travel through
// per-shard-pair mailboxes drained at each barrier. All transport randomness
// comes from per-NODE streams and same-tick ordering is content-addressed
// (origin, per-origin counter), so a (seed, K) run is bit-reproducible AND
// the trajectory is identical for every K — K = 1 runs inline on the calling
// thread and is the golden reference. See docs/architecture.md#sharded-execution.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "fault/fault_model.hpp"
#include "id/descriptor.hpp"
#include "id/node_id.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "sim/event_queue.hpp"
#include "sim/payload.hpp"
#include "sim/protocol.hpp"

namespace bsvc {

/// Transport model parameters.
struct TransportConfig {
  /// Probability that any single transmitted message is lost (paper Fig. 4
  /// uses 0.2). Answers to lost requests are never transmitted at all,
  /// which yields the paper's 28% effective loss.
  double drop_probability = 0.0;
  /// One-way delivery latency, uniform in [min_latency, max_latency] ticks.
  /// Defaults keep request+answer well inside one cycle. min_latency is also
  /// the engine's window width (the lookahead), so it must be at least 1.
  SimTime min_latency = 10;
  SimTime max_latency = 150;

  /// Returns "" when the configuration is sane, else a description of the
  /// first problem (drop_probability outside [0,1], min_latency < 1,
  /// min_latency > max_latency). Experiment setup rejects a bad config with
  /// this message; the Engine constructor aborts on it as a backstop.
  std::string validate() const;
};

/// Aggregate traffic counters (since construction or last reset).
struct TrafficStats {
  std::uint64_t messages_sent = 0;       // handed to the transport
  std::uint64_t messages_dropped = 0;    // lost by the drop model
  std::uint64_t messages_to_dead = 0;    // addressed to a dead/removed node
  std::uint64_t messages_delivered = 0;  // reached a live protocol
  std::uint64_t messages_duplicated = 0; // extra copies injected by faults
  std::uint64_t bytes_sent = 0;          // wire bytes incl. UDP/IP headers
};

/// One simulated node: identity, liveness and its protocol stack.
struct Node {
  NodeId id = 0;
  bool alive = false;
  std::vector<std::unique_ptr<Protocol>> stack;
  /// Protocol stream (Context::rng()). Seeded exactly as the historical
  /// engine seeded it, so protocol-visible randomness is unchanged.
  Rng rng{0};
  /// Transport stream: drop/latency/fault draws for messages *sent by* this
  /// node. Node-local so transport randomness is independent of how nodes
  /// are packed into shards. Derived from the same per-node seed as `rng`
  /// (salted split).
  Rng net_rng{0};
  /// Monotone per-origin event counter backing the content-addressed
  /// ordering keys (see Engine::make_key).
  std::uint64_t order_counter = 0;
};

/// The simulation engine. See DESIGN.md §5 for the event model.
class Engine {
 public:
  /// Runs K = `shards` worker lanes (1 <= K <= 4096); K = 1 runs inline on
  /// the calling thread and is the golden reference for every K. Aborts on
  /// an invalid TransportConfig. Addresses are capped below 2^24 (ordering
  /// keys pack the origin address into the top bits).
  explicit Engine(std::uint64_t seed, TransportConfig transport = {},
                  std::size_t shards = 1);

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // --- topology construction -------------------------------------------

  /// Creates a node with the given ID; returns its address. The node is not
  /// alive until start_node() is called.
  Address add_node(NodeId id);

  /// Appends a protocol to the node's stack; returns its slot.
  ProtocolSlot attach(Address addr, std::unique_ptr<Protocol> protocol);

  /// Marks the node alive and schedules on_start for every protocol in its
  /// stack at now() + delay.
  void start_node(Address addr, SimTime delay = 0);

  /// Kills a node: pending messages to it are dropped, its timers are
  /// discarded on fire, and it never acts again. Idempotent.
  void kill_node(Address addr);

  // --- accessors ---------------------------------------------------------

  /// Current virtual time. Inside a window this is the dispatching shard's
  /// local clock (what a protocol callback must observe); at barriers it is
  /// the global clock.
  SimTime now() const;
  std::size_t node_count() const { return nodes_.size(); }

  /// Shard count K >= 1 (the number of worker lanes).
  std::size_t shards() const { return shards_; }
  /// Owning shard of an address (addr % K).
  std::uint32_t shard_of(Address addr) const {
    return static_cast<std::uint32_t>(addr % shards_);
  }
  std::size_t alive_count() const { return alive_count_; }
  bool is_alive(Address addr) const { return node_at(addr).alive; }
  NodeId id_of(Address addr) const { return node_at(addr).id; }
  NodeDescriptor descriptor_of(Address addr) const { return {id_of(addr), addr}; }

  /// Direct access to a protocol instance (observers, co-located services).
  Protocol& protocol(Address addr, ProtocolSlot slot);
  const Protocol& protocol(Address addr, ProtocolSlot slot) const;

  /// Addresses of all currently alive nodes (O(N); for observers).
  std::vector<Address> alive_addresses() const;

  /// Engine-level RNG (scenarios, builders). Node callbacks should use their
  /// per-node stream via Context::rng(). Off limits inside a window (it is
  /// shared, unsynchronized state); barrier-context users — scenario calls,
  /// oracles, builders — are fine.
  Rng& rng();

  /// Per-node deterministic random stream (backs Context::rng()).
  Rng& node_rng(Address addr);

  /// Aggregate traffic counters. Totals are exact at barriers (per-shard
  /// deltas are merged at every window end); reading mid-window from outside
  /// is not supported.
  const TrafficStats& traffic() const { return traffic_; }
  void reset_traffic();

  /// The engine-owned metrics registry (counters, gauges, histograms; see
  /// docs/observability.md for the naming scheme). Per-engine ownership keeps
  /// parallel bench replicas isolated. Const-qualified observers (oracles,
  /// routers) may record into it: metric state is measurement metadata and
  /// never feeds back into the simulation.
  obs::MetricsRegistry& metrics() const { return metrics_; }

  /// Installs a trace sink (nullptr uninstalls). The sink only observes:
  /// with or without one, the simulation is bit-identical. The caller keeps
  /// ownership and must keep the sink alive while installed.
  void set_trace_sink(obs::TraceSink* sink) { trace_ = sink; }
  obs::TraceSink* trace_sink() const { return trace_; }

  /// Installs a span log (nullptr uninstalls). Transport events on payloads
  /// carrying a span id are attributed to their span; protocols open and
  /// close spans through span_log(). Same observe-only contract as the
  /// trace sink: installed or not, the simulation is bit-identical. The
  /// caller keeps ownership and must keep the log alive while installed.
  void set_span_log(obs::SpanLog* log) { span_log_ = log; }
  obs::SpanLog* span_log() const { return span_log_; }

  /// Installs the window profiler (nullptr uninstalls); its shard count must
  /// match the engine's. Enables per-lane timing on the crew; wall-clock is
  /// read outside the simulation state, so the trajectory stays
  /// bit-identical. The caller keeps ownership.
  void set_profiler(obs::EngineProfiler* profiler);
  obs::EngineProfiler* profiler() const { return profiler_; }

  /// Total events dispatched since construction (messages, timers, starts
  /// and calls). Benches report throughput as events/second against this.
  std::uint64_t events_dispatched() const { return events_dispatched_; }

  TransportConfig& transport() { return transport_; }

  /// Installs a fault model (nullptr uninstalls), the engine's one hook for
  /// changing traffic: partitions, link loss, latency faults, dark nodes and
  /// tampering all come through it. Consulted once per send
  /// (drop/latency/duplicate verdict) and once per dispatch (dark-node
  /// query). With no model installed every hook is a single
  /// pointer test and the simulation is bit-identical to the pre-fault
  /// engine — witnessed by the golden-replay tests. The caller keeps
  /// ownership and must keep the model alive while installed.
  void set_fault_model(FaultModel* model);
  FaultModel* fault_model() const { return fault_; }

  /// Optional payload transcoder: when set, every payload is passed through
  /// it at delivery time (e.g. a binary encode→decode round trip from
  /// src/wire, proving protocols depend only on what is actually on the
  /// wire). Returning an empty ref drops the message as malformed.
  void set_transcoder(std::function<PayloadRef(const Payload&)> transcoder) {
    transcoder_ = std::move(transcoder);
  }

  // --- event injection ----------------------------------------------------

  /// Sends a payload from one node's protocol through the transport model.
  /// Takes the ref by value: callers publishing a fresh message move it in;
  /// multicast callers pass a copy (refcount bump, no allocation). Used by
  /// Context; exposed for tests.
  void send_message(Address from, Address to, ProtocolSlot slot, PayloadRef payload);

  /// Schedules on_timer(timer_id) on (addr, slot) at now() + delay.
  void schedule_timer(Address addr, ProtocolSlot slot, SimTime delay,
                      std::uint64_t timer_id);

  /// Schedules an arbitrary callback (observers, scenario scripts) at
  /// now() + delay. Callbacks run in schedule order among same-time events.
  void schedule_call(SimTime delay, std::function<void(Engine&)> fn);

  // --- execution ------------------------------------------------------

  /// Runs events with time <= t_end, then sets now() = t_end.
  void run_until(SimTime t_end);

  /// Runs until the event queue is empty.
  void run_all();

 private:
  // --- per-shard state ---------------------------------------------------

  /// A cross-shard message parked in a mailbox between phase 1 (send) and
  /// phase 2 (drain into the destination queue): the event with its payload
  /// still by-reference (the destination shard's pool assigns the slot).
  struct MailboxEntry {
    SlimEvent ev;
    PayloadRef payload;
  };

  /// Per-message-tag traffic delta accumulated by one shard inside a window
  /// and folded into the shared TypeCounters at the barrier.
  struct TypeDelta {
    const char* tag;
    std::uint64_t sent;
    std::uint64_t delivered;
  };

  /// Everything one shard touches while a window runs. Cache-line aligned:
  /// shard workers hammer their own ctx and must not false-share.
  struct alignas(64) ShardCtx {
    std::uint32_t index = 0;
    /// Local clock: time of the event being dispatched, == the global clock
    /// at barriers.
    SimTime now = 0;
    /// Per-shard event queue in keyed-ordering mode (same-tick events sort
    /// by content-addressed key, not insertion order).
    TwoTierQueue queue;
    SlotPool<PayloadRef> payload_pool;
    // Window-local deltas, merged into engine totals at each barrier.
    TrafficStats traffic;
    std::uint64_t events = 0;
    std::uint64_t mailbox_in = 0;
    std::vector<TypeDelta> type_deltas;
    /// Outboxes, one per destination shard (out[own index] stays empty:
    /// same-shard sends push directly).
    std::vector<std::vector<MailboxEntry>> out;
  };

  /// Content-addressed same-tick ordering key: (origin address, per-origin
  /// monotone counter). Independent of which shard runs the send and of the
  /// order mailboxes are drained in — the root of K-independence. 24 bits
  /// of address, 40 bits of counter.
  static std::uint64_t make_key(Address origin, std::uint64_t counter) {
    return (static_cast<std::uint64_t>(origin) << 40) | counter;
  }

  /// The shard whose window phase is running on this thread, else nullptr
  /// (barrier context). Routes now()/send/dispatch without threading a
  /// context parameter through every protocol callback. Read only in
  /// engine.cpp, where it is defined: a read inlined into another
  /// translation unit goes through the TLS init-wrapper test, and GCC's
  /// UBSan null check on that access reads stale flags once the linker
  /// relaxes the TLS sequence (a false "load of null pointer").
  static thread_local ShardCtx* active_shard_;

  void route(SlimEvent ev, PayloadRef payload, ShardCtx* src);
  void dispatch(ShardCtx& sc, const SlimEvent& ev);
  void run_windows(SimTime t_end, bool settle_clock);
  void run_window(SimTime limit);
  void run_due_calls();
  void merge_shard_deltas();
  TypeDelta& delta_for(ShardCtx& sc, const char* tag);

  Node& node_at(Address addr);
  const Node& node_at(Address addr) const;

  /// Per-payload-tag counters ("msg.sent.<tag>" / "msg.delivered.<tag>").
  /// Tags are class-owned string literals, so the common case is a pointer
  /// compare over a handful of entries; a strcmp fallback catches literals
  /// duplicated across translation units.
  struct TypeCounters {
    const char* tag;
    obs::Counter* sent;
    obs::Counter* delivered;
  };
  TypeCounters& counters_for(const char* tag);

  void trace_message(obs::TraceKind kind, Address from, Address to, ProtocolSlot slot,
                     const Payload& payload) {
    obs::TraceRecord r;
    r.time = now();
    r.kind = kind;
    r.node = (kind == obs::TraceKind::Send || kind == obs::TraceKind::Drop) ? from : to;
    r.peer = (kind == obs::TraceKind::Send || kind == obs::TraceKind::Drop) ? to : from;
    r.slot = slot;
    r.tag = payload.metric_tag();
    r.aux = payload.wire_bytes() + kUdpIpHeaderBytes;
    record_trace(r);
  }

  /// Hands one record to the trace sink. Shard workers share the sink, so a
  /// multi-lane crew serializes on a lock (record order across shards is
  /// nondeterministic; records themselves are deterministic per shard). A
  /// one-shard engine runs inline and skips the lock (micro_ops
  /// BM_ShardedSendDispatchTraced/1 measures this path's cost).
  void record_trace(const obs::TraceRecord& r) {
    if (shards_ > 1) {
      const std::lock_guard<std::mutex> lock(trace_mutex_);
      trace_->record(r);
    } else {
      trace_->record(r);
    }
  }

  /// Span transport hook, one pointer test when no log is installed.
  /// SpanLog serializes internally, so this is safe from shard workers.
  void note_span(std::uint64_t span_id, obs::SpanTransport transport) {
    if (span_log_ != nullptr && span_id != obs::kNoSpan) {
      span_log_->on_transport(span_id, transport);
    }
  }

  SimTime now_ = 0;
  std::uint64_t events_dispatched_ = 0;
  Rng rng_;
  std::uint64_t node_seed_state_;
  TransportConfig transport_;
  TrafficStats traffic_;
  // Deque, not vector: nodes can be added while the simulation runs (churn
  // joins, merges), and protocols legitimately hold references into their
  // node (e.g. the per-node RNG), so Node addresses must be stable.
  std::deque<Node> nodes_;
  std::size_t alive_count_ = 0;
  // Scheduled-call closures, parked by index like payloads (see
  // event_queue.hpp for the rationale).
  SlotPool<std::function<void(Engine&)>> call_pool_;
  std::function<PayloadRef(const Payload&)> transcoder_;
  FaultModel* fault_ = nullptr;
  // Fault-path metric handles, bound when a model is installed.
  obs::Counter* fault_dup_ = nullptr;            // msg.dup
  obs::Counter* fault_dark_dropped_ = nullptr;   // fault.dark.dropped
  obs::Counter* fault_dark_deferred_ = nullptr;  // fault.dark.deferred
  // Corrupt-frame drops (tamper verdicts and transcoder decode failures).
  // Bound at construction: binding from inside a window would race.
  obs::Counter* msg_corrupt_ = nullptr;          // msg.corrupt
  // Mutable: observers holding `const Engine&` record measurements; metric
  // state never feeds back into event ordering or RNG streams.
  mutable obs::MetricsRegistry metrics_;
  obs::TraceSink* trace_ = nullptr;
  obs::SpanLog* span_log_ = nullptr;
  std::vector<TypeCounters> type_counters_;

  // --- shards, crew and barrier-side state ---------------------------------
  std::size_t shards_ = 1;
  /// Conservative window width = transport min latency (the lookahead).
  SimTime window_ticks_ = 0;
  /// unique_ptr elements: ShardCtx is neither copyable nor movable
  /// (alignas + queues), and stable addresses let workers cache pointers.
  std::vector<std::unique_ptr<ShardCtx>> shard_ctx_;
  std::unique_ptr<WindowCrew> crew_;
  /// Coordinator-side schedule_call heap: calls always run at barriers,
  /// single-threaded, before same-tick node events — churn scripts and
  /// observers see a quiescent network. Ordered by (time, seq).
  struct PendingCall {
    SimTime time;
    std::uint64_t seq;
    std::uint32_t slot;  // closure parked in call_pool_
  };
  /// Heap comparator: earliest (time, seq) on top.
  static bool call_later(const PendingCall& a, const PendingCall& b) {
    return a.time != b.time ? a.time > b.time : a.seq > b.seq;
  }
  std::vector<PendingCall> calls_;  // min-heap ordered by call_later
  std::uint64_t call_seq_ = 0;
  std::mutex trace_mutex_;
  // shard.* metric handles, bound at construction.
  obs::Counter* shard_windows_ = nullptr;        // shard.windows
  obs::Counter* shard_mailbox_ = nullptr;        // shard.mailbox.messages
  obs::HistogramMetric* shard_window_events_ = nullptr;  // shard.window_events
  // Window profiler and its per-window scratch, sized shards_ once at
  // install so run_window never allocates.
  obs::EngineProfiler* profiler_ = nullptr;
  std::vector<std::uint64_t> prof_dispatch_ns_;
  std::vector<std::uint64_t> prof_drain_ns_;
  std::vector<std::uint64_t> prof_queue_depth_;
  std::vector<std::uint64_t> prof_mailbox_delta_;
};

}  // namespace bsvc
