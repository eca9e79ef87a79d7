// The engine's fault-injection hook.
//
// A FaultModel is consulted by the transport at send time (one call per
// transmitted message) and by the dispatcher at delivery time (dark-node
// query). The engine holds a raw pointer defaulting to nullptr; with no
// model installed every hook is a single pointer test and the simulation is
// bit-identical to the pre-fault engine — the golden-replay witnesses pin
// this down. The scripted implementation (FaultInjector, driven by a
// FaultPlan) lives in fault_injector.hpp; this header is the only part of
// src/fault the engine depends on.
#pragma once

#include <memory>

#include "common/rng.hpp"
#include "id/node_id.hpp"
#include "sim/event_queue.hpp"
#include "sim/payload.hpp"

namespace bsvc {

/// Interface consulted by Engine::send_message and Engine::dispatch.
///
/// Every per-message random draw comes from the `Rng&` the engine passes in:
/// the sending node's private transport stream. A verdict is therefore a
/// pure function of (trajectory, sender stream), identical for every shard
/// count, and shard workers never touch shared RNG state. Hooks run on shard
/// workers, so model state they touch must be read-only inside a window
/// (plans are immutable while a window runs) or atomic (metric counters).
/// Models may own a private Rng for barrier-side decisions (e.g. picking
/// crash victims in a scheduled call), never for per-message verdicts.
class FaultModel {
 public:
  /// Verdict for one message about to enter the transport.
  struct SendDecision {
    /// Message is lost before the transport sees it (partition cut or
    /// correlated link loss). The base i.i.d. drop still applies to
    /// surviving messages on top.
    bool drop = false;
    /// Replace the base latency draw with `latency` (heavy-tail mode).
    bool replace_latency = false;
    /// Inject one extra copy of the message (delivered `duplicate_delay`
    /// ticks after the original): a second reference to the same payload.
    bool duplicate = false;
    SimTime latency = 0;
    /// Added on top of the (possibly replaced) latency: spikes and
    /// reordering hold-back.
    SimTime extra_delay = 0;
    SimTime duplicate_delay = 0;
  };

  virtual ~FaultModel() = default;

  /// Consulted once per send, before the base drop model. Draws only from
  /// `rng`, the sender's transport stream.
  virtual SendDecision on_send(SimTime now, Address from, Address to, Rng& rng) = 0;

  /// If `addr` is dark (crashed-but-recovering) at `now`, returns the
  /// recovery time (> now); otherwise 0. While dark a node keeps its state:
  /// messages to it are dropped, its timers are deferred to the recovery
  /// time, and it resumes where it left off — distinct from kill_node.
  virtual SimTime dark_until(SimTime now, Address addr) const = 0;

  /// Verdict of on_payload: what happens to the message content itself.
  struct TamperVerdict {
    enum class Action : std::uint8_t {
      Deliver,   // untouched (the default for every benign model)
      Suppress,  // silently withheld by the sender (Byzantine reply drop)
      Corrupt,   // damaged beyond parsing: counted as a msg.corrupt drop
      Replace,   // content rewritten in flight; `replacement` is delivered
    };
    Action action = Action::Deliver;
    /// Published replacement for Action::Replace. Models build a fresh
    /// payload and publish it here — the original stays untouched, so other
    /// references to it (duplicates, multicast peers) are unaffected
    /// (copy-on-write at the tamper point).
    PayloadRef replacement;
  };

  /// Consulted once per send after the on_send verdict (survivors only),
  /// letting a model act on message *content* — the hook Byzantine behavior
  /// models build on (descriptor poisoning, reply suppression, wire
  /// corruption). Same contract as on_send: draws come from `rng` only.
  /// Benign models inherit this no-op, so the scripted FaultInjector and the
  /// null model stay bit-identical to the pre-tamper engine.
  virtual TamperVerdict on_payload(SimTime now, Address from, Address to,
                                   const Payload& payload, Rng& rng) {
    (void)now;
    (void)from;
    (void)to;
    (void)payload;
    (void)rng;
    return {};
  }
};

}  // namespace bsvc
