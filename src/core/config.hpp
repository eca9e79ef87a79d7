// Parameters of the bootstrapping service (paper §4, last paragraph).
#pragma once

#include <cstddef>

#include "id/digits.hpp"
#include "sim/engine.hpp"

namespace bsvc {

/// How the protocol handles unresponsive peers — an extension beyond the
/// paper (docs/faults.md, "Exchange timeouts").
enum class LivenessPolicy {
  /// The paper's protocol: no timeouts, probes or death certificates.
  Off,
  /// Evict a peer from both tables when it stops answering, and spread
  /// death certificates: every request arms a Δ/2 exchange timeout, a
  /// silent peer is demoted into a probing maintenance loop (LRU leaf probe
  /// + prefix sweep; SELECTPEER skips it), and kProbeAttempts silent probes
  /// condemn it. A condemned ID is tombstoned and the tombstone piggybacks
  /// on outgoing messages, so the whole network stops resurrecting the dead
  /// entry (without certificates, gossip re-infects tables faster than
  /// local eviction cleans them — the classic SIS-epidemic persistence).
  /// Under message loss this can temporarily suppress live peers (they
  /// return after the tombstone expires).
  Evict,
  /// Evict plus three adaptive parts: a timed-out exchange is retransmitted
  /// to the same peer up to twice (backoff 2.0, jitter 0.1) before the
  /// probing path takes over; the exchange timeout is a per-node
  /// Jacobson/Karn estimate that starts at Δ/2 and is clamped to [64, 2Δ];
  /// and condemnation accrues suspicion — each silent exchange or probe
  /// round adds a unit, each message heard removes one, and level 3
  /// condemns.
  Adaptive,
};

/// All protocol parameters, defaulted to the paper's simulation settings
/// (§5: b = 4, k = 3, c = 20, cr = 30).
struct BootstrapConfig {
  /// Digit width in bits (the paper's b). Prefix table has 2^b columns.
  DigitConfig digits{4};
  /// Entries kept per (prefix length, differing digit) cell (the paper's k).
  int k = 3;
  /// Leaf set capacity: c/2 closest successors + c/2 closest predecessors.
  std::size_t c = 20;
  /// Random samples taken from the peer sampling service per message.
  std::size_t cr = 30;
  /// Communication period Δ in ticks.
  SimTime delta = kDelta;

  // --- ablation switches (all true = the paper's protocol) --------------

  /// Feed prefix-table entries into the ring-building candidate set
  /// (CREATEMESSAGE's union). Disabling isolates one direction of the
  /// paper's "the two components mutually boost each other".
  bool prefix_entries_in_union = true;
  /// Append the targeted prefix part (descriptors useful for the peer's
  /// table) to outgoing messages. Disabling degrades the protocol toward
  /// plain T-Man ring building with passive table filling.
  bool send_prefix_part = true;
  /// Mix cr fresh random samples into every message.
  bool use_random_samples = true;

  // --- extension beyond the paper ----------------------------------------

  /// Liveness handling (see LivenessPolicy). The paper's Fig. 2 protocol
  /// has none, so this defaults to Off; churn, fault and recovery scenarios
  /// pick Evict or Adaptive.
  LivenessPolicy liveness = LivenessPolicy::Off;
  /// Death-certificate lifetime, in cycles (Evict and Adaptive only).
  std::size_t tombstone_ttl_cycles = 20;

  /// Byzantine hardening (see docs/faults.md, threat model): sender
  /// self-consistency checks, per-message contribution caps, address→ID
  /// pinning confirmed by probe echoes, and a quarantine with
  /// probe-before-trust for descriptors contributed by peers caught lying.
  /// The probe-based defenses need a liveness policy other than Off (they
  /// reuse its maintenance machinery). The experiment harness hardens the
  /// Newscast layer underneath with the same switch. Off by default: with
  /// harden = false the protocol is byte-identical to the unhardened build —
  /// the golden replays witness this.
  bool harden = false;
};

}  // namespace bsvc
