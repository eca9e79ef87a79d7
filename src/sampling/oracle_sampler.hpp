// Idealized peer sampler with global knowledge.
//
// Draws uniformly from the engine's alive node set. Used to (a) unit-test
// higher layers independently of Newscast and (b) run ablations that ask how
// much sampling quality matters. Liveness only changes at barriers
// (add/start/kill_node are barrier-only), so reading it from inside a window
// is race-free and sees the same membership for every shard count.
#pragma once

#include "sampling/peer_sampler.hpp"
#include "sim/engine.hpp"

namespace bsvc {

/// Per-node facade over the engine's global membership.
class OracleSampler final : public PeerSampler {
 public:
  /// `self` is excluded from all samples; every draw comes from `rng`, which
  /// must outlive the sampler.
  OracleSampler(Engine& engine, Address self, Rng& rng)
      : engine_(engine), self_(self), rng_(rng) {}

  DescriptorList sample(std::size_t n) override;
  void sample_into(std::size_t n, DescriptorList& out) override;

 private:
  Engine& engine_;
  Address self_;
  Rng& rng_;
  // Rejection-sampling scratch, reused across calls.
  std::vector<bool> taken_;
};

/// Protocol-shaped adapter so an oracle-sampled node has the same stack
/// layout (slot 0 = sampling service) as a Newscast node. Does nothing on
/// the wire. Draws from its own node's protocol stream, so samples taken in
/// node callbacks are shard-local state.
class OracleSamplerProtocol final : public Protocol, public PeerSampler {
 public:
  OracleSamplerProtocol(Engine& engine, Address self)
      : impl_(engine, self, engine.node_rng(self)) {}
  DescriptorList sample(std::size_t n) override { return impl_.sample(n); }
  void sample_into(std::size_t n, DescriptorList& out) override { impl_.sample_into(n, out); }

 private:
  OracleSampler impl_;
};

}  // namespace bsvc
